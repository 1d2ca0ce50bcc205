"""Planar binary rooted trees and forests.

Conventions used throughout the package:

- A tree is either a leaf or an ordered pair of subtrees.  Leaves are
  numbered 1..n from left to right in planar order.
- Literal grammar (bit-exact, no whitespace): ``T ::= "." | "(" T T ")"``
  and ``F ::= T {"," T}``.
- A forest with m roots and n leaves is a morphism m -> n.  Composing a
  lower forest (m -> n) with an upper forest (n -> p) grafts the i-th
  upper tree onto the i-th leaf of the lower forest.
- A tree encodes a partition of [0, 1] into standard dyadic intervals:
  a leaf is the whole interval, and an internal node splits its interval
  at the midpoint (left child takes the left half).  A node at depth k is
  the interval (k, s) = [s/2^k, (s+1)/2^k); its children are (k+1, 2s)
  and (k+1, 2s+1).  ``leaf_intervals`` and ``tree_from_depths`` convert
  without recursion between a tree and its leaves' intervals or depths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator

from .rationals import dyadic_fraction


class LiteralError(ValueError):
    """Malformed literal; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CompositionError(ValueError):
    """Arity mismatch when stacking forests."""


@dataclass(frozen=True)
class Tree:
    """A planar binary rooted tree; a leaf has no children."""

    left: Tree | None = None
    right: Tree | None = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a tree node has either two children or none")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @cached_property
    def leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaves + self.right.leaves

    def __str__(self) -> str:
        return format_tree(self)


LEAF = Tree()


def caret(left: Tree = LEAF, right: Tree = LEAF) -> Tree:
    return Tree(left, right)


def format_tree(t: Tree) -> str:
    if t.is_leaf:
        return "."
    return f"({format_tree(t.left)}{format_tree(t.right)})"


def parse_tree(text: str) -> Tree:
    tree, end = _parse_tree_at(text, 0)
    if end != len(text):
        raise LiteralError("trailing characters after tree", end)
    return tree


def _parse_tree_at(text: str, pos: int) -> tuple[Tree, int]:
    if pos >= len(text):
        raise LiteralError("unexpected end of input, expected '.' or '('", pos)
    ch = text[pos]
    if ch == ".":
        return LEAF, pos + 1
    if ch == "(":
        left, pos = _parse_tree_at(text, pos + 1)
        right, pos = _parse_tree_at(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise LiteralError("expected ')'", pos)
        return Tree(left, right), pos + 1
    raise LiteralError(f"expected '.' or '(', got {ch!r}", pos)


@dataclass(frozen=True)
class Forest:
    """Nonempty ordered tuple of trees: a morphism (roots -> leaves)."""

    trees: tuple[Tree, ...]

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a forest has at least one tree")

    @classmethod
    def trivial(cls, roots: int) -> Forest:
        """The identity forest on `roots` strands."""
        return cls((LEAF,) * roots)

    @property
    def roots(self) -> int:
        return len(self.trees)

    @cached_property
    def leaves(self) -> int:
        return sum(t.leaves for t in self.trees)

    @property
    def is_trivial(self) -> bool:
        return all(t.is_leaf for t in self.trees)

    def __str__(self) -> str:
        return format_forest(self)


def format_forest(f: Forest) -> str:
    return ",".join(format_tree(t) for t in f.trees)


def parse_forest(text: str) -> Forest:
    trees = []
    pos = 0
    while True:
        tree, pos = _parse_tree_at(text, pos)
        trees.append(tree)
        if pos == len(text):
            return Forest(tuple(trees))
        if text[pos] != ",":
            raise LiteralError("expected ',' between trees", pos)
        pos += 1


def graft(tree: Tree, subtrees: tuple[Tree, ...]) -> Tree:
    """Replace the leaves of `tree` by `subtrees` in planar order."""
    if len(subtrees) != tree.leaves:
        raise CompositionError(
            f"cannot graft {len(subtrees)} trees onto {tree.leaves} leaves"
        )
    it = iter(subtrees)
    out = _graft_iter(tree, it)
    return out


def _graft_iter(tree: Tree, it: Iterator[Tree]) -> Tree:
    if tree.is_leaf:
        return next(it)
    return Tree(_graft_iter(tree.left, it), _graft_iter(tree.right, it))


def compose_forests(lower: Forest, upper: Forest) -> Forest:
    """Stack `upper` on top of `lower` (lower's leaves meet upper's roots)."""
    if lower.leaves != upper.roots:
        raise CompositionError(
            f"lower forest has {lower.leaves} leaves but upper has {upper.roots} roots"
        )
    out = []
    offset = 0
    for t in lower.trees:
        out.append(graft(t, upper.trees[offset : offset + t.leaves]))
        offset += t.leaves
    return Forest(tuple(out))


def apply_forest(tree: Tree, forest: Forest) -> Tree:
    """Refine `tree` by stacking `forest` on top of it."""
    return graft(tree, forest.trees)


def common_refinement(s: Tree, t: Tree) -> tuple[Tree, Forest, Forest]:
    """Minimal common refinement u of s and t.

    Returns (u, p, q) with apply_forest(s, p) == apply_forest(t, q) == u.
    The breakpoint set of u is exactly the union of the breakpoint sets
    of s and t (overlay of the two dyadic partitions).
    """
    if s.is_leaf:
        return t, Forest((t,)), Forest.trivial(t.leaves)
    if t.is_leaf:
        return s, Forest.trivial(s.leaves), Forest((s,))
    ul, pl, ql = common_refinement(s.left, t.left)
    ur, pr, qr = common_refinement(s.right, t.right)
    u = Tree(ul, ur)
    return u, Forest(pl.trees + pr.trees), Forest(ql.trees + qr.trees)


def tree_to_partition(t: Tree) -> tuple[Fraction, ...]:
    """Breakpoints of the standard dyadic partition of [0, 1] encoded by t."""
    return (Fraction(0),) + tuple(dyadic_fraction(s + 1, k) for k, s in leaf_intervals(t))


def leaf_intervals(t: Tree) -> list[tuple[int, int]]:
    """The interval (k, s) of each leaf, left to right, without recursion."""
    out: list[tuple[int, int]] = []
    todo = [(t, 0, 0)]
    while todo:
        node, k, s = todo.pop()
        if node.is_leaf:
            out.append((k, s))
        else:
            todo.append((node.right, k + 1, 2 * s + 1))
            todo.append((node.left, k + 1, 2 * s))
    return out


def tree_from_depths(depths) -> Tree:
    """The tree whose leaves, left to right, lie at `depths`, without recursion.

    Adjacent subtrees of equal depth on the stack are siblings and merge
    into their parent; a valid sequence leaves one tree at depth 0.
    """
    stack: list[tuple[int, Tree]] = []
    for d in depths:
        node = LEAF
        while stack and stack[-1][0] == d:
            node = Tree(stack.pop()[1], node)
            d -= 1
        stack.append((d, node))
    if len(stack) != 1 or stack[0][0] != 0:
        raise ValueError("leaf depths do not form a binary tree")
    return stack[0][1]


#: The largest n whose Catalan number fits the 2**20-bit guard on renorm's
#: exact values: C(524302) has 1,048,575 bits and C(524303) has 1,048,577.
CATALAN_MAX_N = 524302


@cache
def catalan(n: int) -> int:
    """Catalan number C(n): trees with n+1 leaves, for n up to CATALAN_MAX_N."""
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    if n > CATALAN_MAX_N:
        raise ValueError(
            f"the number of trees with {n + 1} leaves has more than 2**20 bits;"
            f" trees may have at most {CATALAN_MAX_N + 1} leaves"
        )
    return math.comb(2 * n, n) // (n + 1)


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All planar binary trees with n leaves, in a fixed recursive order."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    if n == 1:
        yield LEAF
        return
    for k in range(1, n):
        for left in enumerate_trees(k):
            for right in enumerate_trees(n - k):
                yield Tree(left, right)


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniformly random tree with n leaves (Catalan-weighted splits)."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    if n == 1:
        return LEAF
    total = catalan(n - 1)
    pick = rng.randrange(total)
    acc = 0
    for k in range(1, n):
        acc += catalan(k - 1) * catalan(n - k - 1)
        if pick < acc:
            return Tree(random_tree(k, rng), random_tree(n - k, rng))
    raise AssertionError("catalan split out of range")


@cache
def count_forests(roots: int, leaves: int) -> int:
    """Number of forests with the given arity."""
    if roots < 1 or leaves < roots:
        return 0
    if roots == 1:
        return catalan(leaves - 1)
    return sum(
        catalan(k - 1) * count_forests(roots - 1, leaves - k)
        for k in range(1, leaves - roots + 2)
    )


def random_forest(roots: int, leaves: int, rng: random.Random) -> Forest:
    """Uniformly random forest with the given numbers of roots and leaves."""
    total = count_forests(roots, leaves)
    if total == 0:
        raise ValueError(f"no forest with {roots} roots and {leaves} leaves")
    trees: list[Tree] = []
    while roots > 1:
        pick = rng.randrange(count_forests(roots, leaves))
        acc = 0
        for k in range(1, leaves - roots + 2):
            acc += catalan(k - 1) * count_forests(roots - 1, leaves - k)
            if pick < acc:
                trees.append(random_tree(k, rng))
                leaves -= k
                roots -= 1
                break
        else:
            raise AssertionError("forest split out of range")
    trees.append(random_tree(leaves, rng))
    return Forest(tuple(trees))


@cache
def full_tree(depth: int) -> Tree:
    """The balanced binary tree with 2**depth leaves."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return LEAF
    sub = full_tree(depth - 1)
    return Tree(sub, sub)
