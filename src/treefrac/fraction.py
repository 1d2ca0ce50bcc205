"""Group of fractions of the forest category.

A fraction pair (num, den) is an ordered pair of trees with the same leaf
count; two pairs are equivalent when a common refinement of both sides
makes them equal.  Multiplication stabilizes den(a) against num(b) with
the minimal common refinement, which makes every operation deterministic:

    (f1, g1) * (f2, g2) = (p.f1, q.g2)   where   p.g1 == q.f2.

Reduction cancels carets in one pass over a stack of dyadic leaf intervals
(``cancel_carets``), the only cancellation route for pairs and for F, T, V.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import (
    LEAF,
    Forest,
    LiteralError,
    Tree,
    apply_forest,
    common_refinement,
    format_tree,
    leaf_intervals,
    tree_from_depths,
    _parse_tree_at,
)


@dataclass(frozen=True)
class FractionPair:
    """Ordered pair of trees with equal leaf counts (not necessarily reduced)."""

    num: Tree
    den: Tree

    def __post_init__(self):
        if self.num.leaves != self.den.leaves:
            raise ValueError(
                f"leaf counts differ: {self.num.leaves} vs {self.den.leaves}"
            )

    @classmethod
    def identity(cls) -> FractionPair:
        return cls(LEAF, LEAF)

    @property
    def leaves(self) -> int:
        return self.num.leaves

    def inverse(self) -> FractionPair:
        return FractionPair(self.den, self.num)

    def __invert__(self) -> FractionPair:
        return self.inverse()

    def __mul__(self, other: FractionPair) -> FractionPair:
        if not isinstance(other, FractionPair):
            return NotImplemented
        return fraction_multiply(self, other)

    def refine(self, forest: Forest) -> FractionPair:
        """Equivalent pair with `forest` grafted onto both trees."""
        return FractionPair(apply_forest(self.num, forest), apply_forest(self.den, forest))

    def __str__(self) -> str:
        return f"{format_tree(self.num)}|{format_tree(self.den)}"


def parse_pair(text: str) -> FractionPair:
    num, pos = _parse_tree_at(text, 0)
    if pos >= len(text) or text[pos] != "|":
        raise LiteralError("expected '|' between trees", pos)
    den, end = _parse_tree_at(text, pos + 1)
    if end != len(text):
        raise LiteralError("trailing characters after pair", end)
    return FractionPair(num, den)


def fraction_multiply(a: FractionPair, b: FractionPair) -> FractionPair:
    _, p, q = common_refinement(a.den, b.num)
    return FractionPair(apply_forest(a.num, p), apply_forest(b.den, q))


def cancel_carets(num: Tree, den: Tree, perm) -> tuple[Tree, Tree, tuple[int, ...]]:
    """Cancel every den caret that perm sends onto a num caret, in one pass.

    Den leaf i goes to num leaf perm[i].  Den's leaves are pushed left to
    right as (den interval, num interval, first num leaf); the top two
    entries merge into their parents on both sides while they are the
    left and right halves of one den interval and of one num interval, in
    that order.  Whether a den node cancels depends only on its own
    subtree, so one pass finds every cancellation.  Sorting what is left by
    first num leaf gives the reduced num order and perm.  Returns the
    inputs themselves (the same objects) when nothing cancels.
    """
    images, sources = leaf_intervals(num), leaf_intervals(den)
    n = len(sources)
    if len(images) != n:
        raise ValueError(f"leaf counts differ: {len(images)} vs {n}")
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm is not a permutation of range({n})")
    stack = []
    for (dk, ds), j in zip(sources, perm):
        nk, ns = images[j]
        while stack and ds & 1 and ns & 1:
            pdk, pds, pnk, pns, pj = stack[-1]
            if (pdk, pds, pnk, pns) != (dk, ds - 1, nk, ns - 1):
                break
            stack.pop()
            dk, ds, nk, ns, j = dk - 1, ds >> 1, nk - 1, ns >> 1, pj
        stack.append((dk, ds, nk, ns, j))
    if len(stack) == n:
        return num, den, perm
    order = sorted(range(len(stack)), key=lambda i: stack[i][4])
    rank = [0] * len(stack)
    for r, i in enumerate(order):
        rank[i] = r
    num = tree_from_depths(stack[i][2] for i in order)
    return num, tree_from_depths(e[0] for e in stack), tuple(rank)


def reduce_pair(num: Tree, den: Tree) -> tuple[Tree, Tree]:
    """Cancel common carets until none remain."""
    num, den, _ = cancel_carets(num, den, range(num.leaves))
    return num, den
