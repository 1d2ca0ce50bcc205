"""Thompson's groups F, T and V as groups of fractions of forest categories.

Element conventions (all indices 0-based internally and in literals):

- An F element is a reduced pair (num, den) of trees with equal leaf
  counts.  It acts on [0, 1] by sending the i-th interval of den's dyadic
  partition affinely onto the i-th interval of num's partition, so
  multiplication matches composition of the piecewise-linear maps:
  to_pl_map(a * b) == to_pl_map(a).compose(to_pl_map(b)).
- A V element adds a leaf permutation: den interval i maps onto num
  interval perm[i], order-preservingly within each interval.
- A T element adds a cyclic mark k: den interval i maps onto num interval
  (i + k) mod n.  T is the subgroup of V whose permutations are these
  cyclic shifts (Cannon-Floyd-Parry), and its arithmetic runs as V's.
- Products: F, T and V all multiply as V elements, through the one
  refinement product ``fraction.refined_product`` and one reduction; F
  and T read their identity permutation or mark back off the result.
- The caret rule, for all three (F has the identity permutation): a den
  caret cancels when the permutation sends its left and right leaves onto
  the left and right leaves of one num caret.  ``fraction.cancel_carets``
  applies it; every constructor checks with it that nothing cancels.
  Pairs that this module has reduced itself (by ``reduce``, inversion or
  conversion between F, T and V) skip that second check.

PL maps (``to_pl_map``) are ``plmap.PLMap``s; that module loads on first
use, and ``thompson.PLMap`` names the same class.

Literals extend the pair grammar ``T1 "|" T2``: T elements append ``@k``
and V elements append ``% p0 p1 ... p(n-1)`` (the image list of perm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fraction import FractionPair, cancel_carets, parse_pair, reduce_pair, refined_product
from .trees import LEAF, LiteralError, Tree, format_tree, full_tree, leaf_intervals, random_tree

if TYPE_CHECKING:
    from .plmap import PLMap


def __getattr__(name: str):
    # PLMap lives in .plmap, which loads on first use.
    if name == "PLMap":
        from .plmap import PLMap

        return PLMap
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _reduced(cls, **fields):
    """An element of cls built without the constructor's reducedness check.

    Only for pairs already known to be reduced: the output of
    ``cancel_carets``, an inverse (the caret rule reads the same with num
    and den swapped and perm inverted), a reduced pair seen as an
    element of a larger group, or a step of ``x_generator``.
    """
    el = object.__new__(cls)
    el.__dict__.update(fields)
    return el


# --------------------------------------------------------------------------
# F
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FElement:
    """Reduced tree pair; equality of elements is equality of pairs."""

    num: Tree
    den: Tree

    def __post_init__(self):
        if cancel_carets(self.num, self.den, range(self.leaves))[0] is not self.num:
            raise ValueError("pair is not reduced")

    @classmethod
    def reduce(cls, num: Tree, den: Tree) -> FElement:
        num, den = reduce_pair(num, den)
        return _reduced(cls, num=num, den=den)

    @classmethod
    def from_pair(cls, pair: FractionPair) -> FElement:
        return cls.reduce(pair.num, pair.den)

    @classmethod
    def identity(cls) -> FElement:
        return cls(LEAF, LEAF)

    @property
    def leaves(self) -> int:
        return self.num.leaves

    @property
    def is_identity(self) -> bool:
        return self.num.is_leaf

    def pair(self) -> FractionPair:
        return FractionPair(self.num, self.den)

    def inverse(self) -> FElement:
        return _reduced(FElement, num=self.den, den=self.num)

    def __invert__(self) -> FElement:
        return self.inverse()

    def __mul__(self, other: FElement) -> FElement:
        if not isinstance(other, FElement):
            return NotImplemented
        v = self.to_v() * other.to_v()
        return _reduced(FElement, num=v.num, den=v.den)

    def __pow__(self, k: int) -> FElement:
        return _group_power(self, k, FElement.identity())

    def to_pl_map(self) -> PLMap:
        """The PL map, read off the leaf intervals of den and num.

        Leaf i has slope 2**(dk - nk), dk and nk being its depths in den
        and num, so the breakpoint between two leaves is kept exactly when
        their exponents differ; the map is built on integers over 2**k, k
        the larger tree depth.
        """
        from .plmap import PLMap

        den, num = leaf_intervals(self.den), leaf_intervals(self.num)
        k = max(max(den)[0], max(num)[0])
        xs, ys = [0], [0]
        for (dk, ds), (nk, ns), (dk1, _), (nk1, _) in zip(den, num, den[1:], num[1:]):
            if dk - nk != dk1 - nk1:
                xs.append((ds + 1) << (k - dk))
                ys.append((ns + 1) << (k - nk))
        xs.append(1 << k)
        ys.append(1 << k)
        return PLMap._from_ints(k, xs, ys)

    def to_t(self) -> TElement:
        return _reduced(TElement, num=self.num, den=self.den, mark=0)

    def to_v(self) -> VElement:
        return _reduced(VElement, num=self.num, den=self.den, perm=tuple(range(self.leaves)))

    def __str__(self) -> str:
        return f"{format_tree(self.num)}|{format_tree(self.den)}"


def _group_power(g, k: int, identity):
    if k < 0:
        return _group_power(g.inverse(), -k, identity)
    acc, base = identity, g
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def x_generator(i: int = 0) -> FElement:
    """The standard generators x0, x1, ... of F, in O(i).

    x_{i+1} puts a new root over each of x_i's trees, with a leaf on its
    left.  The new roots are not carets (their right children are not
    leaves) and x_i's carets pair as before, so x_{i+1} is reduced and each
    step skips the constructor's check.  Reading ``leaves`` on each new
    tree fills its cache from its children's, so no later reading recurses
    down the comb.
    """
    if i < 0:
        raise ValueError("generator index must be non-negative")
    g = FElement(Tree(Tree(LEAF, LEAF), LEAF), Tree(LEAF, Tree(LEAF, LEAF)))
    for _ in range(i):
        num, den = Tree(LEAF, g.num), Tree(LEAF, g.den)
        num.leaves, den.leaves  # fill the caches
        g = _reduced(FElement, num=num, den=den)
    return g


# --------------------------------------------------------------------------
# T
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TElement:
    """Reduced tree pair with a cyclic mark: den leaf i -> num leaf (i+mark) mod n.

    T runs as the subgroup of V whose permutations are cyclic shifts:
    reduction cancels carets under the shift, products and inverses go
    through VElement, and the mark is read back as the image of leaf 0.
    """

    num: Tree
    den: Tree
    mark: int

    def __post_init__(self):
        n = self.num.leaves
        if not 0 <= self.mark < n:
            raise ValueError(f"mark {self.mark} out of range for {n} leaves")
        if cancel_carets(self.num, self.den, _shift(self.mark, n))[0] is not self.num:
            raise ValueError("pair is not reduced")

    @classmethod
    def reduce(cls, num: Tree, den: Tree, mark: int) -> TElement:
        num, den, perm = cancel_carets(num, den, _shift(mark, num.leaves))
        return _reduced(cls, num=num, den=den, mark=perm[0])

    @classmethod
    def identity(cls) -> TElement:
        return cls(LEAF, LEAF, 0)

    @property
    def leaves(self) -> int:
        return self.num.leaves

    def inverse(self) -> TElement:
        return _from_v(self.to_v().inverse())

    def __invert__(self) -> TElement:
        return self.inverse()

    def __mul__(self, other: TElement) -> TElement:
        if not isinstance(other, TElement):
            return NotImplemented
        return _from_v(self.to_v() * other.to_v())

    def __pow__(self, k: int) -> TElement:
        return _group_power(self, k, TElement.identity())

    def to_v(self) -> VElement:
        return _reduced(VElement, num=self.num, den=self.den, perm=_shift(self.mark, self.leaves))

    def __str__(self) -> str:
        return f"{format_tree(self.num)}|{format_tree(self.den)}@{self.mark}"


def _shift(mark: int, n: int) -> tuple[int, ...]:
    """The cyclic shift i -> (i + mark) mod n as a V permutation."""
    return tuple((i + mark) % n for i in range(n))


def _from_v(v: VElement) -> TElement:
    """The T element of a V element whose permutation is a cyclic shift."""
    return _reduced(TElement, num=v.num, den=v.den, mark=v.perm[0])


def rotation_element(a: int, n: int) -> TElement:
    """Rotation of the dyadic circle by a / 2**n."""
    if not 0 <= a < 2**n:
        raise ValueError(f"rotation numerator {a} out of range for exponent {n}")
    t = full_tree(n)
    return TElement.reduce(t, t, a)


# --------------------------------------------------------------------------
# V
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VElement:
    """Reduced tree pair with a leaf permutation: den leaf i -> num leaf perm[i]."""

    num: Tree
    den: Tree
    perm: tuple[int, ...]

    def __post_init__(self):
        if cancel_carets(self.num, self.den, self.perm)[0] is not self.num:
            raise ValueError("pair is not reduced")

    @classmethod
    def reduce(cls, num: Tree, den: Tree, perm: tuple[int, ...]) -> VElement:
        num, den, perm = cancel_carets(num, den, perm)
        return _reduced(cls, num=num, den=den, perm=perm)

    @classmethod
    def identity(cls) -> VElement:
        return cls(LEAF, LEAF, (0,))

    @property
    def leaves(self) -> int:
        return self.num.leaves

    def inverse(self) -> VElement:
        inv = [0] * self.leaves
        for i, j in enumerate(self.perm):
            inv[j] = i
        return _reduced(VElement, num=self.den, den=self.num, perm=tuple(inv))

    def __invert__(self) -> VElement:
        return self.inverse()

    def __mul__(self, other: VElement) -> VElement:
        if not isinstance(other, VElement):
            return NotImplemented
        a, b = self, other
        return VElement.reduce(*refined_product(a.num, a.den, a.perm, b.num, b.den, b.perm))

    def __pow__(self, k: int) -> VElement:
        return _group_power(self, k, VElement.identity())

    def __str__(self) -> str:
        perm = " ".join(str(i) for i in self.perm)
        return f"{format_tree(self.num)}|{format_tree(self.den)}%{perm}"


# --------------------------------------------------------------------------
# Sampling and literals
# --------------------------------------------------------------------------


def random_element(leaf_bound: int, seed: int) -> FElement:
    """Reduced pair of two uniform trees with `leaf_bound` leaves each."""
    if leaf_bound < 2:
        raise ValueError("leaf_bound must be at least 2")
    return random_element_rng(leaf_bound, random.Random(seed))


def random_element_rng(leaf_bound: int, rng: random.Random) -> FElement:
    return FElement.reduce(random_tree(leaf_bound, rng), random_tree(leaf_bound, rng))


Element = FElement | TElement | VElement


def parse_element(text: str) -> Element:
    """Parse an element literal, reducing to normal form."""
    if "%" in text:
        head, _, tail = text.partition("%")
        pair = parse_pair(head)
        try:
            perm = tuple(int(w) for w in tail.split())
        except ValueError:
            raise LiteralError("permutation images must be integers", len(head) + 1) from None
        if sorted(perm) != list(range(pair.num.leaves)):
            raise LiteralError("not a permutation of the leaves", len(head) + 1)
        return VElement.reduce(pair.num, pair.den, perm)
    if "@" in text:
        head, _, tail = text.partition("@")
        pair = parse_pair(head)
        try:
            mark = int(tail)
        except ValueError:
            raise LiteralError("mark must be a decimal integer", len(head) + 1) from None
        return TElement.reduce(pair.num, pair.den, mark % pair.num.leaves)
    pair = parse_pair(text)
    return FElement.from_pair(pair)


def format_element(el: Element) -> str:
    return str(el)
