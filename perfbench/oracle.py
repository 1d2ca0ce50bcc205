"""An independent reading of element literals, used only to check outputs.

A tree literal is read as its dyadic partition of [0, 1): leaf i covers
[start_i, start_i + 2**-depth_i).  An element (num, den, image) sends
den leaf i affinely onto num leaf image[i], where image is the identity
(F), a cyclic shift (T, ``@k``) or a permutation (V, ``% p0 p1 ...``).
None of this calls treefrac.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction


def leaf_starts(tree: str) -> tuple[list[Fraction], list[int]]:
    """Left endpoints and depths of the leaf intervals, in planar order."""
    starts, depths = [], []
    depth, pos = 0, Fraction(0)
    for ch in tree:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        else:
            starts.append(pos)
            depths.append(depth)
            pos += Fraction(1, 1 << depth)
    return starts, depths


def refinement_leaves(s: str, t: str) -> int:
    """Leaf count of the minimal common refinement: the union of breakpoints."""
    return len(set(leaf_starts(s)[0]) | set(leaf_starts(t)[0]))


class Element:
    """The action on [0, 1) of an F, T or V element literal."""

    def __init__(self, literal: str):
        head, mark, image = literal, 0, None
        if "%" in literal:
            head, _, tail = literal.partition("%")
            image = [int(w) for w in tail.split()]
        elif "@" in literal:
            head, _, tail = literal.partition("@")
            mark = int(tail)
        num, _, den = head.partition("|")
        self.num, self.num_depth = leaf_starts(num)
        self.den, self.den_depth = leaf_starts(den)
        n = len(self.den)
        self.image = image if image is not None else [(i + mark) % n for i in range(n)]

    def __call__(self, x: Fraction) -> Fraction:
        i = bisect_right(self.den, x) - 1
        j = self.image[i]
        scale = Fraction(2) ** (self.den_depth[i] - self.num_depth[j])
        return self.num[j] + (x - self.den[i]) * scale
