"""The PL maps of [0, 1] that are elements of Thompson's group F.

``thompson`` loads this module on first use (``FElement.to_pl_map`` or the
name ``PLMap``), so importing the package does not pay for it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, lt, or_

from .rationals import dyadic_fraction


@dataclass(frozen=True)
class PLMap:
    """Increasing PL homeomorphism of [0, 1] with dyadic breakpoints and
    power-of-two slopes: by Cannon-Floyd-Parry, an element of F.

    Besides ``points`` a map holds a private integer form
    ``_form = (k, xs, ys)``: its breakpoints are (xs[i] / 2**k, ys[i] / 2**k)
    with k least.  ``FElement.to_pl_map``, ``compose`` and ``inverse`` build
    their maps on it, so maps run on integers, and ``Fraction`` is made
    once per output coordinate, for ``points``.  The constructor reads the
    form off ``points`` and refuses a map that is not in F.  Equality,
    hashing, printing and evaluation read ``points`` alone.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1] != (1, 1):
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x0 or y1 <= y0:
                raise ValueError("breakpoints must be strictly increasing")
        try:
            dens = [c.denominator for pt in pts for c in pt]
        except AttributeError:  # a float or other non-rational coordinate
            raise ValueError("breakpoints must be rationals") from None
        if any(d & (d - 1) for d in dens):
            raise ValueError("breakpoints must be dyadic")
        k = max(dens).bit_length() - 1
        xs = tuple(x.numerator << (k + 1 - x.denominator.bit_length()) for x, _ in pts)
        ys = tuple(y.numerator << (k + 1 - y.denominator.bit_length()) for _, y in pts)
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            dx, dy = x1 - x0, y1 - y0
            # dy / dx is a power of 2 iff the odd parts of dx and dy agree.
            if dx * (dy & -dy) != dy * (dx & -dx):
                raise ValueError("slopes must be powers of 2")
        object.__setattr__(self, "_form", (k, xs, ys))

    @classmethod
    def from_breakpoints(cls, points) -> PLMap:
        """Build from breakpoints, dropping interior collinear ones.

        Only a point strictly between its neighbours in x is dropped, so
        points whose x does not increase reach the constructor, which
        refuses them.
        """
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        out = [pts[0]]
        for (x, y), nxt in zip(pts[1:], pts[2:] + [None]):
            if nxt is not None:
                x0, y0 = out[-1]
                x1, y1 = nxt
                if x0 < x < x1 and (y - y0) * (x1 - x) == (y1 - y) * (x - x0):
                    continue
            out.append((x, y))
        return cls(tuple(out))

    @staticmethod
    def _from_ints(k: int, xs, ys) -> PLMap:
        """The map through (xs[i] / 2**k, ys[i] / 2**k), given no collinear
        interior point and power-of-two slopes, with its form set."""
        one = 1 << k
        if len(xs) < 2 or xs[0] or ys[0] or xs[-1] != one or ys[-1] != one:
            raise ValueError("breakpoints must run from (0,0) to (1,1)")
        if not (all(map(lt, xs, xs[1:])) and all(map(lt, ys, ys[1:]))):
            raise ValueError("breakpoints must be strictly increasing")
        # 2**k is among the coordinates, so t <= k.
        low = reduce(or_, xs, reduce(or_, ys))
        t = (low & -low).bit_length() - 1
        if t:
            k -= t
            xs = [x >> t for x in xs]
            ys = [y >> t for y in ys]
        points = tuple((dyadic_fraction(x, k), dyadic_fraction(y, k)) for x, y in zip(xs, ys))
        return _plmap(points, (k, tuple(xs), tuple(ys)))

    @classmethod
    def identity(cls) -> PLMap:
        return cls(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))

    def __call__(self, x: Fraction) -> Fraction:
        """Value at x, from the first segment whose right end is >= x.

        The segment is found by bisection over the x-coordinates, so one
        evaluation costs O(log n) for n breakpoints.
        """
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        pts = self.points
        k = max(1, bisect_left(pts, x, key=itemgetter(0)))
        (x0, y0), (x1, y1) = pts[k - 1], pts[k]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self) -> PLMap:
        k, xs, ys = self._form
        return _plmap(tuple((y, x) for x, y in self.points), (k, ys, xs))

    def compose(self, other: PLMap) -> PLMap:
        """self after other, by one merge of the two breakpoint lists.

        The composite can only break where other does or where other lands
        on a breakpoint of self.  So the merge walks other's y-coordinates
        and self's x-coordinates, both increasing from 0 to 1, holding the
        current segment of each map.  At each merged point t it emits
        (other^-1(t), self(t)), which costs O(n + m) for maps of n and m
        breakpoints, and it drops the collinear points.

        The merge runs on the integer forms (see the class docstring),
        over 2**(2k), k the larger of the two exponents: a slope of either
        map lies between 2**-k and 2**k, so every interpolated coordinate
        is an exact ``//``, and collinear points are found by
        cross-multiplying.
        """
        return _compose_ints(self._form, other._form)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        )

    def __str__(self) -> str:
        return ", ".join(f"{x}->{y}" for x, y in self.points)


def _plmap(points, form) -> PLMap:
    """A map of known-valid points, built without the constructor's checks,
    with its integer form set."""
    pl = object.__new__(PLMap)
    pl.__dict__.update(points=points, _form=form)
    return pl


def _compose_ints(f, g) -> PLMap:
    """The merge of ``PLMap.compose`` on integer forms: f after g."""
    (k1, xs, ys), (k2, us, vs) = f, g
    k = max(k1, k2)
    xs = [x << (2 * k - k1) for x in xs]
    ys = [y << (2 * k - k1) for y in ys]
    us = [u << (2 * k - k2) for u in us]
    vs = [v << (2 * k - k2) for v in vs]
    top = 1 << (2 * k)
    ox, oy = [0], [0]
    i = j = 1
    while True:
        x, v = xs[i], vs[j]
        if v == x:
            u, y = us[j], ys[i]
        elif v < x:
            x0, y0 = xs[i - 1], ys[i - 1]
            u, y = us[j], y0 + (ys[i] - y0) * (v - x0) // (x - x0)
        else:
            u0, v0 = us[j - 1], vs[j - 1]
            u, y = u0 + (us[j] - u0) * (x - v0) // (v - v0), ys[i]
        if len(ox) > 1 and (oy[-1] - oy[-2]) * (u - ox[-1]) == (y - oy[-1]) * (ox[-1] - ox[-2]):
            ox[-1], oy[-1] = u, y
        else:
            ox.append(u)
            oy.append(y)
        if v == x == top:
            return PLMap._from_ints(2 * k, ox, oy)
        i += v >= x
        j += v <= x
