"""Exact rationals built from parts already in lowest terms, with no gcd.

Standard library only, so that ``thompson`` and ``trees`` can use it
without loading ``renorm``'s mpmath.
"""

from __future__ import annotations

from fractions import Fraction

# Fraction(n, d) for coprime n and d > 0.  The public constructor takes
# gcd(n, d) again, which is quadratic in the size of the parts.  Python
# 3.12+ has a private constructor that skips it; before 3.12 the same two
# slot assignments are made here.
if hasattr(Fraction, "_from_coprime_ints"):
    coprime_fraction = Fraction._from_coprime_ints
else:

    def coprime_fraction(n: int, d: int) -> Fraction:
        f = object.__new__(Fraction)
        f._numerator = n
        f._denominator = d
        return f


def dyadic_fraction(n: int, k: int) -> Fraction:
    """n / 2**k in lowest terms (k >= 0), cancelling the twos of n by a shift."""
    t = min((n & -n).bit_length() - 1, k) if n else k
    return coprime_fraction(n >> t, 1 << (k - t))
