"""Quadratic renormalization dynamics on the 3-dimensional four-box space.

Coordinates (p, q, r) refer to the basis {b1, b2, b3} where b1 is the
two-vertex four-box and b2, b3 the two diagrammatic four-boxes without
vertices; the squaring map sends b3 to b1.  The raw polynomial map is

    p' = (d^2-5d+7)/(d-1)^2 p^2 + 2pq + 2(d-2)/(d-1) pr + q^2 + r^2
    q' = -( p^2/(d-1)^3 + (2pq + q^2)/(d-1) )
    r' = (d^2-3d+3)/(d-1)^3 p^2 + (2pq + q^2)/(d-1)

and for d >= 2 the l1 norm obeys |map(a)| <= M |a|^2 with

    M = (d+1)/(d-1) + ((d-2)/(d-1))^2 + d(d+1)(d-2)/(d-1)^3.

A decay certificate is a step n with M * |map^n(b1)|_1 < 1; by the
quadratic bound the iterates then collapse to zero doubly exponentially.
Rational loop parameters are handled in exact big-rational arithmetic;
cosine-parametrized ones (d = 4 cos^2(pi/m) +- 1) use outward-rounded
interval arithmetic, so every reported norm is a true upper bound and a
strict certificate inequality is rigorous.  mpmath, which supplies the
intervals, is imported only where an enclosure is made
(``LoopParameter.interval`` and ``_to_field``), so exact work never
loads it.  Below d = 2 the displayed M is not a valid bound (its
derivation needs d >= 2, and it goes negative near the golden ratio), so
certification is refused there rather than reporting a vacuous product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .rationals import coprime_fraction

#: Exact values of cos^2(pi/m) at the rational spots.
_EXACT_COS2 = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}

DEFAULT_DIGITS = 60
DEFAULT_NMAX = 64


class PrecisionError(RuntimeError):
    """Exact denominators blew past the guard, or intervals got too wide."""


def _endpoint_raw(x):
    """(sign, mantissa, exponent) of an interval's upper endpoint."""
    sign, man, exp, _ = x._mpi_[1]
    return sign, int(man), int(exp)


def _decimal_exponent(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers num and den.

    num / den lies within a factor of two of 2^(bit-length difference),
    so the estimate from that difference is off by at most one.
    """

    def at_least(t: int) -> bool:
        return num * (10**-t if t < 0 else 1) >= den * (10**t if t > 0 else 1)

    e10 = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while at_least(e10 + 1):
        e10 += 1
    while not at_least(e10):
        e10 -= 1
    return e10


def _check_digits(digits: int):
    if digits < 1:
        raise ValueError(f"digits must be at least 1, not {digits}")


def upper_decimal(x, digits: int) -> str:
    """Decimal string that is a true upper bound for x, rounded outward.

    x is an interval scalar (its upper endpoint is used) or a Fraction;
    the string carries `digits` significant digits, positional when the
    magnitude is moderate and scientific otherwise.  Rounding is exact
    integer arithmetic: the printed value never drops below x.
    """
    _check_digits(digits)
    if isinstance(x, Fraction):
        if x == 0:
            return "0"
        negative = x < 0
        mag = abs(x)
        num, den = mag.numerator, mag.denominator
    else:
        sign, man, exp = _endpoint_raw(x)
        if man == 0:
            return "0"
        negative = bool(sign)
        if abs(exp) > (1 << 20):
            # Magnitude beyond printable range: one power of ten past the
            # binary estimate is still a rigorous outward bound.
            log_est = (exp + man.bit_length()) * math.log10(2)
            n10 = math.floor(log_est) - 2 if negative else math.ceil(log_est) + 1
            return f"{'-' if negative else ''}1.0e{'+' if n10 >= 0 else '-'}{abs(n10)}"
        num = man * (2**exp if exp > 0 else 1)
        den = 2**-exp if exp < 0 else 1

    e10 = _decimal_exponent(num, den)
    k = digits - 1 - e10
    scaled_num = num * (10**k if k > 0 else 1)
    scaled_den = den * (10**-k if k < 0 else 1)
    if negative:
        mantissa = scaled_num // scaled_den  # magnitude down: value up
    else:
        mantissa = -(-scaled_num // scaled_den)  # magnitude up
    if mantissa >= 10**digits:
        mantissa //= 10
        e10 += 1
    text = str(mantissa).rstrip("0") or "0"
    prefix = "-" if negative else ""
    if -4 <= e10 < digits:
        if e10 >= 0:
            head = text[: e10 + 1].ljust(e10 + 1, "0")
            tail = text[e10 + 1 :]
            body = f"{head}.{tail}" if tail else f"{head}.0"
        else:
            body = "0." + "0" * (-e10 - 1) + text
        return prefix + body
    frac = text[1:]
    return f"{prefix}{text[0]}.{frac or '0'}e{'+' if e10 >= 0 else '-'}{abs(e10)}"


@dataclass(frozen=True)
class LoopParameter:
    """Loop parameter: an exact rational, or 4cos^2(pi/m) +- 1."""

    exact: Fraction | None = None
    m: int | None = None
    variant: str | None = None

    def __post_init__(self):
        if (self.exact is None) == (self.m is None):
            raise ValueError("give exactly one of an exact value or (m, variant)")
        if self.exact is not None and self.exact <= 1:
            raise ValueError("the loop parameter must exceed 1")
        if self.m is not None:
            if self.variant not in ("plus", "minus"):
                raise ValueError("variant must be 'plus' or 'minus'")
            if self.m < 2:
                raise ValueError("m must be at least 2")

    @classmethod
    def from_rational(cls, value) -> LoopParameter:
        return cls(exact=Fraction(value))

    @classmethod
    def cosine(cls, m: int, variant: str) -> LoopParameter:
        """d = 4 cos^2(pi/m) + 1 ("plus") or - 1 ("minus").

        At m in {2, 3, 4, 6} the cosine is rational and the parameter is
        stored exactly (minus at m = 6 gives d = 2 on the nose).
        """
        if m in _EXACT_COS2:
            base = 4 * _EXACT_COS2[m]
            return cls.from_rational(base + 1 if variant == "plus" else base - 1)
        return cls(m=m, variant=variant)

    @classmethod
    def coerce(cls, d) -> LoopParameter:
        if isinstance(d, LoopParameter):
            return d
        return cls.from_rational(d)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self, digits: int):
        """Rigorous enclosure of d at the stated working precision."""
        from mpmath import iv

        _check_digits(digits)
        iv.dps = digits
        if self.is_exact:
            return iv.mpf(self.exact.numerator) / iv.mpf(self.exact.denominator)
        c = iv.cos(iv.pi / self.m)
        d = 4 * c * c
        return d + 1 if self.variant == "plus" else d - 1

    def label(self, digits: int = DEFAULT_DIGITS) -> str:
        if self.is_exact:
            return str(self.exact)
        return upper_decimal(self.interval(digits), digits)


@dataclass(frozen=True)
class Q4Vector:
    """Coordinates in the basis {b1, b2, b3}; scalars are Fraction or interval."""

    p: object
    q: object
    r: object

    @classmethod
    def basis(cls, i: int) -> Q4Vector:
        coords = [Fraction(0)] * 3
        coords[i - 1] = Fraction(1)
        return cls(*coords)

    @classmethod
    def zero(cls) -> Q4Vector:
        return cls(Fraction(0), Fraction(0), Fraction(0))

    def __add__(self, other: Q4Vector) -> Q4Vector:
        return Q4Vector(self.p + other.p, self.q + other.q, self.r + other.r)

    def scale(self, s) -> Q4Vector:
        return Q4Vector(s * self.p, s * self.q, s * self.r)

    def l1(self):
        return abs(self.p) + abs(self.q) + abs(self.r)


B1 = Q4Vector.basis(1)
B2 = Q4Vector.basis(2)
B3 = Q4Vector.basis(3)


@dataclass(frozen=True)
class _Coeffs:
    """The rational functions of d appearing in the raw polynomial."""

    d: object
    p_sq: object  # (d^2-5d+7)/(d-1)^2
    pr: object  # 2(d-2)/(d-1)
    q_p_sq: object  # 1/(d-1)^3
    inv: object  # 1/(d-1)
    r_p_sq: object  # (d^2-3d+3)/(d-1)^3

    @classmethod
    def at(cls, d) -> _Coeffs:
        e = d - 1
        return cls(
            d=d,
            p_sq=(d * d - 5 * d + 7) / (e * e),
            pr=2 * (d - 2) / e,
            q_p_sq=1 / (e * e * e),
            inv=1 / e,
            r_p_sq=(d * d - 3 * d + 3) / (e * e * e),
        )

    def integral(self) -> tuple[int, tuple[int, int, int, int, int]]:
        """(L, L * (p_sq, pr, q_p_sq, inv, r_p_sq)) for rational coefficients,
        L being the lcm of their denominators."""
        fracs = (self.p_sq, self.pr, self.q_p_sq, self.inv, self.r_p_sq)
        lcm = math.lcm(*(f.denominator for f in fracs))
        return lcm, tuple(f.numerator * (lcm // f.denominator) for f in fracs)

    def apply(self, a: Q4Vector) -> Q4Vector:
        p, q, r = a.p, a.q, a.r
        pp = p * p
        cross = 2 * p * q + q * q
        return Q4Vector(
            self.p_sq * pp + 2 * p * q + self.pr * p * r + q * q + r * r,
            -(self.q_p_sq * pp + self.inv * cross),
            self.r_p_sq * pp + self.inv * cross,
        )


def _scalarize(d, digits: int):
    """(scalar d, exact flag) in the field matching the parameter."""
    param = LoopParameter.coerce(d)
    if param.is_exact:
        return param.exact, True
    return param.interval(digits), False


def _to_field(x, exact: bool):
    if exact:
        return Fraction(x)
    from mpmath import iv

    f = Fraction(x)
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


def renorm_map(a: Q4Vector, d, digits: int = DEFAULT_DIGITS) -> Q4Vector:
    """One application of the squaring map, exact when d and a are rational."""
    scalar, exact = _scalarize(d, digits)
    if not exact:
        a = Q4Vector(*(_to_field(c, False) for c in (a.p, a.q, a.r)))
    return _Coeffs.at(scalar).apply(a)


def m_constant(d, digits: int = DEFAULT_DIGITS):
    """The quadratic-growth constant M(d)."""
    return _m_value(_scalarize(d, digits)[0])


def _m_value(scalar):
    """M at a scalar d: a Fraction, or an interval enclosing M."""
    e = scalar - 1
    return (scalar + 1) / e + ((scalar - 2) / e) ** 2 + scalar * (scalar + 1) * (scalar - 2) / (e * e * e)


def bound_expression(a: Q4Vector, d):
    """The convex upper bound for the l1 norm of the squaring map (d >= 2).

    A(p+q)^2 + (r + (d-2)/(d-1) p)^2 + B p^2 with A = (d+1)/(d-1) and
    B = d(d+1)(d-2)/(d-1)^3; its maximum on the unit l1 ball is attained
    at +-b1 where it equals M(d).
    """
    scalar, _ = _scalarize(d, DEFAULT_DIGITS)
    e = scalar - 1
    big_a = (scalar + 1) / e
    big_b = scalar * (scalar + 1) * (scalar - 2) / (e * e * e)
    alpha = (scalar - 2) / e
    p, q, r = a.p, a.q, a.r
    return big_a * (p + q) ** 2 + (r + alpha * p) ** 2 + big_b * p * p


def _guard_bits(value: Fraction, max_bits: int, n: int):
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > max_bits:
        raise PrecisionError(
            f"exact norm at step {n} has {bits} bits, past the {max_bits}-bit guard"
        )


def _strip_content(base: int, *values: int) -> tuple[int, ...]:
    """`values` divided by their common factor over the primes of `base`.

    Each pass divides by h = gcd(base, values), taken on the residues
    mod base, so it costs time linear in the size of the values; it
    repeats until h = 1.
    """
    while (h := math.gcd(base, *(v % base for v in values))) > 1:
        values = tuple(v // h for v in values)
    return values


def _orbit(x0: Q4Vector, scalar, exact: bool, max_bits: int):
    """Yield (n, |map^n(x0)|_1) for n = 1, 2, ... without end.

    Exact mode carries the iterate as integers (p, q, r) over one shared
    denominator D: with the coefficients over their common denominator L,
    each step maps the integers to their integer image and D to L * D^2.
    Every prime of D then divides B = L * D0, D0 being the lcm of x0's
    denominators, so each step strips the content of (p, q, r, D) over
    the primes of B only (`_strip_content`, no big gcd), and D stays the
    reduced iterate's denominator.  The norm (|p|+|q|+|r|, D) is stripped
    the same way, which leaves it in lowest terms; the bit guard runs on
    it.  Interval mode applies the map to interval scalars.
    """
    coeffs = _Coeffs.at(scalar)
    if not exact:
        x = Q4Vector(*(_to_field(c, False) for c in (x0.p, x0.q, x0.r)))
        for n in itertools.count(1):
            x = coeffs.apply(x)
            yield n, x.l1()
    lcm, (c_p, c_pr, c_qp, c_inv, c_rp) = coeffs.integral()
    coords = [Fraction(c) for c in (x0.p, x0.q, x0.r)]
    den = math.lcm(*(c.denominator for c in coords))
    base = lcm * den
    p, q, r = (c.numerator * (den // c.denominator) for c in coords)
    for n in itertools.count(1):
        pp = p * p
        cross = 2 * p * q + q * q
        p, q, r, den = _strip_content(
            base,
            c_p * pp + lcm * (cross + r * r) + c_pr * p * r,
            -(c_qp * pp + c_inv * cross),
            c_rp * pp + c_inv * cross,
            lcm * den * den,
        )
        norm = coprime_fraction(*_strip_content(base, abs(p) + abs(q) + abs(r), den))
        _guard_bits(norm, max_bits, n)
        yield n, norm


def iterate_norms(
    x0: Q4Vector,
    d,
    steps: int,
    digits: int = DEFAULT_DIGITS,
    max_bits: int = 1 << 20,
) -> list[tuple[int, object]]:
    """l1 norms of the first `steps` iterates of x0.

    Exact rationals when d and x0 are rational: the orbit runs on integers
    over one shared denominator, stripped of its content each step, and
    each norm is built in lowest terms.  A norm
    whose numerator or denominator passes `max_bits` bits raises
    PrecisionError, naming the step, instead of rounding silently.
    Otherwise each norm is an outward-rounded interval upper bound at the
    stated precision.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    scalar, exact = _scalarize(d, digits)
    rows = itertools.islice(_orbit(x0, scalar, exact, max_bits), steps)
    return [(n, norm if exact else norm.b) for n, norm in rows]


@dataclass(frozen=True)
class Certificate:
    """A rigorous decay certificate: M * |iterate n|_1 < 1 strictly."""

    n: int
    norm_bound: object  # K (upper bound in interval mode)
    m_bound: object  # M
    product: object  # upper bound for M * K
    exact: bool
    digits: int | None

    def __post_init__(self):
        if not self.product < 1:
            raise ValueError("certificate product must be strictly below 1")


@dataclass(frozen=True)
class CertificateFailure:
    reason: str
    m_bound: object | None
    best_n: int | None
    best_product: object | None
    exact: bool
    digits: int | None


def find_certificate(
    d,
    n_max: int = DEFAULT_NMAX,
    digits: int = DEFAULT_DIGITS,
    max_bits: int = 1 << 20,
) -> Certificate | CertificateFailure:
    """Smallest n <= n_max with M * |map^n(b1)|_1 < 1, or the best failure.

    Reads the orbit of b1 row by row, exact on integers over one shared
    denominator when d is rational (the same rows and the same bit guard
    as `iterate_norms`).  Refuses d < 2, where the displayed M is not a
    valid quadratic bound and a product below 1 would certify nothing.
    """
    scalar, exact = _scalarize(d, digits)
    return _certify(scalar, exact, _orbit(B1, scalar, exact, max_bits), n_max, digits)


def _certify(scalar, exact: bool, orbit, n_max: int, digits: int):
    """find_certificate at the scalar d (a Fraction, or its enclosure at
    `digits`) on the rows of the orbit of b1 read from `orbit`."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dig = None if exact else digits
    if exact:
        below_two = scalar < 2
    elif scalar.b < 2:
        below_two = True
    elif scalar.a >= 2:
        below_two = False
    else:
        raise PrecisionError("cannot separate d from 2 at this precision")
    if below_two:
        return CertificateFailure(
            reason="quadratic growth bound is only valid for d >= 2",
            m_bound=None,
            best_n=None,
            best_product=None,
            exact=exact,
            digits=dig,
        )

    m_bound = _m_value(scalar)
    best_n, best_upper = None, None
    for n, norm in itertools.islice(orbit, n_max):
        product = m_bound * norm
        if exact:
            norm_up, prod_up = norm, product
        else:
            norm_up, prod_up = norm.b, product.b
        if best_upper is None or prod_up < best_upper:
            best_n, best_upper = n, prod_up
        if prod_up < 1:
            return Certificate(
                n=n,
                norm_bound=norm_up,
                m_bound=m_bound if exact else m_bound.b,
                product=prod_up,
                exact=exact,
                digits=dig,
            )
    return CertificateFailure(
        reason=f"no certificate within n_max={n_max}",
        m_bound=m_bound if exact else m_bound.b,
        best_n=best_n,
        best_product=best_upper,
        exact=exact,
        digits=dig,
    )


@dataclass(frozen=True)
class DecayRow:
    n: int
    norm: object
    log_norm: float
    log_ratio: float | None


def _log_value(x) -> float:
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    value = float(x)
    if value > 0:
        return math.log(value)
    # The float underflows (x below about e^-745): take the log from the
    # endpoint's mantissa and binary exponent instead.
    sign, man, exp = _endpoint_raw(x)
    if sign or man == 0:
        raise ValueError("the log-norm needs a positive norm bound")
    return math.log(man) + exp * math.log(2)


def decay_profile(
    d,
    steps: int,
    digits: int = DEFAULT_DIGITS,
    max_bits: int = 1 << 20,
) -> list[DecayRow]:
    """Log-norms of the orbit of b1 and successive log-norm ratios.

    Requires a decay certificate at d (searched up to max(steps, 64));
    past the certificate step the ratios approach 2 (doubly exponential
    decay).  The search and the profile read one orbit, so each row is
    computed once, with the bit guard of `iterate_norms`.
    """
    param = LoopParameter.coerce(d)
    scalar, exact = _scalarize(param, digits)
    certify_rows, profile_rows = itertools.tee(_orbit(B1, scalar, exact, max_bits))
    cert = _certify(scalar, exact, certify_rows, max(steps, DEFAULT_NMAX), digits)
    if isinstance(cert, CertificateFailure):
        raise ValueError(f"no decay certificate at d={param.label()}: {cert.reason}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    norms = [(n, k if exact else k.b) for n, k in itertools.islice(profile_rows, steps)]
    logs = [_log_value(k) for _, k in norms]
    rows = []
    for i, (n, k) in enumerate(norms):
        ratio = logs[i + 1] / logs[i] if i + 1 < len(logs) and logs[i] != 0 else None
        rows.append(DecayRow(n=n, norm=k, log_norm=logs[i], log_ratio=ratio))
    return rows


# --------------------------------------------------------------------------
# Parameter scans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    m: int | None
    variant: str | None
    d_label: str
    outcome: Certificate | CertificateFailure

    @property
    def certified(self) -> bool:
        return isinstance(self.outcome, Certificate)


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]
    n_max: int
    digits: int

    def variant_rows(self, variant: str) -> list[ScanRow]:
        return [r for r in self.rows if r.variant == variant]

    def _matches_expected_pattern(self, variant: str) -> bool:
        rows = self.variant_rows(variant)
        if not rows:
            return False
        for row in rows:
            expected = row.m >= 7
            if row.certified != expected:
                return False
        return True

    def verdict(self) -> str:
        variants = sorted({r.variant for r in self.rows if r.variant})
        matching = [v for v in variants if self._matches_expected_pattern(v)]
        if not matching:
            return "no variant certifies exactly for m >= 7 and fails for m in {5, 6}"
        names = " and ".join(matching)
        return (
            f"variant {names} reproduces the expected pattern: "
            "certificates for m >= 7, failures for m in {5, 6}"
        )


def scan(
    m_from: int,
    m_to: int,
    variant: str = "both",
    include_d3: bool = False,
    n_max: int = DEFAULT_NMAX,
    digits: int = DEFAULT_DIGITS,
) -> ScanReport:
    """Certificate search over the cosine family, one row per (m, variant).

    Each row encloses its d once, for its label, its M and its orbit.
    """
    if not 5 <= m_from <= m_to:
        # Below m = 5 the minus variant leaves the d > 1 domain entirely.
        raise ValueError("need 5 <= m_from <= m_to")
    if variant not in ("plus", "minus", "both"):
        raise ValueError("variant must be 'plus', 'minus' or 'both'")
    variants = ("plus", "minus") if variant == "both" else (variant,)
    rows = []
    for var in variants:
        for m in range(m_from, m_to + 1):
            scalar, exact = _scalarize(LoopParameter.cosine(m, var), digits)
            rows.append(
                ScanRow(
                    m=m,
                    variant=var,
                    d_label=str(scalar) if exact else upper_decimal(scalar, digits),
                    outcome=_certify(scalar, exact, _orbit(B1, scalar, exact, 1 << 20), n_max, digits),
                )
            )
    if include_d3:
        param = LoopParameter.from_rational(3)
        rows.append(
            ScanRow(
                m=None,
                variant=None,
                d_label="3",
                outcome=find_certificate(param, n_max, digits),
            )
        )
    return ScanReport(rows=tuple(rows), n_max=n_max, digits=digits)


# --------------------------------------------------------------------------
# Reports on the printed formulas
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareFormsReport:
    """Raw polynomial versus the completed-squares display.

    The b1 coordinate agrees identically.  The displayed b2 line only
    agrees after replacing its (d-1)^2 denominator by (d-1)^3 (as printed
    it overshoots by d(d-2)^2/(d-1)^3 p^2).  The displayed b3 line
    repeats the b1 squares and disagrees with the raw b3 outright:
    witness (0, 0, 1), where the raw coordinate is 0 and the display
    gives 1.
    """

    d: Fraction
    samples: int
    b1_max_discrepancy: Fraction
    b2_printed_max_discrepancy: Fraction
    b2_corrected_max_discrepancy: Fraction
    b3_printed_max_discrepancy: Fraction


def compare_square_forms(d, sample_count: int = 1000, seed: int = 0) -> SquareFormsReport:
    import random

    if sample_count < 0:
        raise ValueError("sample_count must be at least 0")
    param = LoopParameter.coerce(d)
    if not param.is_exact:
        raise ValueError("the algebraic comparison runs over exact rationals")
    dd = param.exact
    e = dd - 1
    alpha = (dd - 2) / e
    beta = (dd + 1) * (dd - 2) / (e * e)
    coeffs = _Coeffs.at(dd)

    def differences(p, q, r):
        raw = coeffs.apply(Q4Vector(p, q, r))
        square = (p + q) ** 2 + (r + alpha * p) ** 2 - beta * p * p
        b2_printed = -((p + q) ** 2 / e - dd * (dd - 2) / (e * e) * p * p)
        b2_corrected = -((p + q) ** 2 / e - dd * (dd - 2) / (e * e * e) * p * p)
        return square - raw.p, b2_printed - raw.q, b2_corrected - raw.q, square - raw.r

    # Each difference is a quadratic form in (p, q, r).  Its coefficients of
    # p^2, q^2, r^2, pq, pr and qr are read off its values at the unit
    # vectors and their pair sums, and held as integers over their lcm,
    # each nonzero one with the index of its monomial.
    zero, one = Fraction(0), Fraction(1)
    pp, qq, rr = differences(one, zero, zero), differences(zero, one, zero), differences(zero, zero, one)
    pq, pr, qr = differences(one, one, zero), differences(one, zero, one), differences(zero, one, one)
    forms = []
    for c in zip(pp, qq, rr, pq, pr, qr):
        c = (c[0], c[1], c[2], c[3] - c[0] - c[1], c[4] - c[0] - c[2], c[5] - c[1] - c[2])
        lcm = math.lcm(*(x.denominator for x in c))
        forms.append((lcm, [(j, x.numerator * (lcm // x.denominator)) for j, x in enumerate(c) if x]))

    def points():
        # (n1, m1, n2, m2, n3, m3) for the point (n1/m1, n2/m2, n3/m3): the
        # four fixed points, then the random ones, drawn one at a time so
        # that memory stays flat in the sample count.
        yield from ((1, 1, 0, 1, 0, 1), (0, 1, 1, 1, 0, 1), (0, 1, 0, 1, 1, 1), (0, 1, 0, 1, 1, 1))
        draw = random.Random(seed).randrange
        for _ in range(sample_count):
            yield draw(-64, 65), draw(1, 17), draw(-64, 65), draw(1, 17), draw(-64, 65), draw(1, 17)

    # A form's value at a point is (its integers at P, Q, R) / (lcm * D^2),
    # with D = m1 m2 m3 and P = n1 m2 m3, Q = n2 m1 m3, R = n3 m1 m2.  Each
    # maximum is kept as (|value| * lcm * D^2, D^2), compared by
    # cross-multiplying.
    tops = [(0, 1)] * len(forms)
    for n1, m1, n2, m2, n3, m3 in points():
        big_p, big_q, big_r = n1 * m2 * m3, n2 * m1 * m3, n3 * m1 * m2
        den = m1 * m2 * m3
        den *= den
        monomials = (
            big_p * big_p, big_q * big_q, big_r * big_r, big_p * big_q, big_p * big_r, big_q * big_r
        )
        for i, (_, terms) in enumerate(forms):
            num = abs(sum([c * monomials[j] for j, c in terms]))
            top_num, top_den = tops[i]
            if num * top_den > top_num * den:
                tops[i] = num, den
    return SquareFormsReport(
        dd,
        4 + sample_count,
        *(Fraction(num, lcm * den) for (lcm, _), (num, den) in zip(forms, tops)),
    )


@dataclass(frozen=True)
class BoundReport:
    d: Fraction
    samples: int
    violations: int
    extreme_values: dict[str, Fraction]
    max_attained_at_b1: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.max_attained_at_b1


# Samples per bulk draw in `bound_check`: bounds the values held at once.
_BOUND_CHUNK = 512


def _bound_values(rng, sample_count: int):
    """Yield the 3 * sample_count values of successive
    `rng.randrange(-10**6, 10**6 + 1)` calls, in lists of at most
    3 * _BOUND_CHUNK values.

    randrange takes one 32-bit word per try and keeps its top 21 bits
    once they fall below the width 2 * 10^6 + 1.  Each bulk draw takes as
    many words as values are still missing, so no word is drawn past the
    last value and rng ends in the state those calls would leave.
    """
    import struct

    limit = (2 * 10**6 + 1) << 11
    while sample_count > 0:
        need = 3 * min(sample_count, _BOUND_CHUNK)
        sample_count -= need // 3
        values = []
        while len(values) < need:
            n = need - len(values)
            # getrandbits fills its result least significant word first.
            words = struct.unpack(f"<{n}I", rng.getrandbits(32 * n).to_bytes(4 * n, "little"))
            values += [(w >> 11) - 10**6 for w in words if w < limit]
        yield values


def _bound_violations(d: Fraction, m: Fraction, sample_count: int, seed: int) -> int:
    """How many of the sampled integer triples a have |map(a)|_1 > m |a|_1^2."""
    import random

    # Clear denominators: scaled integer coefficients over the common w.
    w, (c_p, c_pr, c_qp, c_inv, c_rp) = _Coeffs.at(d).integral()
    mk_num, mk_den = m.numerator, m.denominator
    mk_w = mk_num * w
    violations = 0
    for values in _bound_values(random.Random(seed), sample_count):
        it = iter(values)
        for i, j, k in zip(it, it, it):
            # w times the image: n1 = c_p i^2 + w (u + k^2) + c_pr i k,
            # n2 = -(c_qp i^2 + x), n3 = c_rp i^2 + x with u = 2ij + j^2 and
            # x = c_inv u; the bound reads (|n1|+|n2|+|n3|) / w <= m s^2.
            pp = i * i
            u = (2 * i + j) * j
            x = c_inv * u
            s = abs(i) + abs(j) + abs(k)
            if (
                abs(c_p * pp + w * (u + k * k) + c_pr * i * k)
                + abs(c_qp * pp + x)
                + abs(c_rp * pp + x)
            ) * mk_den > mk_w * s * s:
                violations += 1
    return violations


def bound_check(d, sample_count: int = 100_000, seed: int = 0) -> BoundReport:
    """Check |map(a)|_1 <= M(d) |a|_1^2 on sample_count random integer triples.

    The triples are drawn uniformly from [-10^6, 10^6]^3 by a
    `random.Random(seed)`, word by word as successive `randrange` calls
    would draw them, in bulk chunks of bounded size.  The map is
    homogeneous of degree two, so each triple stands for its point on the
    unit l1 sphere: the check is carried out exactly, in integers, after
    clearing the coefficient denominators.
    """
    if sample_count < 0:
        raise ValueError("sample_count must be at least 0")
    param = LoopParameter.coerce(d)
    if not param.is_exact:
        raise ValueError("bound_check runs over exact rationals")
    dd = param.exact
    if dd < 2:
        raise ValueError("the quadratic bound is only valid for d >= 2")

    m_val = m_constant(dd)
    violations = _bound_violations(dd, m_val, sample_count, seed)

    extremes = {
        "b1": bound_expression(B1, dd),
        "b2": bound_expression(B2, dd),
        "b3": bound_expression(B3, dd),
    }
    neg = {
        "b1": bound_expression(B1.scale(Fraction(-1)), dd),
        "b2": bound_expression(B2.scale(Fraction(-1)), dd),
        "b3": bound_expression(B3.scale(Fraction(-1)), dd),
    }
    max_at_b1 = (
        extremes["b1"] == m_val
        and neg["b1"] == m_val
        and all(v <= m_val for v in extremes.values())
        and all(v <= m_val for v in neg.values())
    )
    return BoundReport(
        d=dd,
        samples=sample_count,
        violations=violations,
        extreme_values=extremes,
        max_attained_at_b1=max_at_b1,
    )
