"""Renormalization dynamics: exact values, certificates, scans, bounds."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from oracles import (
    fraction_orbit,
    listed_square_forms,
    randrange_bound_violations,
    stepping_exponent,
)

from treefrac import renorm
from treefrac.rationals import coprime_fraction
from treefrac.renorm import (
    B1,
    B2,
    B3,
    _BOUND_CHUNK,
    Certificate,
    CertificateFailure,
    LoopParameter,
    PrecisionError,
    Q4Vector,
    _bound_values,
    _bound_violations,
    bound_check,
    bound_expression,
    compare_square_forms,
    decay_profile,
    find_certificate,
    iterate_norms,
    m_constant,
    renorm_map,
    scan,
    upper_decimal,
)

F = Fraction


def rand_vec(rng, span=8):
    return Q4Vector(*(F(rng.randrange(-span, span + 1), rng.randrange(1, 9)) for _ in range(3)))


# ------------------------------------------------------------- the map


def test_b1_image_at_d3():
    out = renorm_map(B1, 3)
    assert (out.p, out.q, out.r) == (F(1, 4), F(-1, 8), F(3, 8))


def test_b3_maps_to_b1_for_any_d():
    for d in (F(2), F(3), F(9, 4), F(17, 5)):
        out = renorm_map(B3, d)
        assert (out.p, out.q, out.r) == (1, 0, 0)


def test_zero_maps_to_zero():
    out = renorm_map(Q4Vector.zero(), 3)
    assert (out.p, out.q, out.r) == (0, 0, 0)


def test_b1_image_at_d2():
    out = renorm_map(B1, 2)
    assert (out.p, out.q, out.r) == (1, -1, 1)


def test_homogeneity():
    rng = random.Random(51)
    for _ in range(30):
        a = rand_vec(rng)
        lam = F(rng.randrange(-6, 7), rng.randrange(1, 5))
        lhs = renorm_map(a.scale(lam), 3)
        rhs = renorm_map(a, 3).scale(lam * lam)
        assert (lhs.p, lhs.q, lhs.r) == (rhs.p, rhs.q, rhs.r)


def test_d_must_exceed_one():
    with pytest.raises(ValueError):
        renorm_map(B1, 1)


# ------------------------------------------------------------- bilinear


def polar(x, y, d):
    """The polarization (R(x+y) - R(x) - R(y)) / 2 of the map R, as (p, q, r)."""
    images = renorm_map(x + y, d), renorm_map(x, d), renorm_map(y, d)
    return tuple((s - u - v) / 2 for s, u, v in zip(*((w.p, w.q, w.r) for w in images)))


def test_bilinear_diagonal_is_the_map():
    rng = random.Random(52)
    for d in (F(3), F(9, 4)):
        for _ in range(20):
            a = rand_vec(rng)
            sq = renorm_map(a, d)
            assert polar(a, a, d) == (sq.p, sq.q, sq.r)


def test_bilinear_is_symmetric_and_kills_zero():
    rng = random.Random(53)
    for _ in range(20):
        x, y = rand_vec(rng), rand_vec(rng)
        assert polar(x, y, 3) == polar(y, x, 3)
    assert polar(rand_vec(rng), Q4Vector.zero(), 3) == (0, 0, 0)


def test_bilinear_b2_b3_at_d3():
    # Polarization arithmetic: B(b2, b3) has no square terms, only the
    # cross terms of the raw polynomial, which vanish for (q, r) pairs.
    assert polar(B2, B3, 3) == (0, 0, 0)


# ------------------------------------------------------------- M and bound


def test_m_constant_examples():
    assert m_constant(3) == F(15, 4)
    assert m_constant(2) == 3
    assert m_constant(F(9, 4)) == F(447, 125)
    assert abs(m_constant(10**6) - 3) < F(1, 10**5)


def test_bound_expression_extremes():
    for d in (F(2), F(9, 4), F(3), F(4)):
        m_val = m_constant(d)
        assert bound_expression(B1, d) == m_val
        assert bound_expression(B2, d) == (d + 1) / (d - 1)
        assert bound_expression(B3, d) == 1


def test_bound_check_small_run():
    report = bound_check(3, sample_count=2000, seed=1)
    assert report.ok
    assert report.violations == 0
    assert report.extreme_values["b1"] == F(15, 4)
    with pytest.raises(ValueError):
        bound_check(F(3, 2))
    with pytest.raises(ValueError, match="exact rationals"):
        bound_check(LoopParameter.cosine(7, "minus"))
    with pytest.raises(ValueError, match="sample_count must be at least 0"):
        bound_check(3, -5)
    assert bound_check(3, 0).samples == 0


BOUND_COUNTS = (0, 1, _BOUND_CHUNK - 1, _BOUND_CHUNK, _BOUND_CHUNK + 1, 3 * _BOUND_CHUNK + 7)


def test_bound_violations_match_the_randrange_loop():
    # Scaling M down by 9/10 and 1/2 makes some counts nonzero.
    nonzero = 0
    for d in (F(9, 4), F(3), F(4), F(17, 8), F(201, 100), F(5)):
        for scale in (F(1), F(9, 10), F(1, 2)):
            m = m_constant(d) * scale
            for count in BOUND_COUNTS:
                expected = randrange_bound_violations(d, m, count, 11)
                assert _bound_violations(d, m, count, 11) == expected
                nonzero += expected > 0
    assert nonzero >= 10


@pytest.mark.parametrize("seed", [0, 1, 17, 2**70])
def test_bound_values_are_successive_randrange_calls(seed):
    # Guards the word order of getrandbits that the bulk draw relies on.
    for count in BOUND_COUNTS:
        bulk, calls = random.Random(seed), random.Random(seed)
        chunks = list(_bound_values(bulk, count))
        assert all(len(c) <= 3 * _BOUND_CHUNK for c in chunks)
        values = [v for c in chunks for v in c]
        assert values == [calls.randrange(-(10**6), 10**6 + 1) for _ in range(3 * count)]
        assert bulk.getstate() == calls.getstate()


def test_norm_of_b1_image():
    assert renorm_map(B1, 3).l1() == F(3, 4)
    assert renorm_map(B3, 2).l1() == 1


# ------------------------------------------------------------- iteration


def test_iterate_norms_exact_at_d3():
    norms = iterate_norms(B1, 3, 2)
    assert norms == [(1, F(3, 4)), (2, F(7, 32))]
    x2 = renorm_map(renorm_map(B1, 3), 3)
    assert (x2.p, x2.q, x2.r) == (F(13, 64), F(1, 64), F(0))


def test_iterate_norms_zero_orbit():
    assert iterate_norms(Q4Vector.zero(), 3, 3) == [(1, 0), (2, 0), (3, 0)]


def test_iterate_norms_b3_shifts_the_b1_orbit():
    from_b3 = iterate_norms(B3, 3, 3)
    from_b1 = iterate_norms(B1, 3, 2)
    assert from_b3[0] == (1, 1)
    assert [k for _, k in from_b3[1:]] == [k for _, k in from_b1]


def test_iterate_norms_is_deterministic():
    a = iterate_norms(B1, F(9, 4), 6)
    b = iterate_norms(B1, F(9, 4), 6)
    assert a == b


def test_precision_guard_raises_instead_of_rounding():
    with pytest.raises(PrecisionError):
        iterate_norms(B1, F(201, 100), 40, max_bits=64)


ORBIT_STARTS = {
    "b1": B1,
    "b3": B3,
    "zero": Q4Vector.zero(),
    "mixed": Q4Vector(F(-3, 7), F(5, 11), F(2, 9)),
    # Denominators sharing the primes 2, 3, 5 and 7 with the coefficient
    # denominator L of several d below, and an integer start.
    "shares_l": Q4Vector(F(1, 6), F(-1, 35), F(1, 4)),
    "integer": Q4Vector(F(2), F(-5), F(0)),
}

# Composite L (13/7, 37/7, 71/35, 121/60), L = 1 (d = 2) and prime powers.
ORBIT_DS = [F(3), F(9, 4), F(17, 8), F(201, 100), F(7, 2), F(5), F(2), F(13, 7), F(37, 7)]
ORBIT_DS += [F(71, 35), F(121, 60), F(257, 128), F(4), F(11, 3), F(5, 2), F(33, 16), F(6)]


@pytest.mark.parametrize("start", sorted(ORBIT_STARTS))
@pytest.mark.parametrize("d", ORBIT_DS)
def test_integer_orbit_matches_fraction_oracle(d, start):
    x0 = ORBIT_STARTS[start]
    norms = iterate_norms(x0, d, 9)
    assert norms == fraction_orbit(x0, d, 9)
    for _, k in norms:
        assert math.gcd(k.numerator, k.denominator) == 1 and k.denominator > 0


def test_coprime_fraction_equals_the_public_constructor():
    rng = random.Random(56)
    pairs = [(0, 1), (1, 1), (-1, 1), (7, 32), (-105, 128), (2**200 + 1, 3**90)]
    while len(pairs) < 60:
        n, d = rng.randrange(-(2**80), 2**80), rng.randrange(1, 2**80)
        if math.gcd(n, d) == 1:
            pairs.append((n, d))
    for n, d in pairs:
        made = coprime_fraction(n, d)
        assert type(made) is F
        assert (made.numerator, made.denominator) == (n, d)
        assert made == F(n, d) and hash(made) == hash(F(n, d)) and str(made) == str(F(n, d))


def test_strip_content_leaves_no_common_prime_of_the_base():
    assert renorm._strip_content(12, 0, 0, 0, 2**10 * 3**4) == (0, 0, 0, 1)
    assert renorm._strip_content(12, -18, 6, 160) == (-9, 3, 80)
    assert renorm._strip_content(1, 8, 12) == (8, 12)
    # 7 is no prime of the base, so it stays.
    assert renorm._strip_content(10, 7 * 2**40, 7 * 10**9) == (7 * 2**31, 7 * 5**9)


def test_zero_orbit_stays_small_past_the_guard():
    # The shared denominator of the zero orbit grows like L^(2^n) until
    # the common factor is divided out; the norms stay 0 throughout.
    norms = iterate_norms(Q4Vector.zero(), 3, 24, max_bits=256)
    assert [k for _, k in norms] == [0] * 24


@pytest.mark.parametrize("max_bits", [64, 256, 4096])
@pytest.mark.parametrize("d", [F(201, 100), F(17, 8)])
def test_precision_guard_trips_at_the_oracle_step(d, max_bits):
    rows = fraction_orbit(B1, d, 40, max_bits)
    tripped = len(rows) + 1
    assert 1 < tripped <= 40
    assert iterate_norms(B1, d, len(rows), max_bits=max_bits) == rows
    reached = fraction_orbit(B1, d, tripped)[-1][1]
    bits = max(reached.numerator.bit_length(), reached.denominator.bit_length())
    message = f"exact norm at step {tripped} has {bits} bits, past the {max_bits}-bit guard"
    with pytest.raises(PrecisionError) as err:
        iterate_norms(B1, d, tripped, max_bits=max_bits)
    assert str(err.value) == message
    with pytest.raises(PrecisionError) as err:
        decay_profile(d, tripped, max_bits=max_bits)
    assert str(err.value) == message


def test_precision_guard_at_the_default_bits():
    with pytest.raises(PrecisionError) as err:
        iterate_norms(B1, "201/100", 40)
    assert str(err.value) == "exact norm at step 17 has 1745404 bits, past the 1048576-bit guard"


# ------------------------------------------------------------- certificates


def test_certificate_at_d3():
    cert = find_certificate(3)
    assert isinstance(cert, Certificate)
    assert cert.n == 2
    assert cert.norm_bound == F(7, 32)
    assert cert.m_bound == F(15, 4)
    assert cert.product == F(105, 128)
    assert cert.exact


def test_certificate_fails_at_d2():
    out = find_certificate(2, n_max=64)
    assert isinstance(out, CertificateFailure)
    # The orbit of b1 at d = 2 is periodic: norms alternate 3, 1.
    norms = iterate_norms(B1, 2, 6)
    assert [k for _, k in norms] == [3, 1, 3, 1, 3, 1]
    assert out.best_product == 3  # M = 3, best K = 1


def test_certificate_fails_below_two():
    out = find_certificate(LoopParameter.cosine(5, "minus"))
    assert isinstance(out, CertificateFailure)
    assert "d >= 2" in out.reason


def test_certificate_with_small_nmax_reports_best_product():
    out = find_certificate(3, n_max=1)
    assert isinstance(out, CertificateFailure)
    assert out.best_n == 1
    assert out.best_product == F(45, 16)


def test_certificate_soundness_downstream():
    cert = find_certificate(3)
    m_val = m_constant(3)
    norms = [k for _, k in iterate_norms(B1, 3, cert.n + 10)]
    for a, b in zip(norms[cert.n - 1 :], norms[cert.n :]):
        assert b < a
        assert b <= m_val * a * a


def test_interval_certificate_minus_7():
    cert = find_certificate(LoopParameter.cosine(7, "minus"), digits=60)
    assert isinstance(cert, Certificate)
    assert not cert.exact
    assert cert.product < 1
    assert cert.n == 4


def test_interval_certificate_implies_higher_precision_one():
    lo = find_certificate(LoopParameter.cosine(9, "minus"), digits=30)
    hi = find_certificate(LoopParameter.cosine(9, "minus"), digits=120)
    assert isinstance(lo, Certificate) and isinstance(hi, Certificate)
    assert hi.n <= lo.n


# ------------------------------------------------------------- decay


def test_decay_profile_at_d3():
    rows = decay_profile(3, 9)
    by_n = {row.n: row for row in rows}
    for n in range(3, 9):
        assert by_n[n].log_ratio >= 1.9
    norms = [row.norm for row in rows]
    m_val = m_constant(3)
    for a, b in zip(norms[1:], norms[2:]):
        assert b <= m_val * a * a
        assert b < a


@pytest.mark.parametrize("m, variant", [(9, "plus"), (7, "minus")])
def test_interval_decay_profile_past_float_underflow(m, variant):
    # From step 11 (12 for m=7 minus) the norm bounds lie below the
    # smallest positive float, so their logs come from the mpf directly.
    rows = decay_profile(LoopParameter.cosine(m, variant), 14)
    assert [row.n for row in rows] == list(range(1, 15))
    assert float(rows[-1].norm) == 0.0
    for row in rows:
        exact_log = float(mpmath.log(mpmath.mpf(row.norm.b)))
        assert row.log_norm == pytest.approx(exact_log, rel=1e-12)
        if float(row.norm) > 0:  # unchanged where the float does not underflow
            assert row.log_norm == math.log(float(row.norm))
    for row in rows[9:-1]:
        assert 1.99 <= row.log_ratio <= 2.01


def test_decay_profile_requires_certificate():
    with pytest.raises(ValueError):
        decay_profile(2, 5)


def test_decay_profile_reads_past_steps_for_its_certificate():
    d = F(257, 128)
    assert find_certificate(d).n == 8
    rows = decay_profile(d, 3)
    assert [(r.n, r.norm) for r in rows] == fraction_orbit(B1, d, 3)
    assert rows[-1].log_ratio is None


def test_decay_profile_17_8_at_15_steps_matches_oracle():
    rows = decay_profile("17/8", 15)
    assert [(r.n, r.norm) for r in rows] == fraction_orbit(B1, F(17, 8), 15)
    for r in rows:
        assert r.log_norm == math.log(r.norm.numerator) - math.log(r.norm.denominator)


# ------------------------------------------------------------- printing


def test_decimal_exponent_matches_stepping_search():
    rng = random.Random(54)
    pairs = [(1, 1), (10, 1), (9, 1), (1, 10), (99, 1000), (10**40, 1), (10**40 - 1, 1)]
    for _ in range(200):
        e = rng.randrange(-700, 700)
        num, den = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        pairs.append((num * 10**e, den) if e >= 0 else (num, den * 10**-e))
        pairs.append((2 ** rng.randrange(0, 2300), 2 ** rng.randrange(0, 2300)))
    for num, den in pairs:
        assert renorm._decimal_exponent(num, den) == stepping_exponent(num, den), (num, den)


def test_upper_decimal_is_unchanged_by_the_exponent_estimate(monkeypatch):
    rng = random.Random(55)
    values = [F(1), F(-1), F(10), F(-1, 10), F(99999, 10**9), F(10**70 - 1), F(-(10**70) + 1)]
    for _ in range(60):
        e = rng.randrange(-400, 400)
        value = F(rng.randrange(1, 10**9), rng.randrange(1, 10**9)) * F(10) ** e
        values.append(value if rng.random() < 0.5 else -value)
    iv_rows = decay_profile(LoopParameter.cosine(9, "plus"), 14)
    values += [r.norm for r in iv_rows] + [-r.norm for r in iv_rows[::4]]
    values += [mpmath.iv.mpf(rng.randrange(1, 10**6)) / rng.randrange(1, 10**6) for _ in range(10)]
    digits = (1, 5, 30, 60)
    new = [upper_decimal(x, k) for x in values for k in digits]
    monkeypatch.setattr(renorm, "_decimal_exponent", stepping_exponent)
    assert new == [upper_decimal(x, k) for x in values for k in digits]


@pytest.mark.parametrize("digits", [0, -1])
def test_fewer_than_one_digit_is_refused(digits):
    # One digit or more is the domain of a printed bound and an enclosure;
    # at 0 a bound for 9/4 used to print as "0.0e+1".
    with pytest.raises(ValueError, match="digits must be at least 1"):
        upper_decimal(F(9, 4), digits)
    with pytest.raises(ValueError, match="digits must be at least 1"):
        upper_decimal(LoopParameter.cosine(7, "plus").interval(30), digits)
    with pytest.raises(ValueError, match="digits must be at least 1"):
        LoopParameter.cosine(7, "minus").interval(digits)
    with pytest.raises(ValueError, match="digits must be at least 1"):
        scan(7, 7, "minus", digits=digits)
    assert upper_decimal(F(9, 4), 1) == "3.0"


# ------------------------------------------------------------- square forms


def test_square_forms_report_at_d3():
    report = compare_square_forms(3, sample_count=1000, seed=2)
    assert report.b1_max_discrepancy == 0
    assert report.b2_corrected_max_discrepancy == 0
    assert report.b2_printed_max_discrepancy > 0
    assert report.b3_printed_max_discrepancy >= 1  # witness (0,0,1)


def test_square_forms_refuse_a_negative_count():
    with pytest.raises(ValueError, match="sample_count must be at least 0"):
        compare_square_forms(3, -3)
    assert compare_square_forms(3, 0).samples == 4  # the four fixed points


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("count", [0, 1, 1000])
@pytest.mark.parametrize("d", [F(3), F(9, 4), F(17, 8)])
def test_square_forms_match_the_listed_route(d, count, seed):
    assert compare_square_forms(d, count, seed) == listed_square_forms(d, count, seed)


def test_square_forms_memory_is_flat_in_the_sample_count():
    import tracemalloc

    peaks = []
    for count in (1000, 40_000):
        tracemalloc.start()
        try:
            compare_square_forms(3, count, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The former list of points held about 280 bytes a sample: 11 MiB here.
    assert peaks[1] <= peaks[0] + 32 * 1024, peaks


def test_square_forms_b1_identity_for_many_d():
    for d in (F(2), F(9, 4), F(4), F(17, 3)):
        report = compare_square_forms(d, sample_count=100, seed=3)
        assert report.b1_max_discrepancy == 0
        assert report.b2_corrected_max_discrepancy == 0


# ------------------------------------------------------------- scan


def test_scan_minus_endpoints():
    report = scan(5, 7, variant="minus", include_d3=True, n_max=64, digits=60)
    rows = {r.m: r for r in report.rows if r.m is not None}
    assert not rows[5].certified
    assert not rows[6].certified
    assert rows[6].d_label == "2"  # exact cosine value
    assert rows[7].certified
    d3 = [r for r in report.rows if r.m is None]
    assert len(d3) == 1 and d3[0].certified and d3[0].outcome.n == 2


def test_scan_verdict_identifies_minus():
    report = scan(5, 8, variant="both", n_max=64, digits=40)
    assert "minus" in report.verdict()
    assert "plus" not in report.verdict().replace("reproduces", "")
    plus_rows = report.variant_rows("plus")
    assert all(r.certified for r in plus_rows)  # plus also certifies at 5, 6


def test_scan_is_deterministic():
    a = scan(6, 8, variant="minus", digits=40)
    b = scan(6, 8, variant="minus", digits=40)
    assert [(r.m, r.d_label, r.certified) for r in a.rows] == [
        (r.m, r.d_label, r.certified) for r in b.rows
    ]


def test_scan_encloses_each_cosine_row_once(monkeypatch):
    calls = []
    enclose = LoopParameter.interval

    def counted(self, digits):
        calls.append((self.m, self.variant))
        return enclose(self, digits)

    expected = scan(5, 10, "both", True, digits=40)
    monkeypatch.setattr(LoopParameter, "interval", counted)
    report = scan(5, 10, "both", True, digits=40)
    # Twelve rows; m = 6 is exact in both variants, and so is the d = 3 row.
    assert sorted(calls) == sorted((m, v) for m in (5, 7, 8, 9, 10) for v in ("plus", "minus"))
    assert report == expected


def test_scan_row_count_for_the_full_sweep():
    report = scan(5, 20, variant="both", include_d3=True, n_max=64, digits=40)
    assert len(report.rows) == 33  # 16 per variant + d=3
