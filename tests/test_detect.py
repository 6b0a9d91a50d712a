"""MacMahon tables, G/f families, verdicts, censuses."""

import math
from fractions import Fraction

import pytest

import qmf.detect
from qmf.cli import eval_form
from qmf.scalars import factorize, is_prime, primes_upto
from qmf.qseries import EtaProduct, QSeries
from qmf.detect import (
    CensusReport,
    DetectReport,
    census,
    epsilon_bound,
    f_kl,
    g_series,
    macmahon,
    prime_detect_verdict,
    validate_census,
    validate_detect,
)
from qmf.quasimodular import InsufficientPrecisionError


def brute_macmahon(a, precision):
    """Weighted chain count straight from the nested-sum definition."""
    out = [0] * precision

    def rec(start, slots, total, weight):
        if slots == 0:
            out[total] += weight
            return
        for s in range(start, precision):
            if total + s >= precision:
                break
            m = 1
            while total + s * m < precision:
                rec(s + 1, slots - 1, total + s * m, weight * m)
                m += 1

    rec(1, a, 0, 1)
    return out


def dp_macmahon(a, precision):
    """Rows M_0 .. M_a below precision by the O(a * precision^2) chain DP.

    Sweeping the largest allowed part s upward, B_j accumulates
    B_{j-1} * q^s/(1-q^s)^2 with j descending so that B_{j-1} still only
    uses parts below s.  The squared denominator is two stride-s partial
    sum passes.
    """
    P = precision
    rows = [[0] * P for _ in range(a + 1)]
    rows[0][0] = 1
    for s in range(1, P):
        for j in range(a, 1, -1):
            src = rows[j - 1]
            start = (j - 1) * j // 2  # smallest sum a (j-1)-chain can reach
            if start + s >= P:
                continue
            tmp = src.copy()
            for n in range(max(s, start), P):
                tmp[n] += tmp[n - s]
            for n in range(max(s, start), P):
                tmp[n] += tmp[n - s]
            dst = rows[j]
            for n in range(start + s, P):
                dst[n] += tmp[n - s]
        # j = 1 reads the untouched delta at 0: its image is just T_s
        dst = rows[1]
        for m in range(1, (P - 1) // s + 1):
            dst[s * m] += m
    return rows


def coefficient_verdict(f, N, X):
    """The verdict read one CycNumber coefficient at a time."""
    validate_detect(N, X)
    if f.precision <= X:
        raise InsufficientPrecisionError(X + 1, f.precision, "input series")
    prime_set = set(primes_upto(X))
    vanishing = []
    nonvanishing = []
    for n in range(2, X + 1):
        zero = f.coefficient(n).is_zero()
        if n in prime_set and N % n:
            if not zero:
                vanishing.append(n)
        elif zero:
            nonvanishing.append(n)
    return DetectReport(N, X, vanishing, nonvanishing)


def coefficient_census(f, N, X, delta):
    """The census read one CycNumber coefficient at a time."""
    delta_fraction = validate_census(N, X, delta)
    if f.precision <= X:
        raise InsufficientPrecisionError(X + 1, f.precision, "input series")
    level_primes = set(factorize(N))
    zero_primes = []
    nonzero = 0
    eligible = 0
    for p in primes_upto(X):
        if p in level_primes:
            continue
        eligible += 1
        if f.coefficient(p).is_zero():
            zero_primes.append(p)
        else:
            nonzero += 1
    eps = epsilon_bound(X)
    try:
        log_power = float(delta_fraction) * math.log(eps)
    except OverflowError:
        log_power = math.inf
    bound = X / math.log(X) * math.exp(-log_power)
    return CensusReport(
        X, N, str(delta), zero_primes, nonzero, eligible, eps, bound
    )


def sigma(n, k=1):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


# ------------------------------------------------------------------ tables


def test_dp_matches_brute_force_chains():
    for a in (1, 2, 3):
        table = macmahon(a, 61)
        assert list(table.values) == brute_macmahon(a, 61)
    assert dp_macmahon(3, 61)[1:] == [brute_macmahon(a, 61) for a in (1, 2, 3)]


def test_recurrence_matches_dp_oracle():
    for a, row in enumerate(dp_macmahon(5, 1001)[1:], start=1):
        assert list(macmahon(a, 1001).values) == row
    assert list(macmahon(3, 2001).values) == dp_macmahon(3, 2001)[3]
    rows = dp_macmahon(12, 301)
    for a in range(6, 13):
        assert list(macmahon(a, 301).values) == rows[a]


def _spy_convolve(monkeypatch, perturb=False):
    calls = []
    real = qmf.detect._convolve

    def spy(x, y, precision):
        calls.append(precision)
        out = real(x, y, precision)
        if perturb:
            out[-1] += 1
        return out

    monkeypatch.setattr(qmf.detect, "_convolve", spy)
    return calls


def test_recurrence_costs_one_product_per_chain_step(monkeypatch):
    calls = _spy_convolve(monkeypatch)
    assert macmahon(13, 100).value(91) == 1  # the single chain 1 < ... < 13
    assert len(calls) == 12


def test_chain_longer_than_precision_is_zero_without_products(monkeypatch):
    calls = _spy_convolve(monkeypatch)
    assert macmahon(14, 105).values == (0,) * 105  # valuation 105 = precision
    assert calls == []
    assert macmahon(10**6, 100).values == (0,) * 100
    assert calls == []


def test_recurrence_remainder_raises(monkeypatch):
    _spy_convolve(monkeypatch, perturb=True)
    with pytest.raises(ArithmeticError, match="integrality"):
        macmahon(2, 50)


def test_m1_is_sigma1():
    table = macmahon(1, 501)
    assert all(table.value(n) == sigma(n) for n in range(1, 501))


def test_frozen_m2_values():
    table = macmahon(2, 12)
    assert table.value(2) == 0  # two distinct parts sum to at least 3
    assert table.value(3) == 1
    assert table.value(4) == 3
    assert table.value(5) == 9
    assert table.value(6) == 15


def test_minimal_chain_sum_region():
    table = macmahon(3, 40)
    assert all(table.value(n) == 0 for n in range(6))
    assert table.value(6) == 1  # the single chain 1 < 2 < 3


def test_table_bounds_and_validation():
    table = macmahon(1, 10)
    with pytest.raises(IndexError):
        table.value(10)
    with pytest.raises(ValueError):
        macmahon(0, 10)
    with pytest.raises(ValueError):
        macmahon(1, 1)


def macmahon_form(precision):
    """(D^2 - 3D + 2) U_1 - 8 U_2, whose coefficient at n >= 2 vanishes
    exactly at the primes (Craig-van Ittersum-Ono)."""
    u1, u2 = macmahon(1, precision).series(), macmahon(2, precision).series()
    return u1.apply_D(2) - u1.apply_D(1).scale(3) + u1.scale(2) - u2.scale(8)


def test_prime_test_worked_examples():
    form = macmahon_form(40)
    assert [form.coefficient(n).as_rational() for n in (2, 4, 5, 9, 31)] == [0, 18, 0, 192, 0]
    assert prime_detect_verdict(form, 1, 39).report_text() == "prime-detecting (n <= 39, level 1)"


def test_prime_identity_small_range():
    form = macmahon_form(301)
    for n in range(2, 301):
        assert (form.coefficient(n).as_rational() == 0) == is_prime(n)
    assert prime_detect_verdict(form, 1, 300).ok


def test_operator_and_table_paths_agree():
    # (D^2 - 3D + 2) U_1 - 8 U_2 against (n^2-3n+2)M_1(n) - 8M_2(n)
    m1 = macmahon(1, 150)
    m2 = macmahon(2, 150)
    combo = macmahon_form(150)
    for n in range(150):
        expected = (n * n - 3 * n + 2) * m1.value(n) - 8 * m2.value(n)
        assert combo.coefficient(n).as_rational() == expected


# ------------------------------------------------------------------ series


def test_g_series_level1_is_sigma():
    g = g_series(4, 1, 30)
    assert all(
        g.coefficient(n).as_rational() == sigma(n, 3) for n in range(1, 30)
    )


def test_g_series_gcd_filter():
    g = g_series(2, 2, 10)
    # n=4: of the divisors 1,2,4 only d=4 has an odd cofactor
    assert g.coefficient(4).as_rational() == 4
    assert g.coefficient(6).as_rational() == 2 + 6
    g4 = g_series(4, 2, 30)
    for p in (3, 5, 7, 11, 13):
        assert g4.coefficient(p).as_rational() == 1 + p ** 3


def test_g_series_validation():
    with pytest.raises(ValueError):
        g_series(3, 1, 10)
    with pytest.raises(ValueError):
        g_series(0, 1, 10)


def test_f13_values():
    f = f_kl(1, 3, 1, 40)
    assert f.coefficient(4).as_rational() == 90
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert f.coefficient(p).is_zero()
    for n in (4, 6, 8, 9, 10, 12):
        assert not f.coefficient(n).is_zero()


def test_f13_level2_keeps_its_level_primes():
    f = f_kl(1, 3, 2, 20)
    assert not f.coefficient(2).is_zero()
    assert f.coefficient(3).is_zero()


def test_f_kl_validation():
    with pytest.raises(ValueError):
        f_kl(2, 3, 1, 10)
    with pytest.raises(ValueError):
        f_kl(3, 1, 1, 10)
    with pytest.raises(ValueError):
        f_kl(1, 4, 1, 10)


# ---------------------------------------------------------------- verdicts


def test_detect_verdict_f13():
    for N in (1, 2):
        f = f_kl(1, 3, N, 202)
        report = prime_detect_verdict(f, N, 200)
        assert report.ok
        assert report.report_text() == (
            f"prime-detecting (n <= 200, level {N})"
        )


def test_detect_verdict_failures():
    delta = EtaProduct([(1, 24)]).expand(102)
    report = prime_detect_verdict(delta, 1, 100)
    assert not report.ok
    assert report.vanishing_failures[:3] == [2, 3, 5]
    assert report.nonvanishing_failures == []
    assert "not prime-detecting" in report.report_text()


def test_detect_verdict_precision_guard():
    f = f_kl(1, 3, 1, 50)
    with pytest.raises(InsufficientPrecisionError):
        prime_detect_verdict(f, 1, 50)


def test_level_guard():
    g = g_series(4, 1, 201)
    for level in (0, -3):
        with pytest.raises(ValueError, match="level must be positive"):
            prime_detect_verdict(g, level, 20)
        with pytest.raises(ValueError, match="level must be positive"):
            census(g, level, 200, "0.1")


def scan_inputs(precision):
    delta = EtaProduct([(1, 24)]).expand(precision)
    for N in (1, 2, 6):
        yield f"f_kl(1,3,{N})", f_kl(1, 3, N, precision), N
    yield "Delta", delta, 1
    for N in (1, 2):
        yield "dilate[2](Delta)", delta.dilate(2, precision), N
    yield "zero", QSeries.zero(precision), 1
    # conductor 4: a(2), a(3), a(7), ... have first coordinate 0 but are
    # nonzero, so the scan must read every power-basis coordinate
    series, _ = eval_form("E[4,5.1,1]", precision)
    assert series.conductor == 4
    assert series.coefficient(2) and not series.numerators()[1][0][2]
    yield "E[4,5.1,1]", series, 5


def test_scan_matches_the_coefficient_oracle():
    X = 300
    for name, f, N in scan_inputs(X + 1):
        got, want = prime_detect_verdict(f, N, X), coefficient_verdict(f, N, X)
        for field in DetectReport.__slots__:
            assert getattr(got, field) == getattr(want, field), (name, N, field)
        got, want = census(f, N, X, "0.05"), coefficient_census(f, N, X, "0.05")
        for field in CensusReport.__slots__:
            assert getattr(got, field) == getattr(want, field), (name, N, field)


# ----------------------------------------------------------------- census


def test_census_positivity():
    g = g_series(4, 1, 501)  # coefficients are positive divisor sums
    report = census(g, 1, 500, "0.1")
    assert report.zero_count == 0
    assert report.nonzero_density == 1
    assert report.hypothesis_met
    assert report.eligible_count == len(primes_upto(500))


def test_census_partition_identity_and_level_primes():
    f = f_kl(1, 3, 6, 301)
    report = census(f, 6, 300, Fraction(1, 10))
    primes = primes_upto(300)
    assert report.eligible_count == len(primes) - 2  # drops 2 and 3
    assert report.zero_count + report.nonzero_count == report.eligible_count
    assert report.zero_count == len(primes) - 2  # detection: all eligible vanish
    assert not report.hypothesis_met
    assert "hypothesis unmet" in report.report_text()


def test_census_dilated_delta():
    # at level 2 every scanned prime coefficient vanishes; at level 1 the
    # prime 2 carries tau(1) = 1 and meets the nonvanishing hypothesis
    delta2 = EtaProduct([(1, 24)]).expand(1001).dilate(2, 1001)
    at2 = census(delta2, 2, 1000, "0.05")
    assert at2.zero_count == at2.eligible_count == len(primes_upto(1000)) - 1
    assert not at2.hypothesis_met
    at1 = census(delta2, 1, 1000, "0.05")
    assert at1.nonzero_count == 1
    assert at1.zero_primes == [p for p in primes_upto(1000) if p != 2]
    assert at1.hypothesis_met


def test_census_report_text():
    delta2 = EtaProduct([(1, 24)]).expand(1001).dilate(2, 1001)
    report = census(delta2, 2, 1000, "0.05")
    lines = report.report_text().splitlines()
    assert lines[0] == "X=1000 N=2 delta=0.05"
    assert lines[1] == f"zeros: {report.zero_count}"
    assert lines[2].startswith("zero_list: 3 5 7 11")
    assert lines[2].endswith(f"... (+{report.zero_count - 100} more)")
    assert len(lines[2].split()) == 104  # tag + 100 primes + 3 marker tokens
    assert lines[3] == "nonzero_density: 0"
    assert lines[4].startswith("bound: ")
    assert lines[5].startswith("note: nonvanishing hypothesis unmet")


def test_census_guards():
    g = g_series(4, 1, 200)
    with pytest.raises(ValueError):
        census(g, 1, 99, "0.1")
    with pytest.raises(InsufficientPrecisionError):
        census(g, 1, 500, "0.1")
    with pytest.raises(ValueError):
        census(g, 1, 150, "-0.1")


def test_epsilon_value():
    X = 100000
    lx = math.log(X)
    expected = lx / (math.log(lx) ** 2 * math.log(math.log(lx)))
    assert abs(epsilon_bound(X) - expected) < 1e-12
    with pytest.raises(ValueError):
        epsilon_bound(99)
