"""Hypothesis property tests: series products, MacMahon tables and linear
solves against exact oracles, and the command line against random token
strings.  Skipped when Hypothesis is not installed, so the rest of the suite
runs without it."""

import contextlib
import io
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmf.cli import main  # noqa: E402
from qmf import exact  # noqa: E402
from qmf.exact import CycNumber, LinearSolver, format_cyc  # noqa: E402
from qmf.detect import macmahon  # noqa: E402
from qmf.qseries import QSeries  # noqa: E402

from test_detect import brute_macmahon, dp_macmahon  # noqa: E402
from test_exact import (  # noqa: E402
    FractionCyc, assert_canonical_as, assert_factor_matches_lists, int_solve, int_solver)
from test_qseries import cyc_product_oracle, fraction_product_oracle  # noqa: E402
from replay_oracle import ReplaySolver  # noqa: E402

BIG = 2**200

# signed rationals with numerators up to 2^200; zeros are common so that
# sparse operands take the schoolbook side of the crossover
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 2**40)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


@st.composite
def series_pairs(draw, elements, max_len):
    precision = draw(st.integers(1, max_len))
    xs = draw(st.lists(elements, max_size=precision))
    ys = draw(st.lists(elements, max_size=precision))
    return xs, ys, precision


def _padded(values, precision, zero):
    return list(values) + [zero] * (precision - len(values))


@settings(max_examples=40, deadline=None)
@given(series_pairs(rationals, 300))
def test_rational_products_match_schoolbook(pair):
    xs, ys, precision = pair
    got = QSeries(xs, precision) * QSeries(ys, precision)
    want = fraction_product_oracle(
        _padded(xs, precision, Fraction(0)), _padded(ys, precision, Fraction(0)), precision
    )
    assert [c.as_rational() for c in got.coefficients()] == want


def _cyclotomic(conductor):
    zeta = CycNumber.root_of_unity(conductor)
    return st.builds(
        lambda k, value: zeta**k * value,
        st.integers(0, conductor - 1),
        st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-BIG, BIG),
                                                  st.integers(1, 99))),
    )


@settings(max_examples=25, deadline=None)
@given(series_pairs(_cyclotomic(3), 60), series_pairs(_cyclotomic(4), 60))
def test_cyclotomic_products_match_schoolbook(pair3, pair4):
    # the conductor-3 and conductor-4 fields of test_conductor_tracking
    xs, _, p3 = pair3
    ys, _, p4 = pair4
    precision = min(p3, p4)
    xs, ys = xs[:precision], ys[:precision]
    got = QSeries(xs, precision) * QSeries(ys, precision)
    want = cyc_product_oracle(
        _padded(xs, precision, CycNumber.zero()), _padded(ys, precision, CycNumber.zero()),
        precision,
    )
    assert all(got.coefficient(n) == want[n] for n in range(precision))


# a series over Q(zeta_M) for M in 1, 3, 4, 5, and a factor that is zero,
# rational, or cyclotomic of conductor 3, 4 or 5
scaled_series = st.sampled_from([1, 3, 4, 5]).flatmap(
    lambda M: st.lists(rationals if M == 1 else _cyclotomic(M), min_size=1, max_size=40)
)
factors = st.one_of(
    st.sampled_from([0, CycNumber.zero(), CycNumber.zero(5)]),
    rationals,
    st.integers(-BIG, -1),
    st.booleans(),
    st.builds(CycNumber.from_rational, rationals),
    *(_cyclotomic(M) for M in (3, 4, 5)),
)


@settings(max_examples=80, deadline=None)
@given(scaled_series, factors)
def test_scale_matches_coefficientwise_products(coeffs, factor):
    series = QSeries(coeffs)
    got = series.scale(factor)
    assert all(got.coefficient(n) == series.coefficient(n) * factor
               for n in range(series.precision))
    # canonical: a positive denominator sharing no factor with all numerators
    den, nums = got.numerators()
    assert den > 0 and math.gcd(den, *(x for t in nums for x in t)) == 1
    # a rational factor keeps the series' field
    if not isinstance(factor, CycNumber) or factor.conductor == 1:
        assert got.conductor == series.conductor


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(2, 150))
def test_macmahon_recurrence_matches_chain_oracles(a, precision):
    got = list(macmahon(a, precision).values)
    assert got == dp_macmahon(a, precision)[a]
    if precision <= 40:
        assert got == brute_macmahon(a, precision)


# atoms and symbols of the form language; newform[...] is left out because
# a random level and weight can start a derivation that takes minutes
TOKENS = [
    "E2", "Delta", "D", "U", "G", "E", "E2twist", "eta", "dilate", "foo",
    "(", ")", "[", "]", ",", ".", "^", "*", "+", "-", "/", "$", " ",
    "0", "1", "2", "3", "4", "12", "99999",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=25))
def test_random_forms_succeed_or_fail_with_one_line(tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["expand", "--form=" + "".join(tokens), "--prec", "5"])
    if rc == 0:
        assert out.getvalue().startswith("# qseries v1\n")
    else:
        assert rc == 1
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(("parse error", "error:")), lines[0]


# -- LinearSolver: the modular eliminator against the replay oracle --------

small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 2**40)),
)


@st.composite
def solver_cases(draw):
    """A rational matrix, built from `rank` random columns and combinations
    of them, and targets inside and (usually) outside its column span."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    column = st.lists(small_rationals, min_size=nrows, max_size=nrows)
    basis = draw(st.lists(column, min_size=rank, max_size=rank))
    columns = list(basis)
    while len(columns) < ncols:
        coeffs = draw(st.lists(small_rationals, min_size=rank, max_size=rank))
        combo = [sum((c * col[i] for c, col in zip(coeffs, basis)), Fraction(0))
                 for i in range(nrows)]
        columns.insert(draw(st.integers(0, len(columns))), combo)
    coeffs = draw(st.lists(small_rationals, min_size=ncols, max_size=ncols))
    inside = [sum((c * col[i] for c, col in zip(coeffs, columns)), Fraction(0))
              for i in range(nrows)]
    other = draw(column)
    rows = [[CycNumber.from_rational(v) for v in row] for row in zip(*columns)]
    targets = [[CycNumber.from_rational(v) for v in t] for t in (inside, other)]
    return rows, targets


def _keys(vector):
    return None if vector is None else [c.sort_key() for c in vector]


@settings(max_examples=60, deadline=None)
@given(solver_cases(), st.sampled_from([exact._MODULUS, 7, 101]))
def test_modular_solver_matches_replay(case, modulus):
    # a small modulus makes unlucky primes and long lifts common
    rows, targets = case
    with mock.patch.object(exact, "_MODULUS", modulus):
        solver = int_solver(list(zip(*rows)))
        got = [_keys(int_solve(solver, t)) for t in targets]
    oracle = ReplaySolver(rows)
    assert (solver.rank, solver.free_columns()) == (oracle.rank, oracle.free_columns())
    assert got == [_keys(oracle.solve(t)) for t in targets]
    assert got[0] is not None


@st.composite
def cyclotomic_solver_cases(draw):
    """Rows over Q(zeta_M), M in 3, 4, 5, 8, 12, built from `rank` random
    columns (entries rational or not, zeros common) and Q(zeta_M)
    combinations of them, and targets inside and (usually) outside the
    column span."""
    M = draw(st.sampled_from([3, 4, 5, 8, 12]))
    phi = exact.euler_phi(M)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(nrows, ncols)))
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    element = st.one_of(
        st.just(CycNumber.zero(M)),
        small.map(CycNumber.from_rational),
        st.lists(small, min_size=phi, max_size=phi).map(lambda c: CycNumber(M, c)))
    column = st.lists(element, min_size=nrows, max_size=nrows)
    basis = draw(st.lists(column, min_size=rank, max_size=rank))
    columns = list(basis)

    def combine(coeffs, cols):
        return [sum((c * col[i] for c, col in zip(coeffs, cols)), CycNumber.zero(M))
                for i in range(nrows)]

    while len(columns) < ncols:
        coeffs = draw(st.lists(element, min_size=rank, max_size=rank))
        columns.insert(draw(st.integers(0, len(columns))), combine(coeffs, basis))
    inside = combine(draw(st.lists(element, min_size=ncols, max_size=ncols)), columns)
    rows = [list(row) for row in zip(*columns)]
    return rows, [inside, draw(column)]


@settings(max_examples=60, deadline=None)
@given(cyclotomic_solver_cases(), st.sampled_from([exact._MODULUS, 15, 40]))
def test_cyclotomic_solver_matches_replay(case, modulus):
    # a small split prime makes unlucky primes and long lifts common
    rows, targets = case
    with mock.patch.object(exact, "_MODULUS", modulus):
        solver = LinearSolver(rows)
        got = [_keys(solver.solve(t)) for t in targets]
    oracle = ReplaySolver(rows)
    assert (solver.rank, solver.free_columns()) == (oracle.rank, oracle.free_columns())
    assert got == [_keys(oracle.solve(t)) for t in targets]
    assert got[0] is not None


@st.composite
def int_matrices(draw):
    """Int columns of a matrix up to 70 x 60 with signed entries up to
    2^200, some rows and columns zero, and some columns sums of two earlier
    ones (rank-deficient).  Hypothesis draws the shape and structure; a
    seeded generator fills in the entries, which would overrun its buffer."""
    ncols = draw(st.integers(1, 60))
    nrows = draw(st.integers(max(1, ncols - 3), 70))
    bits = draw(st.sampled_from([1, 3, 20, 61, 64, 199]))
    density = draw(st.sampled_from([0.3, 0.7, 1.0, 1.0]))
    zero_rows = min(nrows, draw(st.sampled_from([0, 0, 0, 1, 5, nrows])))
    zero_cols = draw(st.sampled_from([0, 0, 0, 0, 1, ncols]))
    dependent = draw(st.sampled_from([0, 0, 0, 1, ncols // 2]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = 2**bits

    def entry():
        return rng.randint(-top, top) if rng.random() < density else 0

    columns = [[entry() for _ in range(nrows)] for _ in range(ncols)]
    for j in rng.sample(range(1, ncols), min(dependent, ncols - 1)):
        a, b = columns[rng.randrange(j)], columns[rng.randrange(j)]
        columns[j] = [x + y for x, y in zip(a, b)]
    for i in rng.sample(range(nrows), zero_rows):
        for col in columns:
            col[i] = 0
    for j in rng.sample(range(ncols), zero_cols):
        columns[j] = [0] * nrows
    return columns, rng.random()


@settings(max_examples=80, deadline=None)
@given(int_matrices(), st.sampled_from([exact._MODULUS, 7, 101]))
def test_packed_factor_matches_the_list_factor(case, modulus):
    # the packed rows give the list-based factorisation exactly: None or
    # not, pivot rows, multipliers, upper rows, inverse diagonal and the
    # triangular solves on random right-hand sides
    columns, seed = case
    assert_factor_matches_lists(columns, modulus, random.Random(seed))


HUGE = 10**30
huge_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)
# a nonzero element of Q(zeta_M), M <= 12, dense or sparse, with numerators
# and denominators up to 10^30
cyclotomic_elements = st.sampled_from([2, 3, 4, 5, 8, 12]).flatmap(
    lambda M: st.lists(huge_rationals, min_size=exact.euler_phi(M),
                       max_size=exact.euler_phi(M)).map(lambda c: CycNumber(M, c))
).filter(bool)


@settings(max_examples=80, deadline=None)
@given(cyclotomic_elements, st.sampled_from([exact._MODULUS, 7, 101]))
def test_inverse_is_exact_under_any_prime(x, modulus):
    # a small modulus makes the singular-mod-p fallback and long lifts common
    with mock.patch.object(exact, "_MODULUS", modulus):
        y = x.inverse()
    assert y.conductor == x.conductor
    assert x * y == 1
    assert x**-3 * x**3 == 1


# conductors of the arithmetic check; pairs whose lcm has phi above 72 (5
# with 57, 40 with 57) are left out to keep the Fraction oracle quick
CYC_CONDUCTORS = [1, 2, 3, 4, 5, 12, 40, 57]


@st.composite
def cyclotomic_coords(draw, M):
    """phi(M) Fraction coordinates, dense or sparse: numerators up to 10^30
    over one shared denominator up to 10^30 times a small one of their own.
    (Dense Q(zeta_57) elements with independent 10^30 denominators take
    about 20 s each to invert on Python 3.11.7, one vCPU.)"""
    shared = draw(st.one_of(st.integers(1, 9), st.integers(1, HUGE)))
    numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-HUGE, HUGE))
    return [Fraction(draw(numerators), shared * draw(st.integers(1, 9)))
            for _ in range(exact.euler_phi(M))]


@st.composite
def cyclotomic_operands(draw):
    """Coordinates of an element of Q(zeta_Ma) and one of Q(zeta_Mb), and a
    rational."""
    conductors = st.tuples(st.sampled_from(CYC_CONDUCTORS), st.sampled_from(CYC_CONDUCTORS))
    Ma, Mb = draw(conductors.filter(lambda p: exact.euler_phi(math.lcm(*p)) <= 72))
    a, b = draw(cyclotomic_coords(Ma)), draw(cyclotomic_coords(Mb))
    return (Ma, a), (Mb, b), draw(huge_rationals)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_operands())
def test_cyclotomic_arithmetic_matches_the_fraction_oracle(operands):
    # every result is canonical and equals the Fraction-coordinate result
    (Ma, a), (Mb, b), q = operands
    x, y = CycNumber(Ma, a), CycNumber(Mb, b)
    ox, oy = FractionCyc(Ma, a), FractionCyc(Mb, b)
    M = math.lcm(Ma, Mb)
    for got, want in ((x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                      (-x, -ox), (x + q, ox + q), (q - x, -ox + q), (x * q, ox * q),
                      (x.embed(M), ox.embed(M)), (y.embed(2 * M), oy.embed(2 * M))):
        assert_canonical_as(got, want)
    assert (x == y) == (ox == oy) and (x == q) == (ox == q)
    assert x.sort_key() == ox.sort_key() and y.sort_key() == oy.sort_key()
    assert format_cyc(x) == ox.format() and format_cyc(y) == oy.format()
    if q:
        assert_canonical_as(x / q, ox * (1 / q))
    if y:
        inv = y.inverse()
        assert_canonical_as(inv, FractionCyc(inv.conductor, inv.coords))
        assert inv.conductor == Mb and oy * FractionCyc(Mb, inv.coords) == 1
        quotient = x / y
        assert_canonical_as(quotient, FractionCyc(quotient.conductor, quotient.coords))
        assert quotient.conductor == M and oy * FractionCyc(M, quotient.coords) == ox
