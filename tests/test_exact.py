import contextlib
import inspect
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

from qmf import exact, scalars
from qmf.exact import (
    ConductorMismatchError,
    CycNumber,
    LinearSolver,
    bernoulli,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    is_prime,
    moebius,
    null_space,
    primes_upto,
    zeta_at_negative,
)
from qmf.quasimodular import assemble_basis
from replay_oracle import ReplaySolver


@pytest.mark.parametrize("module", [scalars, exact])
def test_each_half_of_the_scalar_split_stays_below_the_parser_token_doubling(module):
    # CPython 3.11's parser doubles its token array past 8192 tokens, so a
    # module past it costs every cold compile about 0.5 MB more; the parser
    # sees no comments and no non-logical newlines
    import tokenize

    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(module.__file__, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in skipped]
    assert len(tokens) < 8192


def test_scalar_names_of_exact_are_the_scalars_objects():
    assert set(scalars.__all__) <= set(exact.__all__)
    for name in scalars.__all__:
        assert getattr(exact, name) is getattr(scalars, name)


def test_elementary_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(25) == 20
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_is_deterministic_miller_rabin():
    primes = set(primes_upto(10**5))
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == sorted(primes)
    # Carmichael 561, the strong pseudoprime 3215031751 to bases 2, 3, 5
    # and 7, and the least strong pseudoprime to the first 12 prime bases
    assert not is_prime(561) and not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree phi(M), monic, and phi(105) has a coefficient outside {-1,0,1}
    poly105 = cyclotomic_polynomial(105)
    assert len(poly105) == euler_phi(105) + 1
    assert poly105[-1] == 1
    assert min(poly105) == -2


def test_roots_of_unity_reduce():
    z5 = CycNumber.root_of_unity(5)
    assert z5**5 == 1
    assert sum((z5**e for e in range(1, 5)), CycNumber.zero()) == -1
    # conductor 2 collapses to the rational -1
    assert CycNumber.root_of_unity(2).conductor == 1
    assert CycNumber.root_of_unity(2) == -1
    z12 = CycNumber.root_of_unity(12)
    assert z12**12 == 1
    assert z12**6 == -1


def test_embedding_example():
    # zeta_3 viewed inside Q(zeta_6): z^2 reduced mod z^2 - z + 1 is z - 1
    z3 = CycNumber.root_of_unity(3)
    image = z3.embed(6)
    assert image.conductor == 6
    assert image.coords == (Fraction(-1), Fraction(1))
    with pytest.raises(ConductorMismatchError):
        z3.embed(4)


def test_embedding_is_ring_homomorphism():
    rng = random.Random(20260823)
    z3 = CycNumber.root_of_unity(3)
    for _ in range(60):
        a = sum(
            (z3**e * Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for e in range(2)),
            CycNumber.zero(),
        )
        b = sum(
            (z3**e * Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for e in range(2)),
            CycNumber.zero(),
        )
        assert (a * b).embed(12) == a.embed(12) * b.embed(12)
        assert (a + b).embed(12) == a.embed(12) + b.embed(12)


def test_field_axioms_fuzz():
    rng = random.Random(77)
    z12 = CycNumber.root_of_unity(12)

    def rand_elt():
        return sum(
            (
                z12**e * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for e in range(4)
            ),
            CycNumber.zero(),
        )

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert (a / a) == 1


def test_inverse_example():
    z4 = CycNumber.root_of_unity(4)
    inv = (1 + z4).inverse()
    assert inv == (1 - z4) * Fraction(1, 2)


def random_cyc(rng, M, density=1.0, top=9):
    """A nonzero element of Q(zeta_M) with about density * phi(M) nonzero
    coordinates, numerators in [-top, top] and denominators in [1, top]."""
    coords = [Fraction(rng.randint(-top, top), rng.randint(1, top))
              if rng.random() < density else 0 for _ in range(euler_phi(M))]
    if not any(coords):
        coords[rng.randrange(len(coords))] = Fraction(rng.randint(1, top), rng.randint(1, top))
    return CycNumber(M, coords)


INVERSE_CONDUCTORS = [2, 3, 4, 5, 8, 12, 40, 57, 76, 280]


@pytest.mark.parametrize("M", INVERSE_CONDUCTORS)
def test_inverse_times_element_is_one(M):
    rng = random.Random(f"inverse-{M}")
    zeta = CycNumber.root_of_unity(M).embed(M)
    elements = [random_cyc(rng, M), random_cyc(rng, M, 0.1), zeta**(M - 1),
                (2 + zeta) * Fraction(-3, 7), CycNumber(M, [Fraction(5, 3)] + [0] * (euler_phi(M) - 1))]
    if M <= 12:
        elements += [random_cyc(rng, M, top=10**30) for _ in range(5)]
        elements += [random_cyc(rng, M, 0.5, top=10**30) for _ in range(5)]
    for x in elements:
        y = x.inverse()
        assert y.conductor == M
        assert x * y == 1
        assert (x * y).coords == CycNumber.one(M).coords


def test_division_and_negative_powers_invert():
    rng = random.Random("division")
    for M in (3, 5, 12, 40):
        x, y = random_cyc(rng, M), random_cyc(rng, M, 0.5)
        assert (x / y) * y == x
        assert x**-3 * x**3 == 1
        assert (x**-3).conductor == M


def test_zero_and_rational_inverses():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(5).inverse()
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero().inverse()
    assert CycNumber.from_rational(Fraction(-2, 3)).inverse() == Fraction(-3, 2)


def test_cyclotomic_inverse_is_one_certified_solve(monkeypatch):
    built, solves = [], []

    class Spy(LinearSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def solve(self, *args):
            solves.append(self._modular is not None)
            return super().solve(*args)

    monkeypatch.setattr(exact, "LinearSolver", Spy)
    x = CycNumber(5, [Fraction(1, 2), 2, 0, Fraction(-3, 4)])
    y = x.inverse()
    assert x * y == 1
    # one 1x1 solver over Q(zeta_5), [x] * y == [1], and one certified solve
    assert len(built) == 1 and solves == [True]
    (matrix,) = built[0]
    assert len(matrix) == len(matrix[0]) == 1 and matrix[0][0] is x
    # conductor 1 keeps the plain rational inverse
    CycNumber.from_rational(7).inverse()
    assert len(built) == 1


def test_dense_conductor_109_inverse():
    # Q(zeta_109), the field of 8.12's eigenlines, with every coordinate set
    rng = random.Random(109)
    x = CycNumber(109, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(108)])
    y = x.inverse()
    assert y.conductor == 109
    assert x * y == 1


@pytest.mark.parametrize("x, prime", [
    (CycNumber(5, [2, 1, 0, 0]), 11),               # 2 + zeta_5, norm Phi_5(-2) = 11
    (CycNumber(7, [3, 1, 0, 0, 0, 0]), 547),         # 3 + zeta_7, norm Phi_7(-3) = 547
    (CycNumber(12, [Fraction(3, 2), 0, 0, 1]), 13),  # (3 + 2i) / 2, norm 169/16
])
def test_unlucky_prime_inverse_moves_to_the_next_prime(monkeypatch, x, prime):
    # d*x, d the denominator of x, lies in a prime ideal above each prime
    # dividing its norm, so one root of Phi_M mod such a prime maps it to 0
    want = x.inverse()
    monkeypatch.setattr(exact, "_MODULUS", prime)
    with primes_tried() as tried:
        got = x.inverse()
    # the next prime p = 1 mod M does not divide the norm, so it certifies
    assert tried[0] == prime and len(tried) == 2
    assert got.conductor == x.conductor and got.coords == want.coords
    assert x * got == 1


def test_conductor_280_quadratic_inverse():
    # 3 + (5/7) sqrt(70) lies in the quadratic subfield Q(sqrt 70) of
    # Q(zeta_280), as 9.12's eigenvalues do: its inverse is the conjugate
    # over the norm, (3 - (5/7) sqrt(70)) / (9 - 250/7), and the product
    # holds in the Fraction-coordinate arithmetic
    from qmf.newforms import _sqrt_cyclotomic

    root = _sqrt_cyclotomic(Fraction(70))
    assert root.conductor == 280
    x = 3 + root * Fraction(5, 7)
    y = x.inverse()
    assert y == (3 - root * Fraction(5, 7)) * (1 / Fraction(9 * 7 - 250, 7))
    assert FractionCyc(280, x.coords) * FractionCyc(280, y.coords) == 1
    # once the tables of the conductor exist, the solve factors one LU, under
    # the first root of Phi_280; the pivot square under each of the other 95
    # roots is continued from it, with no LU set-up of its own
    with mock.patch.object(exact._LU, "__init__", autospec=True,
                           side_effect=exact._LU.__init__) as inits:
        again = x.inverse()
    assert inits.call_count == 1
    assert (again.den, again.nums) == (y.den, y.nums)


def test_mixed_conductor_arithmetic():
    z4 = CycNumber.root_of_unity(4)
    z3 = CycNumber.root_of_unity(3)
    prod = z4 * z3
    assert prod.conductor == 12
    assert prod == CycNumber.root_of_unity(12, 7)  # 7 = 3*(1) + 4*(1) mod 12 exponent mix
    assert (z4 + z3) - z3 == z4


# -- Fraction coordinates: the oracle for the int form ------------------------

def fraction_reduce(coeffs, M):
    """Reduce a polynomial in zeta_M with Fraction coefficients (low degree
    first) to the power basis."""
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs.pop()
        if c:
            # phi is monic: z^deg = -(phi[0] + ... + phi[deg-1] z^(deg-1))
            for j in range(deg):
                if phi[j]:
                    coeffs[i - deg + j] -= c * phi[j]
    return coeffs + [Fraction(0)] * (deg - len(coeffs))


class FractionCyc:
    """An element of Q(zeta_M) as a tuple of phi(M) Fraction power-basis
    coordinates, with the arithmetic CycNumber had before it stored one
    denominator and int coordinates: the oracle for that arithmetic.
    Inverses are checked through products, which this arithmetic makes."""

    def __init__(self, conductor, coords):
        self.conductor = conductor
        self.coords = tuple(map(Fraction, coords))
        assert len(self.coords) == euler_phi(conductor)

    def embed(self, target):
        if target % self.conductor:
            raise ConductorMismatchError(f"cannot embed {self.conductor} into {target}")
        step = target // self.conductor
        raw = [Fraction(0)] * ((len(self.coords) - 1) * step + 1)
        raw[::step] = self.coords
        return FractionCyc(target, fraction_reduce(raw, target))

    def _pair(self, other):
        if not isinstance(other, FractionCyc):
            other = FractionCyc(1, [other])
        M = math.lcm(self.conductor, other.conductor)
        return self.embed(M), other.embed(M)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyc(a.conductor, [x + y for x, y in zip(a.coords, b.coords)])

    def __neg__(self):
        return FractionCyc(self.conductor, [-x for x in self.coords])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self._pair(other)
        raw = [Fraction(0)] * (2 * len(a.coords) - 1)
        for i, x in enumerate(a.coords):
            for j, y in enumerate(b.coords):
                raw[i + j] += x * y
        return FractionCyc(a.conductor, fraction_reduce(raw, a.conductor))

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coords == b.coords

    def sort_key(self):
        return (self.conductor, self.coords)

    def format(self):
        return " ".join(str(c) for c in self.coords)


def assert_canonical_as(x, want):
    """x is a canonical CycNumber (den > 0, gcd(den, *nums) = 1) with the
    conductor and coordinates of the oracle value want."""
    assert type(x.den) is int and all(type(v) is int for v in x.nums)
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert x.conductor == want.conductor
    assert tuple(Fraction(v, x.den) for v in x.nums) == want.coords


def test_rationality_predicates():
    z6 = CycNumber.root_of_unity(6)
    x = z6 + z6**5  # zeta_6 + conjugate = 1
    assert x.is_rational()
    assert x.as_rational() == 1
    assert not z6.is_rational()


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(0)


def iterative_bernoulli(k_max):
    """B_0 .. B_k_max by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0,
    filled upward in one loop with B_m = 0 for odd m > 1: the oracle for
    the cached bernoulli."""
    table = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, k_max + 1):
        if m % 2:
            table.append(Fraction(0))
            continue
        acc = sum((math.comb(m + 1, j) * table[j] for j in range(m)), Fraction(0))
        table.append(-acc / (m + 1))
    return table


def test_bernoulli_matches_the_iterative_recurrence():
    table = iterative_bernoulli(400)
    for k in range(2, 401, 2):
        assert bernoulli(k) == table[k], k


def test_cold_bernoulli_recursion_stays_shallow():
    # each B_k reads B_2 .. B_{k-2} from the cache in increasing order, so
    # a cold B_200 needs a constant number of frames, not one per index
    want = bernoulli(200)
    bernoulli.cache_clear()
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    sys.setrecursionlimit(depth + 30)
    try:
        got = bernoulli(200)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_zeta_negative_values():
    assert zeta_at_negative(4) == Fraction(1, 120)
    assert zeta_at_negative(6) == Fraction(-1, 252)


def test_bernoulli_against_partial_sum_bound():
    # independent numeric check: zeta(k) = (2 pi)^k |B_k| / (2 k!) for even k
    for k in (4, 6, 12):
        partial = sum(n ** (-k) for n in range(1, 4000))
        predicted = (2 * math.pi) ** k * abs(bernoulli(k)) / (2 * math.factorial(k))
        assert abs(partial - predicted) < 1e-10


def test_linear_solver_rational():
    rows = [
        [CycNumber.from_rational(1), CycNumber.from_rational(2)],
        [CycNumber.from_rational(0), CycNumber.from_rational(1)],
        [CycNumber.from_rational(1), CycNumber.from_rational(3)],
    ]
    solver = LinearSolver(rows)
    assert solver.rank == 2
    sol = solver.solve(
        [CycNumber.from_rational(5), CycNumber.from_rational(2), CycNumber.from_rational(7)]
    )
    assert sol is not None
    assert [c.as_rational() for c in sol] == [Fraction(1), Fraction(2)]
    # inconsistent target is rejected, not least-squares'd
    assert solver.solve(
        [CycNumber.from_rational(5), CycNumber.from_rational(2), CycNumber.from_rational(8)]
    ) is None


def test_linear_solver_cyclotomic():
    z = CycNumber.root_of_unity(4)
    one = CycNumber.one()
    rows = [[one, z], [z, one]]
    solver = LinearSolver(rows)
    assert solver.rank == 2
    target = [one + 2 * z, z + 2 * one]
    sol = solver.solve(target)
    assert sol == [CycNumber.from_rational(1), CycNumber.from_rational(2)]


def test_linear_solver_rank_deficiency():
    one = CycNumber.from_rational(1)
    two = CycNumber.from_rational(2)
    solver = LinearSolver([[one, two], [one, two]])
    assert solver.rank == 1
    assert solver.free_columns() == [1]


# entries drawn per field: Q; Q(zeta_5); and a mix of Q, Q(zeta_3) and
# Q(zeta_4) entries, whose solver works in Q(zeta_12)
SOLVER_UNITS = {
    "rational": [CycNumber.one()],
    "cyclotomic": [CycNumber.root_of_unity(5, e) for e in range(4)],
    "mixed": [CycNumber.one(), CycNumber.root_of_unity(3), CycNumber.root_of_unity(4)],
}


def random_entry(rng, units):
    return rng.choice(units) * Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def random_columns(rng, units, nrows, ncols):
    return [[random_entry(rng, units) for _ in range(nrows)] for _ in range(ncols)]


def combine(columns, coeffs):
    return [
        sum((c * col[i] for c, col in zip(coeffs, columns)), CycNumber.zero())
        for i in range(len(columns[0]))
    ]


def exact_keys(vector):
    return None if vector is None else [c.sort_key() for c in vector]


def solver_paths(field):
    """(build, solve) of each way a solver takes columns of this field:
    CycNumber rows, and for rational columns also ints over a scale."""
    paths = [(lambda columns: LinearSolver([list(row) for row in zip(*columns)]),
              LinearSolver.solve)]
    if field == "rational":
        paths.append((int_solver, int_solve))
    return paths


def grow(columns, build, solve):
    """The columns a newform span picks from these, in order, and the solver
    of the picked ones: a nonzero column is picked when the solver of those
    picked before returns None for it, and the solver is then rebuilt."""
    picked, solver = [], None
    for col in columns:
        if all(c.is_zero() for c in col):
            continue
        if solver is None or solve(solver, col) is None:
            picked.append(col)
            solver = build(picked)
    return picked, solver


@pytest.mark.parametrize("field", sorted(SOLVER_UNITS))
def test_add_column_matches_batch_factorization(field):
    # adding independent columns one pick at a time gives the solver of all
    # of them at once
    rng = random.Random(f"grow-{field}")
    units = SOLVER_UNITS[field]
    columns = random_columns(rng, units, 7, 4)
    batch = LinearSolver([list(row) for row in zip(*columns)])
    coeffs = [random_entry(rng, units) for _ in columns]
    targets = [combine(columns, coeffs), random_columns(rng, units, 7, 1)[0]]
    for build, solve in solver_paths(field):
        picked, grown = grow(columns, build, solve)
        assert picked == columns
        assert (grown.ncols, grown.rank) == (batch.ncols, batch.rank) == (4, 4)
        assert grown.free_columns() == batch.free_columns() == []
        assert solve(grown, targets[0]) == coeffs
        for target in targets:
            assert exact_keys(solve(grown, target)) == exact_keys(batch.solve(target))


@pytest.mark.parametrize("field", sorted(SOLVER_UNITS))
def test_dependent_column_leaves_solver_unchanged(field):
    # solve maps a column in the span to its coefficients and returns None
    # for one outside, so a span skips a dependent or zero column and keeps
    # its solver; rational columns also go in as ints
    rng = random.Random(f"dependent-{field}")
    units = SOLVER_UNITS[field]
    zero = [CycNumber.zero()] * 6
    columns = random_columns(rng, units, 6, 3)
    coeffs = [units[-1], Fraction(-2), Fraction(1, 3)]
    dependent, outside = combine(columns, coeffs), random_columns(rng, units, 6, 1)[0]
    targets = [combine(columns, [random_entry(rng, units) for _ in columns]), outside]
    for build, solve in solver_paths(field):
        solver = build(columns)
        assert solver.rank == 3
        assert solve(solver, dependent) == coeffs
        assert solve(solver, outside) is None
        before = [exact_keys(solve(solver, t)) for t in targets]
        picked, grown = grow(columns + [dependent, zero], build, solve)
        assert picked == columns
        assert (grown.ncols, grown.rank) == (3, 3)
        assert [exact_keys(solve(grown, t)) for t in targets] == before
        picked, grown = grow(columns + [dependent, outside], build, solve)
        assert picked == columns + [outside]
        assert (grown.ncols, grown.rank) == (4, 4)
    solver = LinearSolver([list(row) for row in zip(*columns)])
    assert solver.solve(zero) == [0, 0, 0]
    with pytest.raises(ValueError):
        solver.solve([CycNumber.one()] * 5)
    if field == "rational":
        assert int_solver(columns)._modular is not None


@pytest.mark.parametrize("field", sorted(SOLVER_UNITS))
def test_null_space_basis(field):
    rng = random.Random(f"kernel-{field}")
    units = SOLVER_UNITS[field]
    z = units[-1]
    one, zero = CycNumber.one(), CycNumber.zero()
    c0, c1, c3 = random_columns(rng, units, 5, 3)
    columns = [
        c0,
        c1,
        combine([c0, c1], [one, z]),
        c3,
        combine([c3, c1], [Fraction(2), -one]),
        [zero] * 5,
    ]
    rows = [list(row) for row in zip(*columns)]
    solver = LinearSolver(rows)
    assert solver.rank == 3 and solver.free_columns() == [2, 4, 5]
    basis = kernel_basis(solver, rows)
    assert basis == kernel_basis(ReplaySolver(rows), rows)
    assert len(basis) == solver.ncols - solver.rank
    for free, v in zip(solver.free_columns(), basis):
        assert all(c.is_zero() for c in combine(columns, v))
        assert [v[f] for f in solver.free_columns()] == [
            one if f == free else zero for f in solver.free_columns()
        ]
    # the normalization makes the basis unique
    assert basis == [
        [-one, -z, one, zero, zero, zero],
        [zero, one, zero, -2 * one, one, zero],
        [zero, zero, zero, zero, zero, one],
    ]
    if field == "rational":
        # null_space takes the matrix as ints: scaling a row keeps the kernel
        ints = [[int(c.as_rational() * math.lcm(*(x.den for x in row))) for c in row]
                for row in rows]
        assert null_space(ints) == [[c.as_rational() for c in v] for v in basis]


def kernel_basis(solver, rows):
    """The null space basis of CycNumber rows from a solver: for each free
    column f, 1 there and minus f's coordinates on the pivot columns."""
    basis = []
    for free in solver.free_columns():
        v = solver.solve([-row[free] for row in rows])
        v[free] = CycNumber.one()
        basis.append(v)
    return basis


def test_null_space_of_an_integer_matrix_is_rational(monkeypatch):
    # a matrix of ints is factored as int columns and gives Fraction
    # vectors, the basis of the same matrix as CycNumber rows
    rng = random.Random("kernel-integers")
    c0, c1 = ([rng.randint(-9, 9) for _ in range(4)] for _ in range(2))
    columns = [c0, [2 * x for x in c0], c1, [0] * 4, [3 * x - y for x, y in zip(c0, c1)]]
    rows = [list(row) for row in zip(*columns)]
    built = []

    class Spy(LinearSolver):
        def __init__(self, matrix, scales=None):
            built.append(scales is not None)
            super().__init__(matrix, scales)

    monkeypatch.setattr(exact, "LinearSolver", Spy)
    basis = null_space(rows)
    assert built == [True]
    assert all(type(c) is Fraction for v in basis for c in v)
    cyclotomic_rows = [[CycNumber.from_rational(c) for c in row] for row in rows]
    assert basis == kernel_basis(ReplaySolver(cyclotomic_rows), cyclotomic_rows)
    assert basis == [[-2, 1, 0, 0, 0], [0, 0, 0, 1, 0], [-3, 0, 1, 0, 1]]


def test_solve_keeps_the_target_field_through_zero_entries():
    # a zero entry of Q(zeta_5) still lifts the rows combined with it into
    # that field, so the coordinates (and their printed slots) stay there
    one, zero = CycNumber.one(), CycNumber.zero()
    solver = LinearSolver([[one, zero], [one, one]])
    sol = solver.solve([CycNumber.zero(5), one])
    assert sol == [zero, one]
    assert [c.conductor for c in sol] == [5, 5]


# -- the modular path against the replay eliminator ------------------------

def integer_form(values):
    """(scale, ints) of rational values: scale is the lcm of the
    denominators and ints[i] == values[i] * scale."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def int_solver(columns):
    """The solver of rational CycNumber columns, as int columns with a
    scale each: the input the modular path takes."""
    scales, ints = zip(*(integer_form([c.as_rational() for c in col]) for col in columns))
    return LinearSolver(list(ints), list(scales))


def int_solve(solver, target):
    """solver.solve of a CycNumber target as int numerators over one scale,
    one sequence per power-basis coordinate of the lcm of its conductors."""
    M = math.lcm(*(c.conductor for c in target))
    width = euler_phi(M)
    scale, flat = integer_form([x for c in target for x in c.embed(M).coords])
    return solver.solve([flat[k::width] for k in range(width)], scale, M)


@contextlib.contextmanager
def primes_tried():
    """Records each prime a factorisation tries: the rank profile certifies
    at the last, and every one before it gave way to the next prime."""
    tried = []
    real = exact._DixonFactor.__init__

    def init(self, columns, scales, M, p, nrows):
        tried.append(p)
        real(self, columns, scales, M, p, nrows)

    with mock.patch.object(exact._DixonFactor, "__init__", init):
        yield tried


def rational_rows(rng, nrows, ncols, rank=None):
    """A random rational nrows x ncols matrix, of the given rank if set."""
    rank = min(nrows, ncols) if rank is None else rank
    units = SOLVER_UNITS["rational"]
    basis = random_columns(rng, units, nrows, rank)
    columns = list(basis)
    while len(columns) < ncols:
        coeffs = [random_entry(rng, units) for _ in basis]
        column = combine(basis, coeffs) if basis else [CycNumber.zero()] * nrows
        columns.insert(rng.randrange(len(columns) + 1), column)
    return [list(row) for row in zip(*columns)], columns


def assert_matches_replay(rows, targets, solver=None):
    """The int-column solver of rows (or solver) against the replay, on
    each target as ints and as CycNumbers respectively."""
    solver = int_solver(list(zip(*rows))) if solver is None else solver
    oracle = ReplaySolver(rows)
    assert (solver.ncols, solver.rank) == (oracle.ncols, oracle.rank)
    assert solver.free_columns() == oracle.free_columns()
    for target in targets:
        assert exact_keys(int_solve(solver, target)) == exact_keys(oracle.solve(target))
    return solver


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 4), (12, 7)])
def test_modular_path_matches_replay_on_full_rank_matrices(shape):
    rng = random.Random(f"modular-{shape}")
    rows, columns = rational_rows(rng, *shape)
    units = SOLVER_UNITS["rational"]
    inside = combine(columns, [random_entry(rng, units) for _ in columns])
    outside = random_columns(rng, units, shape[0], 1)[0]
    big = combine(columns, [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30))
                            for _ in columns])
    zero = [CycNumber.zero()] * shape[0]
    targets = [inside, outside, big, zero]
    with primes_tried() as tried:
        solver = int_solver(columns)
        got = [exact_keys(int_solve(solver, t)) for t in targets]
    # certified at the first prime
    assert tried == [exact._MODULUS]
    assert got[0] is not None and got[2] is not None
    assert_matches_replay(rows, targets, solver)
    assert solver.rank == shape[1] and solver.free_columns() == []
    if shape[0] > shape[1]:
        assert int_solve(solver, outside) is None


@pytest.mark.parametrize("shape,rank", [((6, 4), 2), ((5, 5), 4), ((3, 6), 3), ((4, 3), 0)])
def test_rank_deficient_and_wide_matrices_certify_their_rank_profile(shape, rank):
    # every free column is solved against the pivot columns before it and
    # checked exactly, so the rank profile mod p is the replay's
    rng = random.Random(f"deficient-{shape}")
    rows, columns = rational_rows(rng, *shape, rank=rank)
    units = SOLVER_UNITS["rational"]
    targets = [combine(columns, [random_entry(rng, units) for _ in columns]),
               random_columns(rng, units, shape[0], 1)[0]]
    with primes_tried() as tried:
        solver = int_solver(columns)
    assert tried == [exact._MODULUS]
    assert_matches_replay(rows, targets, solver)
    factor = solver._modular
    assert solver.rank == rank and sorted(factor.relations) == solver.free_columns()
    for free, (nums, den) in factor.relations.items():
        earlier = [c for c in factor.pivot_cols if c < free]
        relation = dict(zip(earlier, nums))
        assert combine(columns, [Fraction(relation.get(j, 0), den) for j in range(shape[1])]) \
            == columns[free]


def test_modular_solve_keeps_a_shared_target_conductor():
    # a rational matrix and a target of Q(zeta_5), zero entries included:
    # each power-basis coordinate is solved on its own and the coordinates
    # stay in Q(zeta_5), as the replay leaves them
    rng = random.Random("shared-conductor")
    rows, columns = rational_rows(rng, 8, 5)
    units = SOLVER_UNITS["cyclotomic"]
    coeffs = [random_entry(rng, units) for _ in columns]
    coeffs[1] = CycNumber.zero(5)
    target = [c if c else CycNumber.zero(5) for c in combine(columns, coeffs)]
    assert {c.conductor for c in target} == {5}
    outside = [random_entry(rng, units) for _ in range(8)]
    solver = assert_matches_replay(rows, [target, outside, [CycNumber.zero(5)] * 8])
    sol = int_solve(solver, target)
    assert sol == coeffs
    assert [c.conductor for c in sol] == [5] * 5
    assert solver._modular is not None


def test_unlucky_prime_moves_to_the_next_prime(monkeypatch):
    # full rank over Q, rank 1 mod 3: the free column fails its exact check
    # there, and the next prime certifies
    one = CycNumber.one()
    rows = [[one, one], [one, 4 * one], [one, 7 * one]]
    columns = list(zip(*rows))
    targets = [[2 * one, 5 * one, 8 * one], [one, 2 * one, 4 * one],
               [CycNumber.zero()] * 3]
    certified = int_solver(columns)
    monkeypatch.setattr(exact, "_MODULUS", 3)
    with primes_tried() as tried:
        solver = int_solver(columns)
    assert tried == [3, 2]
    assert_matches_replay(rows, targets, solver)
    assert (solver.rank, solver.free_columns()) == (certified.rank, certified.free_columns())
    for target in targets:
        assert exact_keys(int_solve(solver, target)) == exact_keys(int_solve(certified, target))
    assert int_solve(solver, targets[0]) == [one, one]
    assert int_solve(solver, targets[1]) is None


def test_mixed_conductor_target_against_a_cyclotomic_matrix():
    # a Q(zeta_4) matrix and targets with Q(zeta_3) entries: the solver
    # factors the matrix again over Q(zeta_12), and its coordinates are the
    # oracle's, in Q(zeta_12)
    rng = random.Random("mixed-target")
    units = [CycNumber.one(), CycNumber.root_of_unity(4)]
    columns = random_columns(rng, units, 6, 3)
    coeffs = [CycNumber.root_of_unity(3) * Fraction(rng.randint(1, 9), 4) - 1 for _ in columns]
    inside = combine(columns, coeffs)
    outside = [random_entry(rng, units) * CycNumber.root_of_unity(3) for _ in range(6)]
    rows = [list(row) for row in zip(*columns)]
    solver, oracle = LinearSolver(rows), ReplaySolver(rows)
    assert solver._conductor == 4 and {c.conductor for c in inside} == {12}
    for target in (inside, outside, [CycNumber.zero(3)] * 6):
        assert exact_keys(solver.solve(target)) == exact_keys(oracle.solve(target))
    assert solver.solve(inside) == coeffs
    assert [c.conductor for c in solver.solve(inside)] == [12] * 3
    assert solver.solve(outside) is None
    assert sorted(solver._factors) == [4, 12]


def test_small_prime_lifts_over_many_steps(monkeypatch):
    # with p = 10007 the coordinates below need many p-adic digits before
    # rational reconstruction recovers them
    monkeypatch.setattr(exact, "_MODULUS", 10007)
    rng = random.Random("many-steps")
    rows, columns = rational_rows(rng, 10, 6)
    coeffs = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))
              for _ in columns]
    target = combine(columns, coeffs)
    solver = assert_matches_replay(rows, [target])
    assert solver._modular is not None
    assert [c.as_rational() for c in int_solve(solver, target)] == coeffs
    target[-1] = target[-1] + 1
    assert int_solve(solver, target) is None


# -- integer columns and integer targets -------------------------------------

@pytest.mark.parametrize("shape,rank", [((9, 4), 4), ((6, 4), 2), ((3, 6), 3), ((5, 5), 5)])
def test_integer_columns_match_the_replay(shape, rank):
    # int columns certify exactly when the matrix has full column rank, and
    # every int-target solve agrees with the replay of the CycNumber rows
    rng = random.Random(f"integer-{shape}")
    rows, columns = rational_rows(rng, *shape, rank=rank)
    solver = int_solver(columns)
    oracle = ReplaySolver(rows)
    assert solver.rank == rank
    assert (solver.ncols, solver.rank, solver.free_columns()) == (
        oracle.ncols, oracle.rank, oracle.free_columns())
    units = SOLVER_UNITS["rational"]
    targets = [combine(columns, [random_entry(rng, units) for _ in columns]),
               random_columns(rng, units, shape[0], 1)[0], [CycNumber.zero()] * shape[0]]
    for target in targets:
        scale, b = integer_form([c.as_rational() for c in target])
        assert exact_keys(solver.solve([b], scale)) == exact_keys(oracle.solve(target))
        # int columns take int targets only, and do not grow
        with pytest.raises(TypeError):
            solver.solve(target)


def test_integer_target_of_one_conductor_keeps_it():
    # a Q(zeta_5) target as numerators over one scale, one sequence per
    # power-basis coordinate, on the modular path and on the replay
    rng = random.Random("integer-conductor")
    rows, columns = rational_rows(rng, 8, 5)
    units = SOLVER_UNITS["cyclotomic"]
    coeffs = [random_entry(rng, units) for _ in columns]
    target = [c if c else CycNumber.zero(5) for c in combine(columns, coeffs)]
    scale, flat = integer_form([x for c in target for x in c.coords])
    numerators = [flat[k::4] for k in range(4)]
    assert ReplaySolver(rows).solve(target) == coeffs
    for solver in (int_solver(columns), LinearSolver(rows)):
        assert solver.solve(numerators, scale, 5) == coeffs
        assert [c.conductor for c in solver.solve(numerators, scale, 5)] == [5] * 5
        with pytest.raises(ValueError):
            solver.solve([t[:-1] for t in numerators], scale, 5)


def spy_method(cls, name):
    """Patch cls.name with a mock that records calls and runs the original."""
    return mock.patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))


@contextlib.contextmanager
def spy_packs():
    """One mock that records every _pack call, from the eliminator in exact
    and from the signed packing in scalars, and runs the original."""
    packs = mock.Mock(wraps=scalars._pack)
    with mock.patch.object(exact, "_pack", packs), mock.patch.object(scalars, "_pack", packs):
        yield packs


def test_one_digit_lift_makes_one_pass_and_one_packed_check():
    # a one-digit lift: one forward and one back substitution mod p (one
    # _solve_mod_p, two 5-slot packs), one reconstruction, one packed check
    # over all rows (the first solve also packs the 5 columns, and the
    # check packs the 12-row target once), and no residual is formed for a
    # next digit
    rng = random.Random("dots")
    _, columns = rational_rows(rng, 12, 5)
    target = combine(columns, [Fraction(k, 3) for k in range(1, 6)])
    solver = int_solver(columns)
    with spy_method(exact._DixonFactor, "_solve_mod_p") as passes, \
            spy_method(exact._DixonFactor, "_mismatch") as checks, \
            spy_method(exact._DixonFactor, "_square_columns") as squares, \
            mock.patch.object(exact, "_reconstruct", wraps=exact._reconstruct) as tries, \
            spy_packs() as packs, \
            mock.patch.object(exact, "_unpack_signed", wraps=exact._unpack_signed) as unpacks:
        assert [c.as_rational() for c in int_solve(solver, target)] == [
            Fraction(k, 3) for k in range(1, 6)]
    assert (passes.call_count, tries.call_count, checks.call_count) == (1, 1, 1)
    assert sorted(len(call.args[0]) for call in packs.call_args_list) == [5, 5] + [12] * 6
    assert squares.call_count == unpacks.call_count == 0


def test_square_keeps_its_inverse_only_after_more_solves_than_pivots():
    # n solves of the whole pivot square build no inverse; the (n+1)-th
    # builds it once, by one substitution per unit vector, and itself and
    # every later solve read their digit off the inverse; solves of a
    # leading block (the free column relations) never count
    rng = random.Random("kept inverse")
    columns, x, image = int_system(rng, 9, 4)
    solver = LinearSolver(columns, [1] * 4)
    lu = solver._modular.lus[0]
    n = len(lu.inv_diag)
    scale, b = integer_form(image)
    solver._modular.solve([b], n - 1)
    for _ in range(n):
        assert [c.as_rational() for c in solver.solve([b], scale)] == x
    assert (lu.uses, lu.inverse_columns) == (n, None)
    with spy_method(exact._LU, "_substitute") as substitutions:
        assert [c.as_rational() for c in solver.solve([b], scale)] == x
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    assert [call.args[1] for call in substitutions.call_args_list] == units
    kept = lu.inverse_columns
    assert len(kept) == n
    with spy_method(exact._LU, "_substitute") as substitutions:
        for _ in range(3):
            assert [c.as_rational() for c in solver.solve([b], scale)] == x
    assert substitutions.call_count == 0 and lu.inverse_columns is kept


# -- the packed factorisation against the list-based one it replaced --------

def list_modular_factor(columns, p):
    """LU factorisation mod p of the int matrix with these columns, one
    Python-level product per entry, skipping each column with no pivot mod
    p: (pivot rows, pivot columns, multipliers, upper rows at the pivot
    columns, inverse diagonal)."""
    work = [[a % p for a in row] for row in zip(*columns)]
    unused = list(range(len(work)))
    multipliers = {i: [] for i in unused}
    pivot_rows, pivot_cols, lower, tails, inv_diag = [], [], [], [], []
    for j in range(len(columns)):
        pr = next((i for i in unused if work[i][j]), None)
        if pr is None:
            continue
        unused.remove(pr)
        pivot_rows.append(pr)
        pivot_cols.append(j)
        lower.append(multipliers.pop(pr))
        tail = work[pr][j + 1 :]
        tails.append(tail)
        inv = pow(work[pr][j], -1, p)
        inv_diag.append(inv)
        for i in unused:
            row = work[i]
            f = row[j] * inv % p
            multipliers[i].append(f)
            if f:
                row[j + 1 :] = [(a - f * b) % p for a, b in zip(row[j + 1 :], tail)]
    upper = [[tail[c - j - 1] for c in pivot_cols[k + 1 :]]
             for k, (j, tail) in enumerate(zip(pivot_cols, tails))]
    return pivot_rows, pivot_cols, lower, upper, inv_diag


def list_solve_mod_p(lower, upper, inv_diag, rhs, p):
    """pivot square * x = rhs (mod p) by list-based forward and back
    substitution on the factors of list_modular_factor."""
    c = []
    for row, v in zip(lower, rhs):
        c.append((v - sum(a * b for a, b in zip(row, c))) % p)
    x = [0] * len(c)
    for k in range(len(c) - 1, -1, -1):
        x[k] = (c[k] - sum(a * b for a, b in zip(upper[k], x[k + 1 :]))) * inv_diag[k] % p
    return x


def assert_factor_matches_lists(columns, p, rng, rhs_count=3):
    """The packed factorisation mod p equals the list-based one: pivot rows
    and columns, multipliers, upper rows, inverse diagonal, and the
    triangular solves on random right-hand sides."""
    got = exact._LU(list(zip(*columns)), len(columns), p)
    want = list_modular_factor(columns, p)
    assert (got.pivot_rows, got.pivot_cols, got.lower, got.inv_diag) == want[:3] + want[4:]
    for _ in range(rhs_count):
        rhs = [rng.randrange(p) for _ in want[0]]
        assert got.solve(rhs, len(rhs)) == list_solve_mod_p(*want[2:], rhs, p)


def level6_columns(rows):
    """(atom expansions, int columns, scales) of the level-6 weight-8 basis
    to the given depth."""
    series = [atom.expand(rows) for atom in assemble_basis(6, 8)]
    scales, nums = zip(*(s.numerators() for s in series))
    return series, [list(t) for (t,) in nums], list(scales)


@pytest.mark.parametrize("p", [exact._MODULUS, 101, 7])
def test_packed_factor_matches_the_lists_on_the_level6_basis(p):
    _, columns, _ = level6_columns(92)
    assert_factor_matches_lists(columns, p, random.Random(p))


# -- the packed exact check ---------------------------------------------------

def int_system(rng, nrows, ncols):
    """A random int matrix (as columns) of full column rank mod p, and a
    rational vector x with its exact image."""
    columns = [[rng.randint(-50, 50) for _ in range(nrows)] for _ in range(ncols)]
    x = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(ncols)]
    image = [sum((c[i] * v for c, v in zip(columns, x)), Fraction(0)) for i in range(nrows)]
    return columns, x, image


def test_mismatch_tells_a_pivot_row_from_another_row():
    # A*y - d*b packed over all rows is zero only when every row holds, and
    # its pivot slots are zero exactly when the pivot rows hold
    rng = random.Random("mismatch")
    columns, x, image = int_system(rng, 9, 4)
    solver = LinearSolver(columns, [1] * 4)
    factor = solver._modular
    d = math.lcm(*(v.denominator for v in x))
    y = [int(v * d) for v in x]
    b = [int(v * d) for v in image]
    assert factor._mismatch(y, 1, [b])[0] == 0
    assert factor._mismatch([2 * v for v in y], 2, [b])[0] == 0
    for row in factor.pivot_rows + factor.others:
        for delta in (1, -1, 2**70, -(2**200)):
            off = list(b)
            off[row] += delta
            mismatch, pivot_mask = factor._mismatch(y, 1, [off])
            assert mismatch != 0
            assert bool(mismatch & pivot_mask) == (row in factor.pivot_rows)


def test_target_off_in_one_other_row_is_outside_the_span():
    # the pivot rows give x back after one digit, and the one failing other
    # row certifies that the target is outside the span
    rng = random.Random("off-other")
    columns, x, image = int_system(rng, 10, 4)
    solver = LinearSolver(columns, [1] * 4)
    factor = solver._modular
    assert factor.others
    scale, b = integer_form(image)
    assert [c.as_rational() for c in solver.solve([b], scale)] == x
    for row in factor.others:
        for delta in (1, -(3**90)):
            off = list(b)
            off[row] += delta
            with spy_method(exact._DixonFactor, "_solve_mod_p") as passes:
                assert solver.solve([off], scale) is None
            assert passes.call_count == 1


def test_target_off_in_one_pivot_row():
    # the pivot rows alone then have another solution, of larger height: a
    # check on the way can fail in a pivot row, and lifting goes on; the last
    # check fails only in other rows (outside the span) or, for a square
    # matrix, passes with the answer the replay gives
    rng = random.Random("off-pivot")
    real_mismatch = exact._DixonFactor._mismatch
    pivot_failures = 0
    for nrows in (10, 5):
        columns, x, image = int_system(rng, nrows, 5)
        solver = LinearSolver(columns, [1] * 5)
        factor = solver._modular
        rows = [[CycNumber.from_rational(c[i]) for c in columns] for i in range(nrows)]
        oracle = ReplaySolver(rows)
        scale, b = integer_form(image)
        for row in factor.pivot_rows:
            off = list(b)
            off[row] += 1
            results = []

            def recording(self, *args):
                results.append(real_mismatch(self, *args))
                return results[-1]

            with mock.patch.object(exact._DixonFactor, "_mismatch", recording):
                got = solver.solve([off], scale)
            want = oracle.solve([CycNumber.from_rational(Fraction(v, scale)) for v in off])
            assert exact_keys(got) == exact_keys(want)
            assert (got is None) == bool(factor.others)
            mismatch, pivot_mask = results[-1]
            assert bool(mismatch) == bool(factor.others) and not mismatch & pivot_mask
            pivot_failures += sum(bool(m & mask) for m, mask in results[:-1])
    assert pivot_failures


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 127, 128])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_holds_targets_at_slot_width_edges(bits, sign):
    # one pivot row over one zero row; targets of magnitude 2^bits - 1,
    # 2^bits and 2^bits + 1 land next to the byte edges of the signed
    # slots.  Each solver is fresh, so no earlier solve has widened its
    # packing.
    for value in (sign * (2**bits - 1), sign * 2**bits, sign * (2**bits + 1)):
        for target, scale, want in (([0, value], 1, None), ([value, 0], 1, value),
                                    ([value, value], 1, None), ([value, 0], value, 1)):
            solver = LinearSolver([[1, 0]], [1])
            got = solver.solve([target], scale)
            assert got == (None if want is None else [CycNumber.from_rational(want)])


def test_large_height_solve_repacks_wider_and_keeps_the_narrow():
    # sum_j 3^(40+j) / (7^(20+j) + 1) * atom_j at level 6, weight 8: its y
    # and d*b overflow the packing the small solves left by far, so the
    # check packs wider for itself and keeps the narrow packing, and the
    # small solves after the large one repack no column.  A solve needing
    # at most twice the kept width replaces the kept packing instead.
    series, columns, scales = level6_columns(92)
    solver = LinearSolver(columns, scales)
    factor = solver._modular
    small = series[0] * Fraction(-3, 4) + series[7] * 5
    den, nums = small.numerators()
    solver.solve([list(nums[0])], den)
    first = factor.packing[0]
    small = small * 2**40
    den, nums = small.numerators()
    small_coords = solver.solve([list(nums[0])], den)
    narrow = factor.packing[0]
    assert first < narrow <= 2 * first
    want = [Fraction(3 ** (40 + j), 7 ** (20 + j) + 1) for j in range(len(series))]
    big = sum((s * c for s, c in zip(series[1:], want[1:])), series[0] * want[0])
    den, nums = big.numerators()
    with spy_packs() as packs:
        assert [c.as_rational() for c in solver.solve([list(nums[0])], den)] == want
    # every packing over all 92 rows: the 55 columns and the target
    all_rows = [call.args[1] for call in packs.call_args_list if len(call.args[0]) == 92]
    assert len(all_rows) > len(columns)
    assert max(all_rows) > 2 * narrow
    assert factor.packing[0] == narrow
    off = list(nums[0])
    off[factor.others[0]] += 1
    assert solver.solve([off], den) is None
    assert factor.packing[0] == narrow
    den, nums = small.numerators()
    with spy_packs() as packs, \
            spy_method(exact._DixonFactor, "_mismatch") as checks:
        assert solver.solve([list(nums[0])], den) == small_coords
    # each check packs the 92-row target alone
    assert [len(call.args[0]) for call in packs.call_args_list].count(92) == checks.call_count
    assert factor.packing[0] == narrow


def test_reconstruction_runs_at_doubling_digit_counts(monkeypatch):
    # p = 10007 and coordinates near 10^30 / 10^25 need many digits; the
    # reconstruction is tried at 1, 2, 4, ... digits and at the Hadamard
    # bound, not after every digit
    p = 10007
    monkeypatch.setattr(exact, "_MODULUS", p)
    rng = random.Random("doubling")
    columns = [[rng.randint(-50, 50) for _ in range(10)] for _ in range(6)]
    x = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)) for _ in range(6)]
    scale, b = integer_form(
        [sum((c[i] * v for c, v in zip(columns, x)), Fraction(0)) for i in range(10)])
    solver = LinearSolver(columns, [1] * 6)
    # the digits needed: the first count at which the p-adic expansion of
    # the pivot solution scale*x reconstructs to it
    pivot_solution = [v * scale for v in x]
    needed, modulus = 1, p
    while True:
        residues = [v.numerator * pow(v.denominator, -1, modulus) % modulus
                    for v in pivot_solution]
        got = exact._reconstruct(residues, modulus)
        if got is not None and [Fraction(a, got[1]) for a in got[0]] == pivot_solution:
            break
        needed, modulus = needed + 1, modulus * p
    assert needed >= 16
    with mock.patch.object(exact, "_reconstruct", wraps=exact._reconstruct) as tries:
        assert [c.as_rational() for c in solver.solve([b], scale)] == x
    assert tries.call_count <= math.ceil(math.log2(needed)) + 2
