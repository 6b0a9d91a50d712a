"""Dimensions, the newform catalog, derivation, ingestion, verification."""
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import qmf
import qmf.newforms as nf
from qmf import exact
from qmf.exact import CycNumber, divisors, primes_upto
from qmf.newforms import (
    CatalogIncompleteError,
    DerivationError,
    NewformRecord,
    catalog_lookup,
    catalog_state,
    cusp_basis,
    dim_cusp,
    dim_cusp_new,
    dim_eis,
    dim_modular,
    genus_gamma0,
    hecke_image,
    index_gamma0,
    ingest,
    newforms_for,
    reset_caches,
    sturm_bound,
    verify_hecke,
)
from qmf.eisenstein import enumerate_A
from qmf.qseries import QSeries, dumps_qseries

TAU = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
LEVEL11 = [0, 1, -2, -1, 2, 1, 2, -2, 0, -2, -2]


# ---------------------------------------------------------------------------
# dimensions

def test_index_values():
    assert [index_gamma0(N) for N in [1, 2, 3, 4, 6, 11, 12, 25]] == [
        1, 3, 4, 6, 12, 12, 24, 30,
    ]


def test_genus_values():
    got = {N: genus_gamma0(N) for N in [1, 2, 6, 11, 12, 25, 37, 49, 50]}
    assert got == {1: 0, 2: 0, 6: 0, 11: 1, 12: 0, 25: 0, 37: 2, 49: 1, 50: 2}


def test_level_one_cusp_dims():
    # the classical staircase: first cusp form in weight 12
    want = {2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1,
            20: 1, 22: 1, 24: 2, 26: 1}
    got = {k: dim_cusp(1, k) for k in want}
    assert got == want


def test_small_space_dims():
    assert dim_cusp(2, 8) == 1
    assert dim_cusp(2, 10) == 1
    assert dim_cusp(2, 12) == 2
    assert dim_cusp(3, 6) == 1
    assert dim_cusp(4, 6) == 1
    assert dim_cusp(6, 4) == 1
    assert dim_cusp(6, 6) == 3
    assert dim_cusp(6, 12) == 9
    assert dim_cusp(11, 2) == 1
    assert dim_cusp(5, 4) == 1
    assert dim_cusp(25, 2) == 0  # genus zero


def test_new_subspace_dims():
    assert dim_cusp_new(1, 12) == 1
    assert dim_cusp_new(2, 8) == 1
    assert dim_cusp_new(2, 10) == 1
    assert dim_cusp_new(2, 12) == 0
    assert dim_cusp_new(3, 10) == 2
    assert dim_cusp_new(3, 12) == 1
    assert dim_cusp_new(6, 6) == 1
    assert dim_cusp_new(6, 12) == 3
    assert dim_cusp_new(11, 2) == 1


def test_new_dims_invert_the_level_tower():
    for N in range(1, 25):
        for k in range(2, 15, 2):
            total = sum(
                len(divisors(N // L)) * dim_cusp_new(L, k) for L in divisors(N)
            )
            assert total == dim_cusp(N, k)


def test_eisenstein_dim_matches_enumeration():
    for N in range(1, 31):
        for k in (2, 4, 6, 8):
            assert len(enumerate_A(N, k)) == dim_eis(N, k)


def test_modular_dim():
    assert dim_modular(1, 12) == 2
    assert dim_modular(6, 4) == 1 + 4


def test_sturm_bound():
    assert sturm_bound(12, 1) == 2
    assert sturm_bound(12, 6) == 13
    assert sturm_bound(2, 11) == 3


# ---------------------------------------------------------------------------
# built-in catalog

def test_delta_record():
    (rec,) = newforms_for(1, 12)
    assert rec.label == "delta"
    f = rec.expand(11)
    assert [f.coefficient(n).as_rational() for n in range(11)] == TAU


def test_level11_record():
    (rec,) = newforms_for(11, 2)
    f = rec.expand(11)
    assert [f.coefficient(n).as_rational() for n in range(11)] == LEVEL11


def test_eta_catalog_is_eigenform_data():
    for (L, k) in [(1, 12), (2, 8), (3, 6), (4, 6), (5, 4), (6, 4), (11, 2)]:
        recs = newforms_for(L, k)
        assert len(recs) == dim_cusp_new(L, k) == 1
        report = verify_hecke(recs[0], 120)
        assert report.ok, report.failure
        assert report.multiplicative_checks > 0
        assert report.prime_power_checks > 0


def test_empty_new_space():
    assert newforms_for(2, 12) == []
    assert newforms_for(1, 10) == []


def test_cusp_basis_towers():
    atoms = cusp_basis(2, 12)
    assert [a.spec_text() for a in atoms] == [
        "newform[1,12,delta]",
        "dilate[2](newform[1,12,delta])",
    ]
    atoms = cusp_basis(4, 6)
    assert [a.spec_text() for a in atoms] == ["newform[4,6,a]"]
    atoms = cusp_basis(6, 4)
    assert [a.spec_text() for a in atoms] == ["newform[6,4,a]"]


def test_cusp_basis_dilation_expansion():
    atom = cusp_basis(2, 12)[1]
    f = atom.expand(21)
    assert f.coefficient(1).is_zero()
    assert f.coefficient(2).as_rational() == 1
    assert f.coefficient(20).as_rational() == TAU[10]
    assert f.coefficient(7).is_zero()


# ---------------------------------------------------------------------------
# Hecke verification machinery

def test_hecke_image_of_delta():
    (rec,) = newforms_for(1, 12)
    f = rec.expand(41)
    t2 = hecke_image(f, 2, 12, 20)
    for n in range(20):
        assert t2.coefficient(n) == f.coefficient(n) * TAU[2]


def per_coefficient_hecke_image(f, p, weight, precision):
    """T_p f one coefficient at a time: a(pn) + p^(k-1) a(n/p) when p | n,
    the oracle for hecke_image."""
    pk = p ** (weight - 1)
    out = []
    for n in range(precision):
        c = f.coefficient(p * n)
        if n % p == 0:
            c = c + f.coefficient(n // p) * pk
        out.append(c)
    return QSeries(out, precision)


@pytest.mark.parametrize("level, weight, label", [(1, 12, "delta"), (9, 8, "b")])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_image_matches_the_per_coefficient_formula(level, weight, label, p):
    (rec,) = [r for r in newforms_for(level, weight) if r.label == label]
    precision = 30
    f = rec.expand(p * (precision - 1) + 1)
    assert f.conductor == (1 if level == 1 else 40)
    got = hecke_image(f, p, weight, precision)
    want = per_coefficient_hecke_image(f, p, weight, precision)
    assert got == want
    assert (got.precision, got.conductor) == (want.precision, want.conductor)
    assert got.numerators() == want.numerators()
    with pytest.raises(ValueError, match="needs input precision"):
        hecke_image(f.truncate(p * (precision - 1)), p, weight, precision)


def test_verify_hecke_catches_corruption():
    (rec,) = newforms_for(1, 12)
    f = rec.expand(40)
    coeffs = list(f.coefficients())
    coeffs[6] = coeffs[6] + 1  # break a(6) = a(2) a(3)
    bad = NewformRecord(1, 12, "bad", nf._Table(type(f)(coeffs, 40), "1.12.bad"))
    report = verify_hecke(bad, 40)
    assert not report.ok
    assert "a(6)" in report.failure


def _curve_points_mod_p(p: int) -> int:
    """#E(F_p) for y^2 + y = x^3 - x^2 - 10x - 20, point at infinity included."""
    if p == 2:
        count = 0
        for x in range(2):
            for y in range(2):
                if (y * y + y - (x**3 - x**2 - 10 * x - 20)) % 2 == 0:
                    count += 1
        return count + 1
    count = 0
    for x in range(p):
        c = (x * x * x - x * x - 10 * x - 20) % p
        d = (1 + 4 * c) % p
        if d == 0:
            count += 1
        else:
            leg = pow(d, (p - 1) // 2, p)
            count += 2 if leg == 1 else 0
    return count + 1


@dataclass
class TraceCheckReport:
    p_max: int
    checked: int
    ok: bool
    failure: str | None = None


def galois_trace_check_11(p_max: int) -> TraceCheckReport:
    """Frobenius trace check: for p != 11 up to p_max, the point count of
    the distinguished conductor-11 elliptic curve satisfies
    #E(F_p) = p + 1 - a(p) for the weight-2 level-11 newform, and the
    determinant side p^(k-1) is p itself (k = 2)."""
    (rec,) = newforms_for(11, 2)
    assert rec.weight - 1 == 1  # determinant side: p^(k-1) == p
    f = rec.expand(p_max + 1)
    checked = 0
    for p in primes_upto(p_max):
        if p == 11:
            continue
        expected = p + 1 - _curve_points_mod_p(p)
        if f.coefficient(p) != expected:
            return TraceCheckReport(
                p_max, checked, False, f"trace mismatch at p={p}"
            )
        checked += 1
    return TraceCheckReport(p_max, checked, True)


def test_galois_trace_check():
    report = galois_trace_check_11(100)
    assert report.ok, report.failure
    assert report.checked == len(primes_upto(100)) - 1  # p = 11 skipped


# ---------------------------------------------------------------------------
# derived spaces

def test_derive_level2_weight10():
    recs = newforms_for(2, 10)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.label == "a"
    assert rec.source_text() == "derived"
    # hand-checked: the unique eigenform starts 1, 16, -156, ...
    assert rec.a(1).as_rational() == 1
    assert rec.a(2).as_rational() == 16
    report = verify_hecke(rec, 120)
    assert report.ok, report.failure


def test_derive_level3_weight10_pair():
    recs = newforms_for(3, 10)
    assert [r.label for r in recs] == ["a", "b"]
    for rec in recs:
        report = verify_hecke(rec, 80)
        assert report.ok, report.failure
    # distinct eigensystems
    assert recs[0].a(2) != recs[1].a(2)


def test_derive_level6_weight6():
    recs = newforms_for(6, 6)
    assert len(recs) == 1
    report = verify_hecke(recs[0], 100)
    assert report.ok, report.failure
    # level-dividing primes still have eigenvalue data with |a_p| = p^((k-2)/2)
    a2 = recs[0].a(2).as_rational()
    a3 = recs[0].a(3).as_rational()
    assert abs(a2) == 2 ** 2
    assert abs(a3) == 3 ** 2


def test_derive_level6_weight12_triple():
    recs = newforms_for(6, 12)
    assert len(recs) == 3
    labels = [r.label for r in recs]
    assert labels == ["a", "b", "c"]
    seen = set()
    for rec in recs:
        report = verify_hecke(rec, 60)
        assert report.ok, report.failure
        # ramified eigenvalues are forced up to sign
        assert abs(rec.a(2).as_rational()) == 2**5
        assert abs(rec.a(3).as_rational()) == 3**5
        seen.add((rec.a(2).as_rational(), rec.a(3).as_rational(), rec.a(5).as_rational()))
    assert len(seen) == 3  # three distinct eigensystems


def test_derived_records_re_expand():
    rec = newforms_for(2, 10)[0]
    short = rec.expand(10)
    long = rec.expand(200)
    for n in range(10):
        assert short.coefficient(n) == long.coefficient(n)


def test_full_cusp_basis_at_level6_weight12():
    atoms = cusp_basis(6, 12)
    assert len(atoms) == 9
    texts = [a.spec_text() for a in atoms]
    assert texts[0] == "newform[1,12,delta]"
    assert "dilate[6](newform[1,12,delta])" in texts
    assert sum(1 for t in texts if "newform[6,12," in t) == 3


def spy_on_derive(monkeypatch):
    """The (level, weight) of each space derived from now on, in order."""
    derived = []
    real_derive = nf._derive_space

    def spy_derive(level, weight):
        derived.append((level, weight))
        return real_derive(level, weight)

    monkeypatch.setattr(nf, "_derive_space", spy_derive)
    return derived


def _catalog_below(*spaces):
    """Clear the catalog, then look up every space that the given spaces
    read: each divisor level at each even weight up to theirs."""
    nf._catalog.cache_clear()
    for level, weight in spaces:
        for L in divisors(level):
            for w in range(4, weight + 1, 2):
                if (L, w) not in spaces:
                    catalog_lookup(L, w)


def _holds_cyclotomic(value):
    if isinstance(value, CycNumber):
        return True
    return isinstance(value, (list, tuple)) and any(map(_holds_cyclotomic, value))


def test_hecke_split_eliminates_over_q_when_t_p_is_rational(monkeypatch):
    # the span picks rational coordinate series, so T_p is rational on every
    # piece: every solver in the span and the split takes int columns, and
    # no CycNumber enters a kernel, a characteristic polynomial or a matrix
    # product; only the final eigenlines (T_p - lam')w leave Q.  10.8 and
    # 14.6 span with cyclotomic candidates (the 5.8 and 7.6 newforms)
    spaces = ((8, 12), (9, 12), (10, 8), (14, 6))
    _catalog_below(*spaces)
    inside = []
    int_columns = []
    cyclotomic_inputs = []

    class SpySolver(exact.LinearSolver):
        def __init__(self, matrix, scales=None):
            if inside:
                int_columns.append(scales is not None and all(
                    isinstance(a, int) for col in matrix for a in col))
            super().__init__(matrix, scales)

    def spy(name):
        real = getattr(nf, name)

        def wrapper(*args):
            if inside and _holds_cyclotomic(args):
                cyclotomic_inputs.append(name)
            return real(*args)

        monkeypatch.setattr(nf, name, wrapper)

    def mark(name):
        real = getattr(nf, name)

        def wrapper(*args):
            inside.append(True)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(nf, name, wrapper)

    monkeypatch.setattr(nf, "LinearSolver", SpySolver)
    monkeypatch.setattr(exact, "LinearSolver", SpySolver)
    for name in ("_span_cusp_space", "_split_eigenlines"):
        mark(name)
    for name in ("_refine_pieces", "_char_poly", "_mat_mul", "_poly_matrix_eval", "null_space"):
        spy(name)
    derived = spy_on_derive(monkeypatch)
    records = [newforms_for(*space) for space in spaces]
    assert [len(r) for r in records] == [3, 4, 1, 2]
    assert derived == list(spaces)
    assert int_columns and all(int_columns)
    assert cyclotomic_inputs == []
    # rational forms print at conductor 1
    assert [rec.expand(30).conductor for rec in records[2] + records[3]] == [1, 1, 1]


def test_coordinate_series_span_10_8_over_q():
    # the dilated 5.8 newforms live in Q(zeta_76), and the power-basis
    # coordinate series of a cusp form are cusp forms: every picked column
    # is rational, and T_3 on the rational basis has an integer
    # characteristic polynomial
    _catalog_below((10, 8))
    R, dim = sturm_bound(8, 10), dim_cusp(10, 8)
    exprs, solver = nf._span_cusp_space(10, 8, dim, R)
    assert len(exprs) == dim
    assert any(isinstance(e, nf._Coordinate) and e.conductor == 76 for e in exprs)
    assert [e.expand(R + 1).conductor for e in exprs] == [1] * dim
    assert solver._int_columns and solver.rank == dim
    tp = nf._hecke_matrix(exprs, solver, 3, 8, R + 1)
    assert all(type(x) is Fraction for col in tp for x in col)
    # det(x - A) for A = B/d is d^-n det(dx - B)
    d = math.lcm(*(x.denominator for col in tp for x in col))
    B = [[x.numerator * (d // x.denominator) for x in row] for row in zip(*tp)]
    poly = [Fraction(c, d ** (dim - i)) for i, c in enumerate(nf._char_poly(B))]
    assert d > 1 and all(c.denominator == 1 for c in poly)


def test_failed_derivation_is_attempted_once(monkeypatch):
    # a failing space such as 7.10 costs seconds, so its message is cached
    reset_caches()
    derived = spy_on_derive(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(CatalogIncompleteError) as err:
            newforms_for(14, 2)
        messages.append(str(err.value))
    assert derived == [(14, 2)]
    assert messages == [messages[0]] * 2
    assert "weight 2" in messages[0]


def _companion_109():
    # characteristic polynomial x^2 - x - 27, discriminant 109
    return [[Fraction(0), Fraction(27)], [Fraction(1), Fraction(1)]]


def test_quadratic_factor_splits_into_eigenlines():
    A = _companion_109()
    pieces = nf._eigen_split_matrix(A, 2, 12)
    assert [len(piece) for piece in pieces] == [1, 1]
    sq = nf._sqrt_cyclotomic(Fraction(109))
    roots = [(1 + sq) * Fraction(1, 2), (1 - sq) * Fraction(1, 2)]
    matched = []
    for (v,) in pieces:
        assert {c.conductor for c in v} == {109}
        assert not all(c.is_zero() for c in v)
        av = [A[i][0] * v[0] + A[i][1] * v[1] for i in range(2)]
        matched += [
            k for k, lam in enumerate(roots)
            if all(av[j] == lam * v[j] for j in range(2))
        ]
    assert sorted(matched) == [0, 1]  # one line for each root


def test_quadratic_eigenline_check_rejects_vectors_outside_the_kernel():
    g = [Fraction(-27), Fraction(-1), Fraction(1)]
    zero, one = Fraction(0), Fraction(1)
    with pytest.raises(DerivationError, match="no eigenline"):
        nf._quadratic_eigenlines(_companion_109(), g, [zero, zero])
    # the companion block plus the eigenvalue 5: (A - lam')w = (5 - lam')w
    # is nonzero for w = e_3, but A v = 5 v, not lam v
    A = [row + [zero] for row in _companion_109()]
    A.append([zero, zero, Fraction(5)])
    with pytest.raises(DerivationError, match="no eigenline"):
        nf._quadratic_eigenlines(A, g, [zero, zero, one])


def test_weight2_derivation_refuses():
    # genus 2 space with no eta seed and no product route
    with pytest.raises(CatalogIncompleteError):
        newforms_for(26, 2)


def test_catalog_lookup_does_not_raise():
    recs = catalog_lookup(26, 2)
    assert recs == []
    recs = catalog_lookup(6, 6)
    assert len(recs) == 1


# ---------------------------------------------------------------------------
# ingestion

def _dump_record(rec, precision):
    f = rec.expand(precision)
    return dumps_qseries(
        f, level=rec.level, weight=rec.weight, label=rec.label
    )


def test_ingest_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        rec = newforms_for(2, 10)[0]
        text = _dump_record(rec, 40)
        src = tmp_path / "candidate.qs"
        src.write_text(text)
        got = ingest(src)
        assert got.name() == "2.10.a"
        assert (tmp_path / "cache" / "2.10.a.qs").exists()
        # a fresh registry picks the cached file up from disk
        reset_caches()
        found = catalog_lookup(2, 10)
        assert [r.source_text() for r in found].count("ingested") == 1
    finally:
        reset_caches()


def test_ingest_rejects_bad_data(tmp_path, monkeypatch):
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        rec = newforms_for(1, 12)[0]
        f = rec.expand(30)
        coeffs = list(f.coefficients())
        coeffs[10] = coeffs[10] + 1
        bad = type(f)(coeffs, 30)
        src = tmp_path / "bad.qs"
        src.write_text(
            dumps_qseries(bad, level=1, weight=12, label="z")
        )
        with pytest.raises(ValueError, match="Hecke"):
            ingest(src)

        short = tmp_path / "short.qs"
        short.write_text(
            dumps_qseries(rec.expand(1), level=1, weight=12, label="z")
        )
        with pytest.raises(ValueError, match="precision"):
            ingest(short)

        headerless = tmp_path / "headerless.qs"
        headerless.write_text(dumps_qseries(f))
        with pytest.raises(ValueError, match="header"):
            ingest(headerless)
    finally:
        reset_caches()


def test_ingested_precision_is_a_hard_ceiling(tmp_path, monkeypatch):
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        rec = newforms_for(1, 12)[0]
        src = tmp_path / "delta.qs"
        src.write_text(_dump_record(rec, 25))
        got = ingest(src)
        assert got.expand(25).coefficient(24).as_rational() != 0
        with pytest.raises(ValueError, match="cannot expand"):
            got.expand(26)
    finally:
        reset_caches()


def _ingest_in_new_process(candidate, cache):
    """Ingest in a fresh interpreter whose first catalog access is the ingest,
    then print the catalog labels it sees for the space."""
    script = (
        "import sys\n"
        "from qmf.newforms import catalog_lookup, ingest\n"
        "rec = ingest(sys.argv[1])\n"
        "print(' '.join(r.name() for r in catalog_lookup(rec.level, rec.weight)))\n"
    )
    env = dict(os.environ, QMF_CACHE_DIR=str(cache))
    src = str(Path(qmf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(candidate)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_ingest_keeps_files_another_process_wrote(tmp_path):
    # the second process must load 2.10.x from disk, not start an empty store
    rec = newforms_for(2, 10)[0]
    cache = tmp_path / "cache"
    f = rec.expand(40)
    for label in ("x", "y"):
        (tmp_path / f"{label}.qs").write_text(
            dumps_qseries(f, level=2, weight=10, label=label)
        )
    assert _ingest_in_new_process(tmp_path / "x.qs", cache) == ["2.10.x"]
    assert _ingest_in_new_process(tmp_path / "y.qs", cache) == ["2.10.x", "2.10.y"]
    assert sorted(p.name for p in cache.iterdir()) == ["2.10.x.qs", "2.10.y.qs"]


@pytest.mark.parametrize("kind", ["relative", "symlinked", "missing"])
def test_catalog_state_resolves_the_cache_directory_like_pathlib(tmp_path, monkeypatch, kind):
    # catalog_state takes os.path.realpath of QMF_CACHE_DIR, and ingest
    # registers its record under that same string, so the ingested form is
    # in the catalog of the state that follows
    real = tmp_path / "real"
    real.mkdir()
    monkeypatch.chdir(tmp_path)
    if kind == "relative":
        directory = "real/../real"
    elif kind == "symlinked":
        (tmp_path / "link").symlink_to(real, target_is_directory=True)
        directory = str(tmp_path / "link")
    else:
        directory = "missing/deeper"
    monkeypatch.setenv("QMF_CACHE_DIR", directory)
    reset_caches()
    try:
        assert catalog_state()[0] == str(Path(directory).resolve())
        delta = newforms_for(1, 12)[0]
        _ingest_series(tmp_path, delta.expand(30), 1, 12, "x")
        assert catalog_state()[0] == str(Path(directory).resolve())
        assert "x" in nf._ingested(catalog_state()[0])[1, 12]
        assert [r.name() for r in catalog_lookup(1, 12)] == ["1.12.delta", "1.12.x"]
    finally:
        reset_caches()


# ---------------------------------------------------------------------------
# one catalog per state: built-in, ingested and derived records merged

def _ingest_series(tmp_path, series, level, weight, label):
    src = tmp_path / f"{level}.{weight}.{label}.candidate.qs"
    src.write_text(dumps_qseries(series, level=level, weight=weight, label=label))
    return ingest(src)


@pytest.fixture
def cache_a(tmp_path, monkeypatch):
    """A fresh catalog on the cache directory tmp_path/A."""
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "A"))
    reset_caches()
    yield tmp_path / "A"
    reset_caches()


def test_directory_switch_drops_a_failure_of_the_old_catalog(tmp_path, monkeypatch, cache_a):
    # sum sigma_7(n) q^n, which ingest refuses, written into the cache
    # directory by hand reads as a second 2.8 record, and 6.8 fails on it;
    # an empty directory is a new catalog
    from qmf.detect import g_series

    cache_a.mkdir()
    (cache_a / "2.8.z.qs").write_text(
        dumps_qseries(g_series(8, 1, 40), level=2, weight=8, label="z"))
    with pytest.raises(CatalogIncompleteError, match=r"\(level 2, weight 8\).*2 of 1 newforms known"):
        newforms_for(6, 8)
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "B"))
    assert [(r.name(), r.source_text()) for r in newforms_for(6, 8)] == [("6.8.a", "derived")]


def test_ingest_refuses_an_eisenstein_series(tmp_path, cache_a):
    # sum sigma_7(n) q^n passes the Hecke checks; Deligne's bound fails at
    # p = 3, the first prime not dividing 2 (2188^2 > 4 * 3^7), so nothing
    # lands in the cache directory
    from qmf.detect import g_series

    with pytest.raises(ValueError, match=r"a\(3\) = 2188 breaks Deligne's bound"):
        _ingest_series(tmp_path, g_series(8, 1, 40), 2, 8, "z")
    assert not cache_a.exists()
    assert [r.name() for r in newforms_for(2, 8)] == ["2.8.a"]


def test_ingested_label_of_another_form_fails(tmp_path, cache_a):
    # 8.8.b's expansion under the label a must not hide the true 8.8.a
    b = newforms_for(8, 8)[1]
    assert b.a(3) == 44
    reset_caches()
    _ingest_series(tmp_path, b.expand(40), 8, 8, "a")
    message = "label a of 8.8 holds another form than the derived 8.8.a"
    with pytest.raises(CatalogIncompleteError, match=message):
        newforms_for(8, 8)
    env = dict(os.environ, QMF_CACHE_DIR=str(cache_a))
    src = str(Path(qmf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qmf.cli", "newforms", "--level", "8", "--weight", "8", "--prec", "12"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "catalog incomplete: no newform table for level 8, weight 8\n"


def test_one_form_under_two_labels_fails(tmp_path, cache_a):
    b = newforms_for(8, 8)[1]
    reset_caches()
    for label in ("y", "z"):
        _ingest_series(tmp_path, b.expand(40), 8, 8, label)
    with pytest.raises(CatalogIncompleteError, match="8.8.y and 8.8.z are the same form"):
        newforms_for(8, 8)


def test_derivation_completes_an_ingested_form(tmp_path, cache_a):
    # 8.8.a ingested as x: the derived 8.8.a is the same form and is
    # dropped, the derived 8.8.b completes the space
    a = newforms_for(8, 8)[0]
    assert a.a(3) == -84
    reset_caches()
    _ingest_series(tmp_path, a.expand(40), 8, 8, "x")
    got = newforms_for(8, 8)
    assert [(r.name(), r.source_text()) for r in got] == [
        ("8.8.b", "derived"), ("8.8.x", "ingested")]
    assert [r.a(3) for r in got] == [44, -84]


def test_table_shorter_than_the_sturm_bound_fails(cache_a):
    # a .qs file placed in the cache directory by hand skips ingest's
    # precision check; it cannot be told apart from another form, so the
    # space fails instead of taking it
    cache_a.mkdir()
    assert sturm_bound(10, 2) == 3
    (cache_a / "2.10.x.qs").write_text(
        dumps_qseries(QSeries([0, 1]), level=2, weight=10, label="x"))
    with pytest.raises(CatalogIncompleteError, match="holds 2 coefficients; cannot expand to 3"):
        newforms_for(2, 10)
