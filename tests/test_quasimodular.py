"""Graded basis assembly and exact decomposition."""

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from qmf import exact, quasimodular
from qmf.exact import CycNumber
from qmf.eisenstein import e2_series, raw_e2_atom
from qmf.newforms import CatalogIncompleteError, newforms_for, reset_caches
from qmf.qseries import QSeries, dump_qseries
from qmf.quasimodular import (
    BasisAtom,
    InsufficientPrecisionError,
    PrecisionPolicy,
    RankDeficientError,
    assemble_basis,
    decompose,
)
from qmf.detect import f_kl, prime_detect_verdict
from replay_oracle import ReplaySolver

PART_RANK = {"eis": 0, "new": 1, "old": 2}


def texts(atoms):
    return [a.spec_text() for a in atoms]


@pytest.fixture
def policy_depth(monkeypatch):
    """Sets the policy depth, in rows, of every basis the test assembles."""
    def set_depth(rows):
        monkeypatch.setattr(PrecisionPolicy, "p_req", property(lambda self: rows))
        quasimodular._basis_entry.cache_clear()
    yield set_depth
    quasimodular._basis_entry.cache_clear()


# ---------------------------------------------------------------- listings


def test_level6_weight2_eisenstein_listing():
    atoms = assemble_basis(6, 2, ("eis",))
    assert texts(atoms) == ["1", "E2twist[2]", "E2twist[3]", "E2twist[6]", "E2"]
    assert all(a.part == "eis" for a in atoms)


def test_level1_weight2_listing():
    # weight <= 2 at level 1 is spanned by the constant and E2 alone
    assert texts(assemble_basis(1, 2)) == ["1", "E2"]


def test_level1_new_part_through_weight12():
    atoms = assemble_basis(1, 12, ("new",))
    assert texts(atoms) == ["D^0(newform[1,12,delta])"]


def test_level1_old_part_is_empty():
    assert assemble_basis(1, 12, ("old",)) == []


def test_level2_new_old_split():
    # undilated forms of both levels 1 and 2 are new; only the proper
    # dilation of delta is old
    new = texts(assemble_basis(2, 12, ("new",)))
    old = texts(assemble_basis(2, 12, ("old",)))
    assert new == [
        "D^0(newform[2,8,a])",
        "D^1(newform[2,8,a])",
        "D^0(newform[2,10,a])",
        "D^2(newform[2,8,a])",
        "D^1(newform[2,10,a])",
        "D^0(newform[1,12,delta])",
    ]
    assert old == ["D^0(dilate[2](newform[1,12,delta]))"]


def test_atom_counts_and_precision_policy():
    atoms = assemble_basis(2, 12)
    by_part = {}
    for a in atoms:
        by_part[a.part] = by_part.get(a.part, 0) + 1
    assert len(atoms) == 50
    assert by_part == {"eis": 43, "new": 6, "old": 1}
    assert PrecisionPolicy(2, 12, len(atoms)).p_req == 59

    atoms6 = assemble_basis(6, 12)
    by_part6 = {}
    for a in atoms6:
        by_part6[a.part] = by_part6.get(a.part, 0) + 1
    assert len(atoms6) == 140
    assert by_part6 == {"eis": 85, "new": 35, "old": 20}
    assert PrecisionPolicy(6, 12, len(atoms6)).p_req == 193


def test_canonical_order():
    atoms = assemble_basis(6, 8)
    weights = [a.weight for a in atoms]
    assert weights == sorted(weights)
    for left, right in zip(atoms, atoms[1:]):
        if left.weight == right.weight:
            assert PART_RANK[left.part] <= PART_RANK[right.part]


def test_part_filter_validation():
    with pytest.raises(ValueError):
        assemble_basis(1, 4, ("eisenstein",))
    with pytest.raises(ValueError):
        assemble_basis(1, 3)


# ------------------------------------------------------------------ atoms


def test_atom_weight_and_expand():
    one = BasisAtom("eis", None, 0)
    assert one.weight == 0
    assert one.spec_text() == "1"
    series = one.expand(5)
    assert series.coefficient(0) == CycNumber.from_rational(1)
    assert all(series.coefficient(n).is_zero() for n in range(1, 5))

    e2 = BasisAtom("eis", raw_e2_atom(), 2)
    assert e2.weight == 6
    assert e2.spec_text() == "D^2(E2)"
    assert e2.expand(10) == e2_series(10).apply_D(1).apply_D(1)


def test_eisenstein_atom_bare_at_r0():
    atoms = assemble_basis(6, 4, ("eis",))
    seen = texts(atoms)
    assert "E2twist[2]" in seen          # r = 0 stays bare
    assert "D^1(E2twist[2])" in seen     # derivatives get wrapped
    assert "D^0(E2twist[2])" not in seen


# ---------------------------------------------------------------- decompose


def test_round_trip_level1():
    P = PrecisionPolicy(1, 14, len(assemble_basis(1, 14))).p_req
    delta = newforms_for(1, 12)[0].expand(P)
    f = e2_series(P).scale(5) + delta.apply_D(1).scale(3)
    dec = decompose(f, 1, 14)
    assert not dec.residual
    assert dec.escalations == 0
    nz = {a.spec_text(): c for a, c in dec.nonzero()}
    assert nz == {
        "E2": CycNumber.from_rational(5),
        "D^1(newform[1,12,delta])": CycNumber.from_rational(3),
    }
    assert dec.part_is_zero("old")
    assert dec.report_text() == (
        "eis E2 : 5\n"
        "new D^1(newform[1,12,delta]) : 3\n"
        "residual: none"
    )


def test_round_trip_level2_old_part():
    atoms = assemble_basis(2, 12)
    P = PrecisionPolicy(2, 12, len(atoms)).p_req
    by_text = {a.spec_text(): a for a in atoms}
    dilated = by_text["D^0(dilate[2](newform[1,12,delta]))"]
    twist = by_text["E2twist[2]"]
    f = dilated.expand(P) + twist.expand(P).scale(-3)
    dec = decompose(f, 2, 12)
    assert not dec.residual
    assert dec.coordinate(dilated) == CycNumber.from_rational(1)
    assert dec.coordinate(twist) == CycNumber.from_rational(-3)
    assert dec.part_is_zero("new")
    assert dec.report_text() == (
        "eis E2twist[2] : -3\n"
        "old D^0(dilate[2](newform[1,12,delta])) : 1\n"
        "residual: none"
    )


def test_round_trip_cyclotomic_coefficients(policy_depth):
    # level 25 mixes rational and Q(zeta_4) coordinates; E2twist[25] only
    # separates from E2 - 25 at row 25, so any start below that depth has
    # to escalate before the rank check clears
    atoms = assemble_basis(25, 2)
    P = 4 * PrecisionPolicy(25, 2, len(atoms)).p_req
    twisted = [a for a in atoms if "5.1" in a.spec_text()]
    assert len(twisted) == 1
    c = CycNumber.root_of_unity(4) + 2
    f = twisted[0].expand(P).scale(c) + e2_series(P).scale(Fraction(1, 3))
    policy_depth(20)
    dec = decompose(f, 25, 2)
    assert not dec.residual
    assert dec.escalations == 1
    assert dec.coordinate(twisted[0]) == c
    for atom, coeff in dec.items():
        if atom == twisted[0]:
            continue
        if atom.spec_text() == "E2":
            assert coeff == CycNumber.from_rational(Fraction(1, 3))
        else:
            assert coeff.is_zero()


def test_level9_weight8_combinations_over_the_eigenform_field():
    # 9.8 holds the quadratic eigenforms b and c over Q(zeta_40): seeded
    # Q(zeta_40) combinations of all 55 atoms come back exactly, and one of
    # them times zeta_3 comes back over Q(zeta_120)
    atoms = assemble_basis(9, 8)
    assert len(atoms) == 55
    series = [a.expand(120) for a in atoms]
    assert {s.conductor for s in series} == {1, 40}
    rng = random.Random("9.8 combinations")
    z40 = CycNumber.root_of_unity(40)
    for _ in range(3):
        coeffs = [z40 ** rng.randrange(40) * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  + rng.randint(-2, 2) for _ in atoms]
        f = sum((s.scale(c) for s, c in zip(series, coeffs)), QSeries.zero(120))
        dec = decompose(f, 9, 8)
        assert not dec.residual and dec.coords == coeffs
        assert {c.conductor for c in dec.coords} == {40}
    z3 = CycNumber.root_of_unity(3)
    dec = decompose(f.scale(z3), 9, 8)
    assert dec.coords == [c * z3 for c in coeffs]
    assert {c.conductor for c in dec.coords} == {120}


def test_escalation_cap_raises_rank_deficient(monkeypatch):
    # the 9.8 basis is rank-deficient at its policy depth of 83 rows, and a
    # cap of 1 allows no deepening past it
    (b,) = [rec for rec in newforms_for(9, 8) if rec.label == "b"]
    monkeypatch.setattr(PrecisionPolicy, "ESCALATION_CAP", 1)
    message = r"^basis matrix for level 9, max weight 8 is rank-deficient at depth 83 \(cap reached\)$"
    with pytest.raises(RankDeficientError, match=message):
        decompose(b.expand(120), 9, 8)


def test_level9_weight8_targets_outside_the_span():
    atoms = assemble_basis(9, 8)
    series = [a.expand(120) for a in atoms]
    texts_ = texts(atoms)
    b = texts_.index("D^0(newform[9,8,b])")
    # dilate[2](Delta) is off the rational columns: the first solve fails
    delta2 = newforms_for(1, 12)[0].expand(120).dilate(2, 120)
    dec = decompose(series[b].scale(3) + delta2, 9, 8)
    assert dec.residual and dec.report_text() == "residual: present"
    # without newform c, c's coordinate series still lie in the columns
    # (they span b's), but c is no Q(zeta_40) combination of the other
    # atoms: the back-map's solve fails
    c = texts_.index("D^0(newform[9,8,c])")
    basis = quasimodular._CoordinateBasis([a.expand(120) for a in atoms[:c] + atoms[c + 1:]])
    assert basis.rank == len(atoms) - 1
    den, nums = series[c].numerators()
    assert basis.solver.solve(nums, den, 40) is not None
    assert basis.solve(nums, den, 40) is None
    den, nums = series[b].numerators()
    assert [x for x in basis.solve(nums, den, 40) if x] == [CycNumber.one(40)]


def test_level8_weight12_decompose_matches_the_golden():
    # newform[8,12,c] over Q(zeta_109) to 400: rank 139 of 140 at the
    # 193-row policy depth, so one escalation to 386 rows
    atoms = assemble_basis(8, 12)
    (c,) = [a for a in atoms if a.spec_text() == "D^0(newform[8,12,c])"]
    dec = decompose(c.expand(400), 8, 12)
    assert (dec.rows_used, dec.escalations) == (386, 1)
    golden = Path(__file__).resolve().parent / "golden" / "decompose_8_12_c_prec400.txt"
    assert dec.report_text() + "\n" == golden.read_text()


def test_level8_weight12_policy_depth_builds_no_back_map():
    # at 193 rows rational atom 136 is already a free column, so the basis
    # cannot have full rank over Q(zeta_109): neither cyclotomic atom is
    # solved and the back-map is not built
    atoms = assemble_basis(8, 12)
    rows = PrecisionPolicy(8, 12, len(atoms)).p_req
    assert rows == 193
    with mock.patch.object(exact.LinearSolver, "__init__", autospec=True,
                           side_effect=exact.LinearSolver.__init__) as inits, \
            mock.patch.object(exact.LinearSolver, "solve", autospec=True,
                              side_effect=exact.LinearSolver.solve) as solves:
        basis = quasimodular._CoordinateBasis([a.expand(rows) for a in atoms])
    assert 136 in basis.solver.free_columns()
    assert inits.call_count == 1 and solves.call_count == 0
    assert not hasattr(basis, "back")
    assert basis.rank < basis.ncols == len(atoms)


def test_not_in_span():
    f = QSeries([0, 1, 1], 8)
    dec = decompose(f, 1, 2)
    assert dec.residual
    assert dec.items() == []
    assert dec.report_text() == "residual: present"


# the spaces the benchmark's session workload decomposes in
SESSION_SPACES = [(1, 12), (2, 12), (3, 10), (4, 8), (6, 8)]


def solve_series(solver, f, rows):
    """Sort keys of the solver's coordinates for f's first rows, or None;
    the replay oracle takes f's coefficients as CycNumbers."""
    if isinstance(solver, ReplaySolver):
        got = solver.solve(list(f.coefficients())[:rows])
    else:
        den, nums = f.numerators()
        got = solver.solve([t[:rows] for t in nums], den, f.conductor)
    return None if got is None else [c.sort_key() for c in got]


@pytest.mark.parametrize("level,maxweight", SESSION_SPACES)
def test_integer_basis_solves_match_the_replay(level, maxweight):
    atoms = assemble_basis(level, maxweight)
    rows = PrecisionPolicy(level, maxweight, len(atoms)).p_req
    solver = quasimodular._CoordinateBasis([a.expand(rows) for a in atoms])
    columns = [a.expand(rows).coefficients() for a in atoms]
    oracle = ReplaySolver([[col[n] for col in columns] for n in range(rows)])
    assert solver.rank == oracle.rank == len(atoms)
    rng = random.Random(f"integer-basis-{level}-{maxweight}")
    series = [a.expand(rows) for a in atoms]
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in atoms]
    inside = sum((s.scale(c) for s, c in zip(series, coeffs)), QSeries.zero(rows))
    z3 = CycNumber.root_of_unity(3)
    cyclo = [z3 * c + rng.randint(-3, 3) for c in coeffs]
    third = sum((s.scale(c) for s, c in zip(series, cyclo)), QSeries.zero(rows))
    assert third.conductor == 3
    # the pivot rows of `inside` fix its coordinates; a changed other row
    # leaves the span
    changed = [0] * rows
    changed[solver.solver._modular.others[0]] = 1
    outside = inside + QSeries(changed)
    targets = [inside, third, outside, QSeries.zero(rows)]
    got = [solve_series(solver, f, rows) for f in targets]
    assert got == [solve_series(oracle, f, rows) for f in targets]
    assert got[0] == [CycNumber.from_rational(c).sort_key() for c in coeffs]
    assert got[1] == [c.sort_key() for c in cyclo]
    assert got[2] is None
    assert decompose(outside, level, maxweight).residual
    # a basis of rank below its column count mod 7 moves on to the next
    # prime, with the same answers
    with mock.patch.object(exact, "_MODULUS", 7):
        deficient = quasimodular._CoordinateBasis([a.expand(rows) for a in atoms])
    assert deficient.solver._modular.p != 7 and deficient.rank == len(atoms)
    assert [solve_series(deficient, f, rows) for f in targets] == got


def test_rational_decompose_builds_no_cell_numbers():
    # the basis columns and the target go to the solver as integers: no
    # coefficient is read and a CycNumber is built only per coordinate
    atoms = assemble_basis(6, 8)
    rows = PrecisionPolicy(6, 8, len(atoms)).p_req
    f = atoms[3].expand(rows).scale(2) + atoms[40].expand(rows)
    decompose(f, 6, 8)
    quasimodular._basis_entry.cache_clear()
    for warm in (False, True):
        with mock.patch.object(QSeries, "coefficient", autospec=True,
                               side_effect=QSeries.coefficient) as reads, \
             mock.patch.object(CycNumber, "__init__", autospec=True,
                               side_effect=CycNumber.__init__) as inits, \
             mock.patch.object(CycNumber, "_make", wraps=CycNumber._make) as makes:
            dec = decompose(f, 6, 8)
        assert reads.call_count == 0
        # one per coordinate; building the basis adds the constant atom's 1
        assert inits.call_count + makes.call_count == len(atoms) + (0 if warm else 1)
    assert {a.spec_text(): c for a, c in dec.nonzero()} == {
        atoms[3].spec_text(): CycNumber.from_rational(2),
        atoms[40].spec_text(): CycNumber.from_rational(1),
    }


def test_insufficient_precision():
    f = e2_series(3)
    with pytest.raises(InsufficientPrecisionError) as info:
        decompose(f, 1, 2)
    assert info.value.required == PrecisionPolicy(1, 2, 2).p_req
    assert info.value.have == 3


def test_escalation_from_a_shallow_policy_depth(policy_depth):
    policy_depth(2)
    f = assemble_basis(1, 4)[2].expand(48)
    dec = decompose(f, 1, 4)
    assert dec.escalations >= 1
    assert not dec.residual
    nz = dec.nonzero()
    assert len(nz) == 1 and nz[0][1] == CycNumber.from_rational(1)


def test_coordinate_unknown_atom():
    P = PrecisionPolicy(1, 2, 2).p_req
    dec = decompose(e2_series(P), 1, 2)
    with pytest.raises(KeyError):
        dec.coordinate(BasisAtom("eis", raw_e2_atom(), 5))


def test_a_decomposition_cannot_reorder_the_cached_basis():
    # every Decomposition of a space holds the one cached assembly, so a
    # caller that reversed it in place would relabel every later decompose
    f = f_kl(1, 3, 1, 40)
    dec = decompose(f, 1, 8)
    assert isinstance(dec.atoms, tuple)
    with pytest.raises(AttributeError):
        dec.atoms.reverse()
    assert decompose(f, 1, 8).report_text() == dec.report_text() == (
        "eis 1 : 11/240\n"
        "eis E2 : -1/24\n"
        "eis E[4,1.1,1] : -1/2\n"
        "eis D^1(E[4,1.1,1]) : -1/2\n"
        "eis D^3(E2) : -1/24\n"
        "residual: none"
    )


def test_catalog_change_invalidates_cached_basis(tmp_path, monkeypatch):
    # the basis and its solvers are cached per catalog state, so a record
    # that overfills a space (written by hand: ingest refuses it), or a
    # switch to a cache directory that holds one, must surface on the next
    # call
    full, empty = tmp_path / "full", tmp_path / "empty"
    monkeypatch.setenv("QMF_CACHE_DIR", str(full))
    reset_caches()
    try:
        (record,) = newforms_for(11, 2)
        f = record.expand(60)
        dec = decompose(f, 11, 2)
        assert [(a.spec_text(), c) for a, c in dec.nonzero()] == [
            ("D^0(newform[11,2,a])", 1)
        ]
        full.mkdir()
        with open(full / "11.2.b.qs", "w") as fh:
            dump_qseries(f, fh, level=11, weight=2, label="b")
        reset_caches()
        with pytest.raises(CatalogIncompleteError, match="2 of 1 newforms known"):
            decompose(f, 11, 2)
        monkeypatch.setenv("QMF_CACHE_DIR", str(empty))
        assert not decompose(f, 11, 2).residual
        monkeypatch.setenv("QMF_CACHE_DIR", str(full))
        with pytest.raises(CatalogIncompleteError, match="2 of 1 newforms known"):
            decompose(f, 11, 2)
    finally:
        reset_caches()


def test_returning_to_a_cache_directory_reuses_its_basis(tmp_path, monkeypatch):
    # the basis cache keys on the catalog state, so A -> B -> A assembles
    # the basis of A once
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "A"))
    reset_caches()
    cache = quasimodular._basis_entry
    cache.cache_clear()
    try:
        (record,) = newforms_for(11, 2)
        f = record.expand(60)
        for directory in "ABA":
            monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / directory))
            assert not decompose(f, 11, 2).residual
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 2)
    finally:
        reset_caches()


def test_basis_cache_is_bounded_across_catalog_generations():
    # more spaces than the cache holds, Eisenstein-only so each is cheap;
    # a new catalog state misses on every space again and keeps the cache
    # at its bound, with every decomposition unchanged
    bound = quasimodular._BASIS_CACHE_SIZE
    spaces = [(N, w) for w in (0, 2) for N in range(1, 11)]
    assert len(spaces) > bound

    def run():
        out = []
        for N, w in spaces:
            atoms = assemble_basis(N, w)
            rows = PrecisionPolicy(N, w, len(atoms)).p_req
            f = sum((a.expand(rows).scale(i + 1) for i, a in enumerate(atoms)),
                    QSeries.zero(rows))
            dec = decompose(f, N, w)
            assert [c for _, c in dec.items()] == [
                CycNumber.from_rational(i + 1) for i in range(len(atoms))]
            out.append([(a.spec_text(), c) for a, c in dec.items()])
        return out

    cache = quasimodular._basis_entry
    cache.cache_clear()
    try:
        first = run()
        info = cache.cache_info()
        assert info.currsize == info.maxsize == bound
        assert info.misses == len(spaces)
        reset_caches()
        assert run() == first
        again = cache.cache_info()
        assert again.currsize == bound
        assert again.misses == 2 * len(spaces)
    finally:
        reset_caches()


# ---------------------------------------------------------------- closure


@dataclass
class DClosureReport:
    level: int
    maxweight: int
    ok: bool
    rows: list[tuple[BasisAtom, list[tuple[BasisAtom, CycNumber]]]]
    failures: list[str]


def d_closure_check(N: int, maxweight: int) -> DClosureReport:
    """Verify D maps the weight<=maxweight assembly into the maxweight+2 one.

    Decomposes the derivative of every atom in the bigger basis; any
    residual is a failure."""
    atoms = assemble_basis(N, maxweight)
    target_atoms = assemble_basis(N, maxweight + 2)
    policy = PrecisionPolicy(N, maxweight + 2, len(target_atoms))
    depth = policy.p_req
    rows = []
    failures = []
    for atom in atoms:
        image = atom.expand(depth).apply_D(1)
        dec = decompose(image, N, maxweight + 2)
        if dec.residual:
            failures.append(f"D({atom.spec_text()}) left the span")
            continue
        rows.append((atom, dec.nonzero()))
    return DClosureReport(N, maxweight, not failures, rows, failures)


def test_d_closure_level1():
    report = d_closure_check(1, 4)
    assert report.ok
    rows = {atom.spec_text(): dict(
        (a.spec_text(), c) for a, c in coords) for atom, coords in report.rows}
    # derivative of each atom is again a single atom one weight step up
    assert rows["1"] == {}
    assert rows["E2"] == {"D^1(E2)": CycNumber.from_rational(1)}
    assert rows["E[4,1.1,1]"] == {"D^1(E[4,1.1,1])": CycNumber.from_rational(1)}


def test_d_closure_level2_images_are_single_atoms():
    report = d_closure_check(2, 4)
    assert report.ok
    for atom, coords in report.rows:
        if atom.payload is None:
            assert coords == []
            continue
        assert len(coords) == 1
        image, coeff = coords[0]
        assert coeff == CycNumber.from_rational(1)
        assert image.weight == atom.weight + 2


# -------------------------------------------------------------- membership
# whether a_f(p) vanishes at every prime p <= X not dividing N is the
# vanishing half of the prime-detecting verdict


def test_membership_dilated_delta():
    delta2 = newforms_for(1, 12)[0].expand(101).dilate(2, 101)
    verdict = prime_detect_verdict(delta2, 2, 100)
    assert verdict.vanishing_failures == []


def test_membership_delta_fails_at_level1():
    delta = newforms_for(1, 12)[0].expand(101)
    verdict = prime_detect_verdict(delta, 1, 100)
    assert verdict.vanishing_failures
    first_prime = verdict.vanishing_failures[0]
    assert first_prime == 2
    assert delta.coefficient(first_prime) == CycNumber.from_rational(-24)


def test_membership_zero_series():
    zero = QSeries([], 60)
    assert not prime_detect_verdict(zero, 1, 50).vanishing_failures


def test_membership_precision_guard():
    with pytest.raises(InsufficientPrecisionError):
        prime_detect_verdict(e2_series(50), 1, 50)


def test_membership_level_guard():
    for level in (0, -3):
        with pytest.raises(ValueError, match="level must be positive"):
            prime_detect_verdict(e2_series(51), level, 50)
