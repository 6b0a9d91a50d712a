"""End-to-end acceptance scenarios for the whole package.

Each test covers one headline behavior at desk scale, asserts it exactly
(apart from wall-clock budgets), and prints a single PASS/FAIL line so the
suite doubles as a checklist when run with -s.
"""

import random
import time
from fractions import Fraction

from qmf.characters import enumerate_primitive, trivial_character
from qmf.detect import census, f_kl, macmahon, prime_detect_verdict
from qmf.eisenstein import EisensteinAtom, enumerate_A, raw_e2_atom
from qmf.scalars import primes_upto
from qmf.newforms import (
    CatalogIncompleteError,
    cusp_count,
    dim_eis,
    newforms_for,
    verify_hecke,
)
from qmf.qseries import EtaProduct, QSeries
from qmf.quasimodular import (
    PrecisionPolicy,
    assemble_basis,
    decompose,
)

from test_newforms import galois_trace_check_11
from test_quasimodular import d_closure_check


def _report(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


def _brute_macmahon(a: int, precision: int) -> list[int]:
    # direct enumeration of chains 0 < s_1 < ... < s_a with weights
    # m_1 * ... * m_a on the exponent sum m_1 s_1 + ... + m_a s_a
    out = [0] * precision
    def rec(depth: int, smin: int, total: int, weight: int) -> None:
        if depth == a:
            out[total] += weight
            return
        s = smin
        while total + s < precision:
            m = 1
            while total + m * s < precision:
                rec(depth + 1, s + 1, total + m * s, weight * m)
                m += 1
            s += 1
    rec(0, 1, 0, 1)
    return out


def test_macmahon_prime_identity_to_2000():
    t0 = time.monotonic()
    m1 = macmahon(1, 2001)
    m2 = macmahon(2, 2001)
    primes = set(primes_upto(2000))
    bad = []
    for n in range(2, 2001):
        v = (n * n - 3 * n + 2) * m1.value(n) - 8 * m2.value(n)
        if (v == 0) != (n in primes):
            bad.append((n, v))
    elapsed = time.monotonic() - t0
    _report(
        "prime identity (n^2-3n+2)M1 - 8M2 = 0 iff n prime, n <= 2000",
        not bad and elapsed < 10.0,
        f"{elapsed:.1f}s" + (f", first bad {bad[:3]}" if bad else ""),
    )


def test_macmahon_agrees_with_sigma_and_brute_force():
    m1 = macmahon(1, 2001)
    sig = [0] * 2001
    for d in range(1, 2001):
        for m in range(d, 2001, d):
            sig[m] += d
    sigma_ok = all(m1.value(n) == sig[n] for n in range(1, 2001))
    brute_ok = True
    for a in (1, 2, 3):
        table = macmahon(a, 61)
        oracle = _brute_macmahon(a, 61)
        if any(table.value(n) != oracle[n] for n in range(1, 61)):
            brute_ok = False
    _report(
        "M1 = sigma_1 to 2000 and DP matches chain enumeration for a <= 3",
        sigma_ok and brute_ok,
    )


def test_f13_is_prime_detecting_at_levels_1_2_6():
    failures = []
    for N in (1, 2, 6):
        f = f_kl(1, 3, N, 2001)
        rep = prime_detect_verdict(f, N, 2000)
        if not rep.ok:
            failures.append(
                (N, rep.vanishing_failures[:3], rep.nonvanishing_failures[:3])
            )
    _report(
        "f_{1,3} prime-detecting for N in {1,2,6}, X = 2000",
        not failures,
        str(failures) if failures else "",
    )


def test_decompose_f13_plus_dilated_delta_at_level_2():
    t0 = time.monotonic()
    f = f_kl(1, 3, 2, 72)
    delta2 = EtaProduct([(1, 24)]).expand(72).dilate(2, 72)
    dec = decompose(f + delta2, 2, 12)
    old = {a.spec_text(): c for a, c in dec.part("old").items() if not c.is_zero()}
    elapsed = time.monotonic() - t0
    ok = (
        not dec.residual
        and dec.part_is_zero("new")
        and set(old) == {"D^0(dilate[2](newform[1,12,delta]))"}
        and old["D^0(dilate[2](newform[1,12,delta]))"] == 1
        and elapsed < 60.0
    )
    _report(
        "f_{1,3} + Delta(2tau) at level 2: new part zero, old part is the "
        "dilated delta with coordinate 1",
        ok,
        f"{elapsed:.1f}s",
    )


def test_old_atoms_vanish_at_primes_off_the_level():
    primes = primes_upto(1000)
    covered, skipped, bad = [], [], []
    for N in range(1, 13):
        try:
            atoms = assemble_basis(N, 12, ("old",))
        except CatalogIncompleteError:
            skipped.append(N)
            continue
        covered.append(N)
        for atom in atoms:
            if atom.r > 3:
                continue
            f = atom.expand(1001)
            for p in primes:
                if N % p == 0:
                    continue
                if not f.coefficient(p).is_zero():
                    bad.append((N, atom.spec_text(), p))
    coverage_ok = {1, 2, 3, 4, 6, 8, 9, 12}.issubset(covered)
    _report(
        "old-part atoms vanish at primes p not dividing the level (N <= 12, "
        "weight <= 12, r <= 3, p <= 1000)",
        not bad and coverage_ok,
        f"covered {covered}, no catalog for {skipped}"
        + (f", bad {bad[:3]}" if bad else ""),
    )


def test_dilated_eisenstein_vanishing_and_e2_agreement():
    primes = primes_upto(1000)
    e2_by_r = {r: raw_e2_atom().expand(1001).apply_D(r) for r in (0, 1, 2, 3)}
    cache: dict[EisensteinAtom, QSeries] = {}
    bad = []
    for N in range(1, 13):
        off_level = [p for p in primes if N % p]
        for k in range(2, 13, 2):
            for chi, t in enumerate_A(N, k):
                if t == 1:
                    continue
                atom = EisensteinAtom(k, chi, t)
                base = cache.get(atom)
                if base is None:
                    base = cache[atom] = atom.expand(1001)
                for r in (0, 1, 2, 3):
                    fr = base.apply_D(r) if r else base
                    if atom.kind == "weight2_trivial":
                        # dilated E2 with trivial character tracks E2 itself
                        ref = e2_by_r[r]
                        mism = [
                            p for p in off_level
                            if fr.coefficient(p) != ref.coefficient(p)
                        ]
                    else:
                        mism = [
                            p for p in off_level
                            if not fr.coefficient(p).is_zero()
                        ]
                    if mism:
                        bad.append((N, atom.spec_text(), r, mism[:2]))
    _report(
        "dilated Eisenstein atoms vanish off the level; dilated E2 agrees "
        "with E2 there (N <= 12, r <= 3, p <= 1000)",
        not bad,
        str(bad[:3]) if bad else "",
    )


def test_eisenstein_prime_coefficient_formulas():
    bad = []
    primes = primes_upto(500)
    for N in (5, 25):
        for k in (2, 4, 6):
            for chi, t in enumerate_A(N, k):
                if t != 1:
                    continue
                f = EisensteinAtom(k, chi, t).expand(501)
                chibar = chi.inverse()
                for p in primes:
                    want = (chibar(p) + chi(p) * p ** (k - 1)) * 2
                    if f.coefficient(p) != want:
                        bad.append((N, k, chi.modulus, p))
                        break
    e2 = raw_e2_atom().expand(501)
    for k in (2, 4, 6):
        fr = e2.apply_D(k - 1)
        for p in primes:
            if fr.coefficient(p) != -24 * (p ** (k - 1) + p ** k):
                bad.append(("D^" + str(k - 1) + "(E2)", p))
                break
    _report(
        "prime coefficients match 2(chibar(p) + chi(p) p^(k-1)) and "
        "-24(p^(k-1) + p^k) closed forms, p <= 500",
        not bad,
        str(bad[:3]) if bad else "",
    )


def test_frobenius_traces_match_point_counts_at_level_11():
    t0 = time.monotonic()
    rep = galois_trace_check_11(199)
    elapsed = time.monotonic() - t0
    _report(
        "level-11 weight-2 coefficients equal p + 1 - #E(F_p) for p <= 199",
        rep.ok and rep.checked == 45 and elapsed < 5.0,
        f"{rep.checked} primes, {elapsed:.1f}s"
        + (f", {rep.failure}" if rep.failure else ""),
    )


def test_hecke_relations_for_builtin_catalog():
    spaces = [(1, 12), (2, 8), (3, 6), (4, 6), (5, 4), (6, 4), (11, 2)]
    bad = []
    checks = 0
    for L, k in spaces:
        for rec in newforms_for(L, k):
            rep = verify_hecke(rec, 500)
            checks += rep.multiplicative_checks + rep.prime_power_checks
            if not rep.ok:
                bad.append((rec.name(), rep.failure))
    _report(
        "Hecke multiplicativity and p-power recursion to precision 500 for "
        "all built-in newforms",
        not bad and checks > 0,
        f"{checks} relation checks" + (f", bad {bad}" if bad else ""),
    )


def test_derivative_closure_in_next_weight_basis():
    bad = []
    for N in (1, 2, 6):
        for k in (2, 4, 6, 8):
            rep = d_closure_check(N, k)
            if not rep.ok:
                bad.append((N, k, rep.failures[:2]))
    _report(
        "D of every basis atom lands in the weight+2 assembly with no "
        "residual (N in {1,2,6}, weights <= 8)",
        not bad,
        str(bad) if bad else "",
    )


def test_random_combination_round_trip():
    rng = random.Random(20260823)
    total = clean = 0
    bad = []
    for N in (1, 2, 6):
        for maxweight in (2, 4, 6, 8, 10, 12):
            atoms = assemble_basis(N, maxweight)
            policy = PrecisionPolicy(N, maxweight, len(atoms))
            P = policy.p_req
            expansions = [a.expand(P) for a in atoms]
            for _ in range(100):
                picked = rng.sample(range(len(atoms)), min(8, len(atoms)))
                want: dict[str, Fraction] = {}
                combo = QSeries.zero(P)
                for i in picked:
                    c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    if not c:
                        continue
                    want[atoms[i].spec_text()] = c
                    combo = combo + expansions[i].scale(c)
                dec = decompose(combo, N, maxweight)
                total += 1
                if dec.escalations == 0:
                    clean += 1
                if dec.residual:
                    bad.append((N, maxweight, "residual"))
                    continue
                for a, c in dec.items():
                    if (c - want.get(a.spec_text(), Fraction(0))) != 0:
                        bad.append((N, maxweight, a.spec_text()))
                        break
    # the depth-doubling path: the 9.8 basis is rank-deficient at its
    # policy depth of 83 rows
    (b,) = [rec for rec in newforms_for(9, 8) if rec.label == "b"]
    esc = decompose(b.expand(120), 9, 8)
    ok = (
        not bad
        and total == 1800
        and clean / total >= 0.95
        and esc.escalations >= 1
        and not esc.residual
    )
    _report(
        "1800 random exact combinations recover coordinates exactly; "
        ">= 95% need no depth escalation; escalation path exercised",
        ok,
        f"{clean}/{total} clean, escalations {esc.escalations}"
        + (f", bad {bad[:3]}" if bad else ""),
    )


def test_census_desk_scale():
    t0 = time.monotonic()
    delta = EtaProduct([(1, 24)]).expand(100001)
    rep = census(delta, 1, 100000, "0.05")
    pi_100k = len(primes_upto(100000))
    e4 = EisensteinAtom(4, trivial_character(1), 1).expand(10001)
    rep4 = census(e4, 1, 10000, "0.1")
    pi_10k = len(primes_upto(10000))
    # third scan at a true dilation: support misses every odd prime
    delta2 = delta.truncate(501).dilate(2, 1001)
    rep2 = census(delta2, 2, 1000, "0.05")
    pi_1k = len(primes_upto(1000))
    elapsed = time.monotonic() - t0
    ok = (
        rep.zero_count == 0
        and rep.eligible_count == pi_100k == 9592
        and rep.zero_count + rep.nonzero_count == rep.eligible_count
        and rep4.zero_count == 0
        and rep4.eligible_count == pi_10k == 1229
        and rep4.zero_count + rep4.nonzero_count == rep4.eligible_count
        and rep2.eligible_count == pi_1k - 1
        and rep2.zero_count + rep2.nonzero_count == rep2.eligible_count
        and elapsed < 180.0
    )
    _report(
        "coefficient census: tau and E4 have no vanishing prime "
        "coefficients at desk scale; zero/nonzero tallies partition "
        "the eligible primes",
        ok,
        f"{elapsed:.1f}s",
    )


def test_atom_counts_match_dimension_formulas():
    a25 = enumerate_A(25, 4)
    a6 = enumerate_A(6, 2)
    ok = (
        len(a25) == 6 == dim_eis(25, 4)
        and len(a6) == 3 == cusp_count(6) - 1 == dim_eis(6, 2)
    )
    _report(
        "atom counts: 6 pairs at (25,4) and 3 at (6,2), matching the "
        "Eisenstein dimension and cusp-count identities",
        ok,
        f"|A(25,4)|={len(a25)}, |A(6,2)|={len(a6)}",
    )
