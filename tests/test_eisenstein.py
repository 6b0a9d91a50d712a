"""Eisenstein atoms: expansions, enumeration, and the prime formulas."""
import math
import random
from fractions import Fraction

import pytest

from qmf.characters import enumerate_primitive, trivial_character
from qmf.eisenstein import (
    EisensteinAtom,
    e2_series,
    eisenstein_basis,
    enumerate_A,
    raw_e2_atom,
)
from qmf.scalars import CycNumber, divisors, primes_upto, zeta_at_negative
from qmf.qseries import QSeries


def sigma_phi(chi, power, n):
    """Twisted divisor sum: sum over d | n of chi(d) conj(chi)(n/d) d^power,
    the per-n oracle for the sieved atoms."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    inv = chi.inverse()
    acc = CycNumber.zero()
    for d in divisors(n):
        a = chi(d)
        if a.is_zero():
            continue
        b = inv(n // d)
        if b.is_zero():
            continue
        acc = acc + a * b * d**power
    return acc


def sigma(power, n):
    return sum(d**power for d in divisors(n))


def test_e2_series_frozen():
    f = e2_series(7)
    want = [1, -24, -72, -96, -168, -144, -288]
    assert [f.coefficient(n).as_rational() for n in range(7)] == want


def test_e2_series_matches_direct_divisor_sums():
    f = e2_series(500)
    assert f == QSeries([1] + [-24 * sigma(1, n) for n in range(1, 500)], 500)


@pytest.mark.parametrize("N", [9, 16, 25, 27, 49])
def test_atoms_match_sigma_phi_oracle(N):
    precision = 60
    for k in (2, 4, 6):
        for atom in eisenstein_basis(N, k):
            chi, t = atom.chi, atom.t
            if k == 2 and chi.is_trivial():
                # E2(tau) - t E2(t tau)
                want = [1 - t] + [
                    -24 * sigma(1, n) + (24 * t * sigma(1, n // t) if n % t == 0 else 0)
                    for n in range(1, precision)
                ]
            else:
                const = zeta_at_negative(k) if chi.is_trivial() else 0
                want = [const] + [
                    2 * sigma_phi(chi, k - 1, n // t) if n % t == 0 else 0
                    for n in range(1, precision)
                ]
            oracle = QSeries(want, precision)
            f = atom.expand(precision)
            assert f == oracle, atom.spec_text()
            assert f.conductor == oracle.conductor, atom.spec_text()


def test_classical_weight4_atom():
    atom = EisensteinAtom(4, trivial_character(1), 1)
    f = atom.expand(8)
    assert f.coefficient(0).as_rational() == Fraction(1, 120)
    for n in range(1, 8):
        assert f.coefficient(n).as_rational() == 2 * sigma(3, n)
    # rescaled, this is the familiar normalization 1 + 240 q + ...
    g = f.scale(Fraction(120))
    assert g.coefficient(1).as_rational() == 240
    assert g.coefficient(2).as_rational() == 2160


def test_classical_weight6_constant():
    atom = EisensteinAtom(6, trivial_character(1), 1)
    f = atom.expand(4)
    assert f.coefficient(0).as_rational() == Fraction(-1, 252)
    assert f.coefficient(2).as_rational() == 66  # 2 * sigma_5(2)


def test_weight2_twist_frozen():
    atom = EisensteinAtom(2, trivial_character(1), 2)
    f = atom.expand(7)
    want = [-1, -24, -24, -96, -24, -144, -96]
    assert [f.coefficient(n).as_rational() for n in range(7)] == want


def test_dilated_atom_supported_on_multiples():
    atom = EisensteinAtom(4, trivial_character(1), 3)
    f = atom.expand(13)
    for n in range(1, 13):
        if n % 3:
            assert f.coefficient(n).is_zero()
        else:
            assert f.coefficient(n).as_rational() == 2 * sigma(3, n // 3)


def test_character_atom_matches_divisor_sum():
    for chi in enumerate_primitive(5):
        atom = EisensteinAtom(4, chi, 1)
        f = atom.expand(40)
        assert f.coefficient(0).is_zero()
        for n in range(1, 40):
            assert f.coefficient(n) == 2 * sigma_phi(chi, 3, n)


def test_sigma_phi_multiplicative():
    rng = random.Random(7)
    chars = enumerate_primitive(5) + enumerate_primitive(3)
    for chi in chars:
        for _ in range(30):
            m = rng.randrange(1, 40)
            n = rng.randrange(1, 40)
            if math.gcd(m, n) != 1:
                continue
            lhs = sigma_phi(chi, 3, m * n)
            rhs = sigma_phi(chi, 3, m) * sigma_phi(chi, 3, n)
            assert lhs == rhs


def test_sigma_phi_vanishes_when_conductor_meets_both_halves():
    chi = enumerate_primitive(5)[0]
    assert sigma_phi(chi, 1, 10).is_zero()
    assert sigma_phi(chi, 1, 50).is_zero()


def test_enumeration_counts():
    assert enumerate_A(1, 2) == []
    assert len(enumerate_A(25, 4)) == 6
    texts = [EisensteinAtom(2, chi, t).spec_text() for chi, t in enumerate_A(6, 2)]
    assert texts == ["E2twist[2]", "E2twist[3]", "E2twist[6]"]


def test_enumeration_weight2_excludes_unit_pair():
    for N in range(1, 20):
        pairs = enumerate_A(N, 2)
        assert all(not (chi.modulus == 1 and t == 1) for chi, t in pairs)
        # weight >= 4 keeps it
        assert any(chi.modulus == 1 and t == 1 for chi, t in enumerate_A(N, 4))


def test_atom_text_with_characters():
    atoms = eisenstein_basis(25, 4)
    texts = [a.spec_text() for a in atoms]
    assert texts[:3] == ["E[4,1.1,1]", "E[4,1.1,5]", "E[4,1.1,25]"]
    assert texts[3:] == ["E[4,5.1,1]", "E[4,5.2,1]", "E[4,5.3,1]"]


def test_prime_coefficient_matches_expansion():
    cases = []
    for N, k in [(5, 2), (5, 4), (6, 2), (6, 4), (6, 6), (25, 4)]:
        cases.extend(eisenstein_basis(N, k))
    cases.append(raw_e2_atom())
    for atom in cases:
        f = atom.expand(54)
        for p in primes_upto(53):
            assert f.coefficient(p) == atom.prime_coefficient(p), (
                atom.spec_text(),
                p,
            )


def test_raw_e2_prime_values():
    atom = raw_e2_atom()
    for p in primes_upto(100):
        assert atom.prime_coefficient(p).as_rational() == -24 * (1 + p)


def test_character_atom_prime_values_are_unit_combinations():
    chi = enumerate_primitive(5)[0]  # an order-4 character
    atom = EisensteinAtom(4, chi, 1)
    for p in primes_upto(30):
        if p == 5:
            continue
        want = 2 * (chi.inverse()(p) + chi(p) * p**3)
        assert atom.prime_coefficient(p) == want


def test_atom_validation():
    with pytest.raises(ValueError):
        EisensteinAtom(3, trivial_character(1), 1)
    with pytest.raises(ValueError):
        EisensteinAtom(4, None, 1)
    with pytest.raises(ValueError):
        EisensteinAtom(2, None, 2)
    for t in (0, -1):
        with pytest.raises(ValueError, match="dilation"):
            EisensteinAtom(4, trivial_character(1), t)
