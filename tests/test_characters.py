import math
import random

from qmf import characters
from qmf.characters import (
    character_group,
    enumerate_primitive,
    trivial_character,
)
from qmf.eisenstein import eisenstein_basis
from qmf.scalars import CycNumber, euler_phi, moebius, divisors


def primitive_count(u: int) -> int:
    # classical count: sum over d | u of mu(u/d) phi(d)
    return sum(moebius(u // d) * euler_phi(d) for d in divisors(u))


def test_primitive_counts_match_moebius_formula():
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 0, 7: 5, 8: 2, 9: 4, 12: 1, 25: 16}
    for u, count in expected.items():
        assert primitive_count(u) == count
        assert len(enumerate_primitive(u)) == count


def test_character_group_sizes():
    for u in (1, 2, 3, 4, 5, 8, 9, 12, 25):
        assert len(character_group(u)) == euler_phi(u)


def test_mod5_orders():
    orders = sorted(chi.order for chi in enumerate_primitive(5))
    assert orders == [2, 4, 4]


def test_mod4_value():
    (chi,) = enumerate_primitive(4)
    assert chi(3) == -1
    assert chi(1) == 1
    assert chi(2).is_zero()


def test_trivial_mod1_everywhere_one():
    chi = trivial_character(1)
    for n in (0, 1, 2, 17):
        assert chi(n) == 1
    assert chi.conductor == 1
    assert chi.is_primitive()


def test_conductors_mod9():
    conductors = sorted(chi.conductor for chi in character_group(9))
    assert conductors == [1, 3, 9, 9, 9, 9]


def test_conductor_mod12():
    # the character mod 12 induced from the quadratic character mod 3
    found = set()
    for chi in character_group(12):
        found.add(chi.conductor)
    assert found == {1, 3, 4, 12}


def test_values_are_roots_of_unity():
    for chi in enumerate_primitive(5):
        order = chi.order
        for n in range(1, 5):
            v = chi(n)
            assert v**order == 1


def test_multiplicativity_fuzz():
    rng = random.Random(5)
    for u in (4, 5, 8, 9, 12):
        for chi in character_group(u):
            for _ in range(20):
                m, n = rng.randint(1, 60), rng.randint(1, 60)
                assert chi(m * n) == chi(m) * chi(n)


def test_orthogonality():
    for u in (3, 4, 5, 9, 12):
        for chi in character_group(u):
            total = sum(
                (chi(n) for n in range(u)), CycNumber.zero()
            )
            if chi.is_trivial():
                assert total == euler_phi(u)
            else:
                assert total.is_zero()


def test_inverse_character():
    for chi in enumerate_primitive(5):
        inv = chi.inverse()
        for n in range(1, 5):
            assert chi(n) * inv(n) == 1


def test_enumeration_is_deterministic():
    a = [chi.exponents for chi in enumerate_primitive(25)]
    b = [chi.exponents for chi in enumerate_primitive(25)]
    assert a == b
    assert a == sorted(a)


def test_primitive_characters_are_found_once_per_modulus(monkeypatch):
    atoms = eisenstein_basis(25, 4)
    assert {atom.chi.modulus for atom in atoms} == {1, 5}
    want = [atom.spec_text() for atom in atoms]
    characters._primitive.cache_clear()
    built = []
    group = characters.character_group
    monkeypatch.setattr(characters, "character_group", lambda u: built.append(u) or group(u))
    got = [atoms[i % len(atoms)].spec_text() for i in range(100)]
    assert got == [want[i % len(atoms)] for i in range(100)]
    assert built.count(5) == 1
    # same characters, same order, and a fresh list on each call
    first, second = enumerate_primitive(5), enumerate_primitive(5)
    assert type(first) is list and first is not second
    assert first == [chi for chi in group(5) if chi.is_primitive()]
    first.clear()
    assert enumerate_primitive(5) == second
