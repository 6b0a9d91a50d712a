"""The immutable value records: equality, hashing, immutability, copies and reprs.
The package's exceptions copy and pickle too."""

import ast
import copy
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import qmf
from qmf.characters import DirichletCharacter, character_group, trivial_character
from qmf.errors import CatalogIncompleteError, DerivationError, RankDeficientError
from qmf.cli import FormSpecError
from qmf.detect import CensusReport, DetectReport, MacMahonTable
from qmf.eisenstein import EisensteinAtom, raw_e2_atom
from qmf.newforms import CuspAtom, HeckeReport, NewformRecord, newforms_for
from qmf.qseries import EtaProduct, InsufficientPrecisionError, QSeries
from qmf.quasimodular import BasisAtom, Decomposition, PrecisionPolicy, decompose
from qmf.scalars import ConductorMismatchError, CycNumber


def delta():
    return newforms_for(1, 12)[0]


# each case: the record class, then a function giving its fields and the
# same fields with one of them changed
CASES = [
    (BasisAtom, lambda: (("eis", raw_e2_atom(), 1), ("eis", raw_e2_atom(), 2))),
    (PrecisionPolicy, lambda: ((6, 8, 55), (6, 8, 56))),
    (Decomposition, lambda: (([raw_e2_atom()], [CycNumber.one()], False, 92, 0),
                             ([raw_e2_atom()], [CycNumber.one()], False, 92, 1))),
    (CuspAtom, lambda: ((delta(), 2), (delta(), 3))),
    (NewformRecord, lambda: ((1, 12, "a", delta().source), (1, 12, "b", delta().source))),
    (HeckeReport, lambda: (("1.12.a", 40, True, 3, 4, None), ("1.12.a", 40, False, 3, 4, None))),
    (EisensteinAtom, lambda: ((4, trivial_character(), 1), (4, trivial_character(), 2))),
    (DirichletCharacter, lambda: ((5, (1,)), (5, (2,)))),
    (EtaProduct, lambda: ((((1, 24),),), (((1, 12),),))),
    (MacMahonTable, lambda: ((2, 3, (0, 0, 0)), (2, 3, (0, 0, 1)))),
    (DetectReport, lambda: ((1, 10, [], [4]), (1, 11, [], [4]))),
    (CensusReport, lambda: ((100, 1, "0.05", [2], 1, 2, 1.5, 2.5),
                            (100, 1, "0.05", [2], 1, 2, 1.5, 3.5))),
]


@pytest.mark.parametrize("cls,fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_records_are_immutable_values_of_their_fields(cls, fields):
    (same, changed) = fields()
    a, b = cls(*same), cls(*same)
    assert a == b and not a != b
    assert a != cls(*changed)
    assert cls(**dict(zip(cls.__slots__, same))) == a == copy.copy(a)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert a != same and a != tuple(getattr(a, name) for name in cls.__slots__)
    try:
        hash(same)
    except TypeError:
        # a record holding a list is unhashable, as a tuple holding one is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(a, cls.__slots__[0], same[0])
    with pytest.raises(TypeError):
        cls(*same, same[0])
    with pytest.raises(TypeError):
        cls(*same[:len(same) // 2])


def newform_9_8_b(precision):
    (b,) = [rec for rec in newforms_for(9, 8) if rec.label == "b"]
    return b.expand(precision)


VALUES = [
    ("rational series", lambda: QSeries([Fraction(1, 2), 0, -3, Fraction(5, 7)], 6)),
    ("newform[9,8,b] to 30", lambda: newform_9_8_b(30)),
    ("one", CycNumber.one),
    ("zero of Q(zeta_40)", lambda: CycNumber.zero(40)),
    ("dense element of Q(zeta_109)",
     lambda: CycNumber(109, [Fraction(k * k - 50, k + 1) for k in range(108)])),
    ("9.8 decomposition", lambda: decompose(newform_9_8_b(120), 9, 8)),
]


@pytest.mark.parametrize("make", [make for _, make in VALUES], ids=[name for name, _ in VALUES])
def test_values_copy_deep_copy_and_pickle(make):
    value = make()
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value


# each case: an exception of the package, the text it prints, and the
# fields it carries besides args
ERRORS = [
    (InsufficientPrecisionError(166, 83, "input series"),
     "input series has 83 coefficients; need at least 166", {"required": 166, "have": 83}),
    (InsufficientPrecisionError(5, 2), "series has 2 coefficients; need at least 5",
     {"required": 5, "have": 2}),
    (CatalogIncompleteError(5, 10, "eigenline splitting found 0 lines, expected 1"),
     "newform space (level 5, weight 10) is not available: "
     "eigenline splitting found 0 lines, expected 1",
     {"level": 5, "weight": 10, "detail": "eigenline splitting found 0 lines, expected 1"}),
    (CatalogIncompleteError(7, 2), "newform space (level 7, weight 2) is not available",
     {"level": 7, "weight": 2, "detail": ""}),
    (FormSpecError(4, "stray character '!'"), "at position 4: stray character '!'",
     {"position": 4, "reason": "stray character '!'"}),
    (DerivationError("span fell short"), "span fell short", {}),
    (RankDeficientError("cap reached"), "cap reached", {}),
    (ConductorMismatchError("no room"), "no room", {}),
]


@pytest.mark.parametrize("error,text,fields", ERRORS,
                         ids=[f"{type(e).__name__}-{i}" for i, (e, _, _) in enumerate(ERRORS)])
def test_exceptions_copy_deep_copy_and_pickle(error, text, fields):
    assert str(error) == text
    for copied in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
        assert type(copied) is type(error) and copied.args == error.args
        assert str(copied) == text
        assert {name: getattr(copied, name) for name in fields} == fields


def test_only_record_stores_slots():
    # every value stores its slots through Record: no other module assigns
    # past __setattr__ or keeps a slot's own setter
    offences = []
    for path in sorted(Path(qmf.__file__).resolve().parent.glob("*.py")):
        if path.name == "_record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                offences.append(f"{path.name}:{node.lineno} defines __setattr__")
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "__setattr__" and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                offences.append(f"{path.name}:{node.lineno} calls object.__setattr__")
            elif isinstance(node, ast.Attribute) and node.attr == "__set__" and (
                    isinstance(node.value, ast.Subscript)
                    and isinstance(node.value.value, ast.Attribute)
                    and node.value.value.attr == "__dict__"):
                offences.append(f"{path.name}:{node.lineno} takes a slot's setter")
    assert offences == []


def test_generic_reprs_keep_their_text():
    assert repr(CuspAtom(delta(), 2)) == (
        "CuspAtom(record=NewformRecord(1.12.delta, eta[1^24]), n=2)")
    assert repr(PrecisionPolicy(6, 8, 55)) == "PrecisionPolicy(level=6, maxweight=8, atom_count=55)"
    assert repr(HeckeReport("1.12.a", 40, True, 3, 4)) == (
        "HeckeReport(record='1.12.a', precision=40, ok=True, multiplicative_checks=3, "
        "prime_power_checks=4, failure=None)")


def test_conductor_is_the_least_modulus_the_character_factors_through():
    # chi mod u has conductor f when f is the least divisor of u with chi(a)
    # = chi(b) for all units a = b mod f
    for u in range(1, 65):
        units = [n for n in range(1, u + 1) if math.gcd(n, u) == 1]
        for chi in character_group(u):
            values = {n: chi(n) for n in units}
            brute = min(f for f in range(1, u + 1) if u % f == 0 and all(
                values[n] == values[m] for n in units for m in units if m < n and (n - m) % f == 0))
            assert chi.conductor == brute, (u, chi)
