import io
import random
from fractions import Fraction

import pytest

from qmf.exact import CycNumber
from qmf.qseries import (
    EtaProduct,
    QSeries,
    delta_eta,
    dump_qseries,
    dumps_qseries,
    load_qseries,
)

# frozen oracle: tau(1..10), the eta(tau)^24 coefficients
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]

# frozen oracle: the weight-2 level-11 newform coefficients a(1..10)
LEVEL11 = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2]


def naive_eta_oracle(factors, precision):
    """Slow independent expansion: multiply/divide (1 - q^(dn)) one at a time."""
    coeffs = [Fraction(0)] * precision
    coeffs[0] = Fraction(1)

    def mul_binomial(d):  # multiply by (1 - q^d)
        for i in range(precision - 1, d - 1, -1):
            coeffs[i] -= coeffs[i - d]

    def div_binomial(d):  # divide by (1 - q^d): prefix sums with stride d
        for i in range(d, precision):
            coeffs[i] += coeffs[i - d]

    shift = sum(d * e for d, e in factors)
    assert shift % 24 == 0
    shift //= 24
    for d, e in factors:
        for n in range(1, precision):
            if d * n >= precision:
                break
            for _ in range(abs(e)):
                if e > 0:
                    mul_binomial(d * n)
                else:
                    div_binomial(d * n)
    out = [Fraction(0)] * precision
    for i, c in enumerate(coeffs):
        if i + shift < precision:
            out[i + shift] = c
    return out


def test_series_construction_and_access():
    f = QSeries([1, -24, 252])
    assert f.precision == 3
    assert f.coefficient(1) == -24
    with pytest.raises(IndexError):
        f.coefficient(3)
    assert list(f.items()) == [(0, CycNumber.from_rational(1)),
                               (1, CycNumber.from_rational(-24)),
                               (2, CycNumber.from_rational(252))]


def test_e2_square_coefficient():
    # E2 = 1 - 24 q - 72 q^2 - 96 q^3 ...; the q coefficient of E2*E2 is -48
    e2 = QSeries([1, -24, -72, -96])
    sq = e2 * e2
    assert sq.precision == 4
    assert sq.coefficient(1) == -48


def test_mul_precision_is_min():
    a = QSeries([1, 1, 1, 1, 1])
    b = QSeries([1, 2, 3])
    assert (a * b).precision == 3
    assert (a + b).precision == 3


def test_apply_D():
    f = QSeries([5, 7, 11, 13])
    df = f.apply_D()
    assert [c.as_rational() for c in df.coefficients()] == [0, 7, 22, 39]
    assert f.apply_D(0) is f
    d2 = f.apply_D(2)
    assert d2.coefficient(3) == 13 * 9


def test_dilate_precision_grows():
    f = QSeries([1, 2, 3])
    g = f.dilate(3)
    assert g.precision == 9
    assert g.coefficient(0) == 1
    assert g.coefficient(3) == 2
    assert g.coefficient(6) == 3
    assert g.coefficient(5).is_zero()
    capped = f.dilate(3, precision=4)
    assert capped.precision == 4


def test_dilate_commutes_with_D():
    rng = random.Random(11)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(12)]
    f = QSeries(coeffs)
    for t in (2, 3):
        lhs = f.dilate(t).apply_D()
        rhs = f.apply_D().dilate(t).scale(t)
        assert lhs == rhs


def test_leibniz_rule_fuzz():
    rng = random.Random(404)
    z4 = CycNumber.root_of_unity(4)
    for _ in range(15):
        f = QSeries([z4 ** rng.randint(0, 3) * rng.randint(-3, 3) for _ in range(9)])
        g = QSeries([z4 ** rng.randint(0, 3) * rng.randint(-3, 3) for _ in range(9)])
        lhs = (f * g).apply_D()
        rhs = f.apply_D() * g + f * g.apply_D()
        assert lhs == rhs


def test_conductor_tracking():
    z3 = CycNumber.root_of_unity(3)
    f = QSeries([1, z3])
    g = QSeries([1, CycNumber.root_of_unity(4)])
    assert f.conductor == 3
    assert (f * g).conductor == 12


def test_delta_expansion():
    delta = delta_eta().expand(11)
    assert [delta.coefficient(n).as_rational() for n in range(1, 11)] == TAU
    assert delta.coefficient(0).is_zero()


def test_level11_eta_expansion():
    f = EtaProduct([(1, 2), (11, 2)]).expand(11)
    assert [f.coefficient(n).as_rational() for n in range(1, 11)] == LEVEL11


def test_eta_against_naive_oracle():
    cases = [
        [(1, 24)],
        [(1, 8), (2, 8)],
        [(2, 12)],
        [(1, 2), (2, 2), (3, 2), (6, 2)],
        [(1, 8), (2, -4)],   # negative exponents exercise series division
        [(1, -24), (2, 48)],
    ]
    for factors in cases:
        P = 80
        got = EtaProduct(factors).expand(P)
        want = naive_eta_oracle(factors, P)
        assert [c.as_rational() for c in got.coefficients()] == want


def test_eta_fractional_leading_exponent_rejected():
    with pytest.raises(ValueError) as err:
        EtaProduct([(1, 1)]).expand(10)
    assert "1/24" in str(err.value)


def test_eta_weight():
    assert delta_eta().weight == 12
    assert EtaProduct([(1, 8), (2, 8)]).weight == 8
    assert EtaProduct([(1, 8), (2, -4)]).weight == 2


def test_file_roundtrip():
    z4 = CycNumber.root_of_unity(4)
    f = QSeries([0, 1 + z4, 0, CycNumber.from_rational(Fraction(-3, 7))], 6).embed(4)
    text = dumps_qseries(f, level=25, maxweight=4)
    back, headers = load_qseries(text)
    assert headers == {"level": 25, "maxweight": 4}
    assert back.precision == 6
    assert back.conductor == 4
    assert back.coefficient(1) == 1 + z4
    assert back.coefficient(3) == Fraction(-3, 7)
    assert back.coefficient(2).is_zero()


def test_file_headers_and_errors():
    f = QSeries([1, -24], 4)
    buf = io.StringIO()
    dump_qseries(f, buf, weight=12, label="delta")
    text = buf.getvalue()
    assert text.splitlines()[0] == "# qseries v1"
    assert "weight: 12" in text
    assert "label: delta" in text
    with pytest.raises(ValueError):
        load_qseries("not a qseries\n")
    with pytest.raises(ValueError):
        load_qseries("# qseries v1\nprecision: 4\n0: 1\n")  # missing conductor
    with pytest.raises(ValueError):
        # wrong coordinate count for conductor 4
        load_qseries("# qseries v1\nconductor: 4\nprecision: 4\n1: 1\n")


def test_agrees_with():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 2, 3])
    assert a.agrees_with(b)
    assert not a.agrees_with(QSeries([1, 2, 4]))
