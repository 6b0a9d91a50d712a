import io
import random
import re
from fractions import Fraction
from unittest import mock

import pytest

from qmf import qseries
from qmf.scalars import CycNumber, euler_phi
from qmf.newforms import _BUILTIN_ETA
from qmf.qseries import (
    EtaProduct,
    QSeries,
    _euler_power,
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


@pytest.mark.parametrize("precision", [1, 2, 92])
def test_zero_has_the_storage_of_an_empty_series(precision):
    got, want = QSeries.zero(precision), QSeries([], precision)
    assert (got.precision, got.conductor, got.numerators()) == (
        want.precision, want.conductor, want.numerators())
    assert got == want and got.is_zero()


def test_zero_refuses_what_the_constructor_refuses():
    for precision in (0, -3):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            QSeries.zero(precision)
        with pytest.raises(ValueError, match="precision must be at least 1"):
            QSeries([], precision)


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


@pytest.mark.parametrize("bad_line", ["1: 1/0", "precision: 4.5", "weight: twelve"])
def test_file_with_unparseable_value_names_the_line(bad_line):
    text = f"# qseries v1\nconductor: 1\nprecision: 4\n{bad_line}\n"
    with pytest.raises(ValueError, match=f"unparseable line in q-series file: '{bad_line}'"):
        load_qseries(text)


@pytest.mark.parametrize("conductor", [0, -3])
def test_file_with_nonpositive_conductor_names_it(conductor):
    text = f"# qseries v1\nconductor: {conductor}\nprecision: 4\n1: 1\n"
    with pytest.raises(ValueError, match=f"conductor {conductor}; it must be positive"):
        load_qseries(text)


def fraction_parse(text):
    """The q-series file parse as it was before load_qseries read integers,
    kept as its oracle: every coordinate a Fraction, each coefficient a
    CycNumber, the series QSeries.from_dict."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "# qseries v1":
        raise ValueError("missing `# qseries v1` signature line")
    headers, body = {}, {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        try:
            if key in qseries._HEADER_KEYS:
                headers[key] = rest if key == "label" else int(rest)
            else:
                body[int(key)] = [Fraction(tok) for tok in rest.split()]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"unparseable line in q-series file: {raw!r}") from None
    if "conductor" not in headers or "precision" not in headers:
        raise ValueError("q-series file must declare conductor and precision")
    conductor, precision = headers.pop("conductor"), headers.pop("precision")
    if conductor < 1:
        raise ValueError(f"q-series file declares conductor {conductor}; it must be positive")
    width = euler_phi(conductor)
    entries = {}
    for n, coords in body.items():
        if len(coords) != width:
            raise ValueError(
                f"coefficient at q^{n} has {len(coords)} coordinates, conductor {conductor} needs {width}"
            )
        entries[n] = CycNumber(conductor, coords)
    return QSeries.from_dict(entries, precision), headers


def parse_outcome(parse, text):
    """What a parse makes of text: the series' exact data and the headers,
    or the error it raises."""
    try:
        series, headers = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return series.precision, series.conductor, series.numerators(), headers


def random_cyclotomic_file(rng, conductor, precision, nonzeros):
    coeffs = [CycNumber.zero(conductor)] * precision
    for n in rng.sample(range(precision), nonzeros):
        coeffs[n] = CycNumber(conductor, [
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() < 0.7 else 0
            for _ in range(euler_phi(conductor))])
    return dumps_qseries(QSeries(coeffs, precision), level=8, weight=12, label="c")


@pytest.mark.parametrize("conductor, precision", [(1, 400), (109, 40)])
def test_load_matches_the_fraction_parse(conductor, precision):
    # rational and Q(zeta_109) files read to the very same canonical integers
    rng = random.Random(f"load {conductor}")
    text = random_cyclotomic_file(rng, conductor, precision, precision // 3)
    want = parse_outcome(fraction_parse, text)
    assert want[1] == conductor and want[2][0] > 1
    assert parse_outcome(load_qseries, text) == want
    # a file in another hand: every fraction unreduced
    edited = re.sub(r"(-?\d+)/(\d+)", lambda m: f"{3 * int(m[1])}/{3 * int(m[2])}", text)
    assert edited != text
    assert parse_outcome(load_qseries, edited) == want


@pytest.mark.parametrize("tokens", [
    "3/6 -4/8 0/5 007", "-0 +3 1.5 1e2", "1_000 2", "\u0663 1", "12345678901234567890/3 -1",
    "5/0 1", "0/0 1", "5/ 1", "/5 1", "5/-3 1", "--5 1", "- 1", "1/2/3 1", "x 1", "1", "1 2 3", "",
])
def test_load_reads_each_token_as_fraction_does(tokens):
    # integers and p/q take the int parse, anything else goes through
    # Fraction; both accept and refuse the same tokens with the same error
    tokens = tokens.encode().decode("unicode_escape")
    for precision in (4, 0, -1):
        text = f"# qseries v1\nconductor: 3\nprecision: {precision}\n1: {tokens}\n2: 1 0\n"
        assert parse_outcome(load_qseries, text) == parse_outcome(fraction_parse, text)


def test_load_builds_the_series_from_integers():
    # no Fraction per coordinate and one QSeries._make for the whole file
    rng = random.Random("one make")
    text = random_cyclotomic_file(rng, 109, 30, 10)
    want = fraction_parse(text)
    real_make = QSeries._make
    with mock.patch.object(qseries, "Fraction", side_effect=AssertionError("Fraction built")), \
            mock.patch.object(QSeries, "_make", side_effect=real_make) as makes:
        got = load_qseries(text)
    assert got == want
    assert makes.call_count == 1


def test_load_refuses_a_precision_above_the_cap():
    text = f"# qseries v1\nconductor: 1\nprecision: {qseries.MAX_PRECISION + 1}\n1: 1\n"
    with mock.patch.object(QSeries, "_make", side_effect=AssertionError("series built")):
        with pytest.raises(ValueError, match=(
                f"^q-series file declares precision {qseries.MAX_PRECISION + 1}; "
                f"it is above the cap {qseries.MAX_PRECISION}$")):
            load_qseries(text)
    series, _ = load_qseries(text.replace(str(qseries.MAX_PRECISION + 1), str(qseries.MAX_PRECISION)))
    assert series.precision == qseries.MAX_PRECISION


def test_agrees_with():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 2, 3])
    assert a.agrees_with(b)
    assert not a.agrees_with(QSeries([1, 2, 4]))


# ------------------------------------------------------- integer kernel oracles

def fraction_product_oracle(xs, ys, precision):
    """Schoolbook product of two coefficient lists over Fraction."""
    out = [Fraction(0)] * precision
    for i, x in enumerate(xs[:precision]):
        if x:
            for j, y in enumerate(ys[: precision - i]):
                out[i + j] += x * y
    return out


def cyc_product_oracle(xs, ys, precision):
    """Schoolbook product of two coefficient lists over CycNumber."""
    out = [CycNumber.zero()] * precision
    for i, x in enumerate(xs[:precision]):
        for j, y in enumerate(ys[: precision - i]):
            out[i + j] = out[i + j] + x * y
    return out


def miller_oracle(factors, precision):
    """An eta product from Miller powers and a plain int convolution."""
    shift = sum(d * e for d, e in factors) // 24
    body = precision - shift
    acc = [1] + [0] * (body - 1)
    for d, e in factors:
        part = _euler_power(d, e, body)
        out = [0] * body
        for i, x in enumerate(acc):
            if x:
                for j in range(body - i):
                    out[i + j] += x * part[j]
        acc = out
    return [0] * shift + acc


def random_fractions(rng, length, bits):
    out = []
    for _ in range(length):
        if rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.getrandbits(bits) * rng.choice((-1, 1)),
                                rng.randint(1, 60)))
    return out


@pytest.mark.parametrize("length, bits, packs_decimal", [
    (qseries._KRONECKER_MIN_TERMS // 2, 30, False),   # schoolbook
    (qseries._KRONECKER_MIN_TERMS * 4, 30, False),    # int Kronecker
    (400, 300, True),                                 # decimal Kronecker
])
def test_product_paths_match_fraction_oracle(monkeypatch, length, bits, packs_decimal):
    packed = []
    real_pack = qseries._pack_decimal
    monkeypatch.setattr(qseries, "_pack_decimal",
                        lambda *a: packed.append(1) or real_pack(*a))
    rng = random.Random(length * 7 + bits)
    xs, ys = random_fractions(rng, length, bits), random_fractions(rng, length, bits)
    got = QSeries(xs) * QSeries(ys)
    assert [c.as_rational() for c in got.coefficients()] == fraction_product_oracle(xs, ys, length)
    square = QSeries(xs) * QSeries(xs)
    assert [c.as_rational() for c in square.coefficients()] == fraction_product_oracle(xs, xs, length)
    assert bool(packed) == packs_decimal


def test_negative_decimal_product_matches_fraction_oracle(monkeypatch):
    # valuation 0 and a negative top term make the packed product negative,
    # and its top slot, 2 * length - 2, lies in the high half of the product
    # that the decimal path drops unread
    packed = []
    real_pack = qseries._pack_decimal
    monkeypatch.setattr(qseries, "_pack_decimal",
                        lambda *a: packed.append(1) or real_pack(*a))
    length = 400
    rng = random.Random(length * 7 + 301)
    xs, ys = random_fractions(rng, length, 300), random_fractions(rng, length, 300)
    xs[0] = ys[0] = Fraction(1)
    xs[-1], ys[-1] = -abs(xs[-1]) or Fraction(-1), abs(ys[-1]) or Fraction(1)
    got = QSeries(xs) * QSeries(ys)
    assert [c.as_rational() for c in got.coefficients()] == fraction_product_oracle(xs, ys, length)
    assert packed


def test_negative_int_product_matches_fraction_oracle(monkeypatch):
    # the int path keeps the low slots of the product mod 2^(W*count),
    # centred; a negative top term makes the packed product negative and
    # the dropped slots up to 2 * length - 2 nonzero, and with this seed the
    # kept slots read as a negative number too, so they need the centring
    packed = []
    real_pack = qseries._pack_signed
    monkeypatch.setattr(qseries, "_pack_signed",
                        lambda *a: packed.append(1) or real_pack(*a))
    length = qseries._KRONECKER_MIN_TERMS * 4
    rng = random.Random(length * 7 + 33)
    xs, ys = random_fractions(rng, length, 30), random_fractions(rng, length, 30)
    xs[0] = ys[0] = Fraction(1)
    xs[-1], ys[-1] = -abs(xs[-1]) or Fraction(-1), abs(ys[-1]) or Fraction(1)
    want = fraction_product_oracle(xs, ys, length)
    assert want[-1] < 0
    got = QSeries(xs) * QSeries(ys)
    assert [c.as_rational() for c in got.coefficients()] == want
    assert packed == [1, 1]


def spy_on_sparse_pairs(monkeypatch):
    calls = []
    real = qseries._sparse_pairs
    monkeypatch.setattr(qseries, "_sparse_pairs",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def random_sparse_fractions(rng, length, nonzeros, bits):
    out = [Fraction(0)] * length
    for k in rng.sample(range(length), nonzeros):
        out[k] = Fraction((rng.getrandbits(bits) | 1) * rng.choice((-1, 1)),
                          rng.randint(1, 60))
    return out


@pytest.mark.parametrize("length, nonzeros, bits", [(1500, 50, 30), (2500, 90, 300)])
def test_sparse_products_match_fraction_oracle(monkeypatch, length, nonzeros, bits):
    calls = spy_on_sparse_pairs(monkeypatch)
    rng = random.Random(length + bits)
    xs = random_sparse_fractions(rng, length, nonzeros, bits)
    ys = random_sparse_fractions(rng, length, nonzeros, bits)
    got = QSeries(xs) * QSeries(ys)
    assert [c.as_rational() for c in got.coefficients()] == fraction_product_oracle(xs, ys, length)
    square = QSeries(xs) * QSeries(xs)
    assert [c.as_rational() for c in square.coefficients()] == fraction_product_oracle(xs, xs, length)
    assert len(calls) == 2


@pytest.mark.parametrize("step", [1, 2, 7])
def test_sparse_eta_cube_squares_match_miller(monkeypatch, step):
    # Jacobi's eta^3 has about sqrt(2P/step) nonzero terms, so its square
    # is a sparse product
    calls = spy_on_sparse_pairs(monkeypatch)
    P = 3000
    cube = qseries._jacobi_cube(step, P)
    assert qseries._convolve(cube, cube, P) == _euler_power(step, 6, P)
    assert calls == [1]


@pytest.mark.parametrize("length, bits", [(60, 64), (300, 400)])
def test_kronecker_slot_holds_the_extreme_bound(length, bits):
    # equal extreme coefficients make the last product slot reach the bound
    # max|a| * max|b| * min(nnz) exactly
    top = 2**bits - 1
    for sign in (1, -1):
        f = QSeries([sign * top] * length)
        g = QSeries([top] * length)
        got = (f * g).coefficients()
        assert [c.as_rational() for c in got] == [sign * (k + 1) * top * top for k in range(length)]


def test_cyclotomic_products_match_oracle():
    rng = random.Random(5)
    z3, z4 = CycNumber.root_of_unity(3), CycNumber.root_of_unity(4)
    for length in (5, 30, 70):
        xs = [z3 ** rng.randint(0, 2) * Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(length)]
        ys = [z4 ** rng.randint(0, 3) * Fraction(rng.randint(-99, 99), rng.randint(1, 9))
              for _ in range(length)]
        got = QSeries(xs) * QSeries(ys)
        assert got.conductor == 12
        want = cyc_product_oracle(xs, ys, length)
        assert all(got.coefficient(n) == want[n] for n in range(length))


def test_canonical_storage_makes_equal_series_equal():
    half = QSeries([Fraction(1, 2), Fraction(3, 2), 0])
    assert half + half == QSeries([1, 3, 0])
    assert half.scale(Fraction(2, 3)) == QSeries([Fraction(1, 3), 1, 0])
    assert (half - half).is_zero()
    z4 = CycNumber.root_of_unity(4)
    f = QSeries([1, z4, Fraction(2, 5)])
    assert f.embed(12) == f
    assert f.embed(12).embed(24) == f.embed(8)
    assert f.scale(z4).scale(z4) == -f
    assert f.truncate(2).agrees_with(f)


@pytest.mark.parametrize("conductor", [1, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dens", [(1, 1), (6, 6), (6, 1), (1, 6), (4, 6)])
def test_add_and_sub_match_the_fraction_oracle(dens, sign, conductor):
    # the left factor of the common denominator is 1 when the left
    # denominator is the lcm, the right one when the right is, both when
    # they are equal; the right operand is shorter, and over Q(zeta_3) the
    # rational right operand is embedded while the left is read as is
    rng = random.Random(f"{dens} {sign} {conductor}")
    dx, dy = dens
    zeta = CycNumber.root_of_unity(conductor)
    xs = [zeta ** rng.randint(0, 2) * Fraction(rng.randint(-10**20, 10**20), dx)
          for _ in range(30)]
    xs[0] = CycNumber.from_rational(Fraction(1, dx))  # the denominator is dx
    ys = [Fraction(rng.randint(-50, 50), dy) for _ in range(25)]
    ys[0] = Fraction(1, dy)
    x, y = QSeries(xs), QSeries(ys)
    assert x.numerators()[0] == dx and y.numerators()[0] == dy
    got = x + y if sign == 1 else x - y
    want = [a + sign * b for a, b in zip(xs, ys)]
    assert (got.precision, got.conductor) == (25, conductor)
    assert got.coefficients() == tuple(want)
    assert got.numerators() == QSeries(want).numerators()
    flipped = y + x if sign == 1 else y - x
    assert flipped.coefficients() == tuple(sign * c for c in want)


def test_eta_expansion_matches_miller_for_delta_to_20001():
    P = 20001
    got = delta_eta().expand(P)
    assert [c.as_rational() for c in got.coefficients()] == [0] + _euler_power(1, 24, P - 1)


def test_eta_expansion_matches_miller_for_builtin_catalog():
    P = 2 * qseries._ETA_SQUARING_MIN + 17
    for spaces in _BUILTIN_ETA.values():
        for _, factors in spaces:
            got = EtaProduct(factors).expand(P)
            assert [c.as_rational() for c in got.coefficients()] == miller_oracle(factors, P)
