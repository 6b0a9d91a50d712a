"""Truncated q-expansions with exact cyclotomic coefficients.

A QSeries over Q(zeta_M), M its conductor, stores exponents 0..precision-1
as one positive common denominator and one tuple of int numerators per
power-basis coordinate (a single tuple when M = 1).  The form is canonical:
the denominator and all numerators have gcd 1.  CycNumber values are built
only at the API edge (coefficient, coefficients, items).  Arithmetic tracks
precision as the min of the operands and embeds both into Q(zeta_lcm).

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
operand is packed into one big number whose slots are wide enough that no
slot can wrap, the two numbers are multiplied once, and the product slots
are read back.  Long operands are packed in decimal, so libmpdec multiplies
them with a number-theoretic transform; mid-size ones are packed into a
Python int; short or sparse ones go through a schoolbook convolution.
Eta powers eta(d tau)^e with e >= 1 are built from Jacobi's sparse
eta^3 = sum (-1)^k (2k+1) q^(k(k+1)/2), squared repeatedly, times the
sparse pentagonal-number series eta^(e mod 3); negative exponents and
short series use the Miller power recurrence, which the tests also keep as
the oracle.  No
floating point enters any computation.
"""
from __future__ import annotations

import decimal
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from .scalars import ConductorMismatchError, CycNumber, _zeta_powers, euler_phi, format_cyc
from .scalars import _pack_signed, _signed_slot_size, _unpack_signed

__all__ = [
    "EtaProduct",
    "InsufficientPrecisionError",
    "QSeries",
    "delta_eta",
    "dump_qseries",
    "load_qseries",
]

# Crossovers measured on Python 3.11 (numbers in CHANGES.md).  A product
# whose sparser operand has fewer nonzero terms than _KRONECKER_MIN_TERMS
# is a schoolbook convolution.  Otherwise, when both operands are so sparse
# that they make at most _SPARSE_MAX_PAIRS_PER_SLOT nonzero pairs per
# product slot, the pairs are multiplied one by one.  A Kronecker product
# packs into decimal once the shorter operand packs to _DECIMAL_MIN_BITS,
# into an int below.
_KRONECKER_MIN_TERMS = 20
_SPARSE_MAX_PAIRS_PER_SLOT = 8
_DECIMAL_MIN_BITS = 100_000
# Wider slots stay in int packing: each decimal slot goes through int <-> str,
# which must stay under Python's default 4300-digit limit.
_DECIMAL_MAX_SLOT_BITS = 13_000
# Eta powers of series shorter than this use the Miller recurrence.
_ETA_SQUARING_MIN = 256
# The largest precision a command expands to (--prec, --xmax, --nmax) or a
# q-series file may declare: ten times the largest census the tests run.  A
# cold census of Delta at the cap takes about 14 s and peaks near 280 MB
# (numbers in CHANGES.md); far above it a command would run for minutes or
# run out of memory.
MAX_PRECISION = 1_000_000

_ZERO = CycNumber.zero()


class InsufficientPrecisionError(ValueError):
    """Input series is too short; .required says how many coefficients the
    operation needs."""

    def __init__(self, required: int, have: int, what: str = "series"):
        self.required = required
        self.have = have
        super().__init__(
            f"{what} has {have} coefficients; need at least {required}"
        )


def _wrap(value) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.from_rational(value)


# ---------------------------------------------------------------------------
# integer kernel: products of int sequences


def _convolve(a: Sequence[int], b: Sequence[int], precision: int) -> list[int]:
    """The first `precision` coefficients of the product of two int series."""
    square = a is b
    a = a[:precision]
    b = a if square else b[:precision]
    va = next((i for i, x in enumerate(a) if x), None)
    vb = va if square else next((i for i, x in enumerate(b) if x), None)
    if va is None or vb is None or va + vb >= precision:
        return [0] * precision
    # strip the valuations, so only the window below precision is packed
    shift = va + vb
    count = precision - shift
    a = a[va : va + count]
    b = a if square else b[vb : vb + count]
    nnz_a = len(a) - a.count(0)
    nnz_b = nnz_a if square else len(b) - b.count(0)
    if min(nnz_a, nnz_b) < _KRONECKER_MIN_TERMS:
        body = _schoolbook(a, b, count) if nnz_a <= nnz_b else _schoolbook(b, a, count)
    elif nnz_a * nnz_b <= _SPARSE_MAX_PAIRS_PER_SLOT * count:
        body = _sparse_pairs(a, b, count)
    else:
        top_a = max(max(a), -min(a))
        top_b = top_a if square else max(max(b), -min(b))
        # every product coefficient is a sum of at most min(nnz) terms
        bound = top_a * top_b * min(nnz_a, nnz_b)
        body = _kronecker(a, b, bound, count, square)
    out = [0] * shift
    out.extend(body)
    out.extend([0] * (precision - len(out)))
    return out


def _schoolbook(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    # a is the sparser operand; one pass over b per nonzero term of a
    out = [0] * count
    for i, x in enumerate(a):
        if x:
            seg = b[: count - i]
            end = i + len(seg)
            out[i:end] = [u + x * y for u, y in zip(out[i:end], seg)]
    return out


def _sparse_pairs(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    # one product per pair of nonzero terms whose exponents sum below count
    out = [0] * count
    terms_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            room = count - i
            for j, y in terms_b:
                if j >= room:
                    break
                out[i + j] += x * y
    return out


def _kronecker(a, b, bound: int, count: int, square: bool) -> list[int]:
    """Product slots 0..count-1 of a*b, where no slot exceeds bound in size.

    Slots have base B > 2 * bound, so every product coefficient c has
    |c| < B/2 and the slots never wrap.  Binary slots are the signed slots
    of scalars: the product's residue mod B^count, centred, holds the low
    count slots as balanced base-B digits.  Decimal slots pack each operand
    as (positive part) - (negative part), and the balanced digits are read
    back from the product's magnitude, low slot first, with a carry.
    """
    slots = len(a) + len(b) - 1
    count = min(count, slots)
    bits = (2 * bound).bit_length()
    if bits <= _DECIMAL_MAX_SLOT_BITS and min(len(a), len(b)) * bits >= _DECIMAL_MIN_BITS:
        digits = len(str(2 * bound))
        base = 10**digits
        ctx = decimal.Context(
            prec=decimal.MAX_PREC,
            Emax=decimal.MAX_EMAX,
            Emin=decimal.MIN_EMIN,
            traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
        )
        pa = _pack_decimal(a, digits, ctx)
        pb = pa if square else _pack_decimal(b, digits, ctx)
        product = ctx.multiply(pa, pb)
        del pa, pb
        negative = product.is_signed()
        product = ctx.abs(product)
        # only the low count slots are read, so the high ones are dropped
        # before the magnitude becomes a string
        cut = count * digits
        high = product.scaleb(-cut, ctx).to_integral_value(decimal.ROUND_DOWN, ctx)
        text = str(ctx.subtract(product, high.scaleb(cut, ctx)))
        del product, high
        top = len(text)
        magnitude = (
            int(text[max(e - digits, 0) : e]) if e > 0 else 0
            for e in range(top, top - cut, -digits)
        )
    else:
        size = _signed_slot_size(bound)
        packed = _pack_signed(a, size)
        product = packed * (packed if square else _pack_signed(b, size))
        return _unpack_signed(product, size, count)
    half = base // 2
    assert bound < half, "Kronecker slot too narrow"
    out = []
    carry = 0
    for v in magnitude:
        v += carry
        carry = v >= half
        out.append(v - base if carry else v)
    return [-v for v in out] if negative else out


def _pack_decimal(seq: Sequence[int], digits: int, ctx) -> decimal.Decimal:
    # most significant slot first; each string is dropped once parsed
    zero = "0" * digits
    pos = "".join(str(x).zfill(digits) if x > 0 else zero for x in reversed(seq))
    pos = decimal.Decimal(pos)
    neg = "".join(str(-x).zfill(digits) if x < 0 else zero for x in reversed(seq))
    return ctx.subtract(pos, decimal.Decimal(neg))


def _reduce_zeta(terms, conductor: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of the sum of c * zeta^k over the pairs (k, c)
    of terms, each c an int sequence, modulo the conductor's cyclotomic
    polynomial: the terms of one power are summed first, then each power
    goes to its coordinates (scalars._zeta_powers)."""
    raw: dict[int, list] = {}
    for k, c in terms:
        cur = raw.get(k)
        raw[k] = c if cur is None else [u + v for u, v in zip(cur, c)]
    powers, out = _zeta_powers(conductor)[0], {}
    for k, c in raw.items():
        for t, f in powers[k % conductor]:
            cur = out.get(t)
            if cur is None:
                out[t] = c if f == 1 else [f * v for v in c]
            else:
                out[t] = [u + f * v for u, v in zip(cur, c)]
    zero = (0,) * precision
    return tuple(tuple(out[t]) if t in out else zero for t in range(euler_phi(conductor)))


def _embed_nums(nums, source: int, target: int, precision: int):
    """Coordinates of a Q(zeta_source) series, seen in Q(zeta_target)."""
    if source == target:
        return nums
    if target % source:
        raise ConductorMismatchError(f"cannot embed conductor {source} into {target}")
    step = target // source
    return _reduce_zeta(((i * step, t) for i, t in enumerate(nums) if any(t)), target, precision)


def _zeta_product(xs, ys, conductor: int, precision: int):
    """Coordinates of (sum_i xs[i] zeta^i) * (sum_j ys[j] zeta^j), each xs[i]
    and ys[j] an int series: convolve coordinate pairs, then reduce modulo
    the conductor's cyclotomic polynomial once."""
    terms = (
        (i + j, _convolve(x, y, precision))
        for i, x in enumerate(xs) if any(x)
        for j, y in enumerate(ys) if any(y)
    )
    return _reduce_zeta(terms, conductor, precision)


class QSeries:
    """A q-expansion truncated at a stated precision.

    precision P means coefficients of q^0 .. q^(P-1) are known exactly;
    everything at or beyond q^P is unknown, not zero.
    """

    __slots__ = ("precision", "conductor", "_den", "_nums")

    def __init__(self, coeffs: Iterable, precision: int | None = None):
        cs = list(coeffs)
        if precision is None:
            precision = len(cs)
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if len(cs) > precision:
            raise ValueError("more coefficients than precision allows")
        conductor = 1
        for c in cs:
            if isinstance(c, CycNumber) and c.conductor != 1:
                conductor = math.lcm(conductor, c.conductor)
        if conductor == 1:
            cols = [[_rational(c) for c in cs]]
        else:
            cols = list(zip(*(_wrap(c).embed(conductor).coords for c in cs)))
        # lcm of reduced denominators: the canonical form needs no gcd pass
        den = math.lcm(*(x.denominator for col in cols for x in col))
        pad = [0] * (precision - len(cs))
        nums = tuple(
            tuple([x.numerator * (den // x.denominator) for x in col] + pad)
            for col in cols
        )
        self._set(precision, conductor, den, nums)

    def _set(self, precision, conductor, den, nums):
        _set_precision(self, precision)
        _set_conductor(self, conductor)
        _set_den(self, den)
        _set_nums(self, nums)

    @classmethod
    def _make(cls, precision: int, conductor: int, den: int, nums) -> "QSeries":
        """Series from int coordinate sequences over den; reduces them to the
        canonical form."""
        if precision < 1:
            raise ValueError("precision must be at least 1")
        if den != 1:
            g = math.gcd(den, *itertools.chain.from_iterable(nums))
            if g != 1:
                den //= g
                nums = [[x // g for x in t] for t in nums]
        return cls._canonical(precision, conductor, den, tuple(map(tuple, nums)))

    @classmethod
    def _canonical(cls, precision: int, conductor: int, den: int, nums) -> "QSeries":
        # nums a tuple of int tuples, already in the canonical form over den
        self = object.__new__(cls)
        self._set(precision, conductor, den, nums)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(precision: int) -> "QSeries":
        return QSeries._make(precision, 1, 1, ((0,) * precision,))

    @staticmethod
    def constant(value, precision: int) -> "QSeries":
        return QSeries([_wrap(value)], precision)

    @staticmethod
    def from_dict(entries: dict[int, object], precision: int) -> "QSeries":
        cs = [_ZERO] * precision
        for n, c in entries.items():
            if not 0 <= n < precision:
                raise ValueError(f"exponent {n} outside precision {precision}")
            cs[n] = _wrap(c)
        return QSeries(cs, precision)

    # -- access ------------------------------------------------------------
    def coefficient(self, n: int) -> CycNumber:
        if not 0 <= n < self.precision:
            raise IndexError(
                f"coefficient q^{n} requested but precision is {self.precision}"
            )
        return CycNumber._make(self.conductor, self._den, [t[n] for t in self._nums])

    def coefficients(self) -> tuple[CycNumber, ...]:
        return tuple(self.coefficient(n) for n in range(self.precision))

    def items(self) -> Iterator[tuple[int, CycNumber]]:
        """Nonzero (exponent, coefficient) pairs in exponent order."""
        for n in self._support():
            yield n, self.coefficient(n)

    def _support(self) -> Iterator[int]:
        return (n for n, xs in enumerate(zip(*self._nums)) if any(xs))

    def is_zero(self) -> bool:
        return not any(any(t) for t in self._nums)

    def valuation(self) -> int | None:
        """Lowest exponent with nonzero coefficient, None for the zero truncation."""
        return next(self._support(), None)

    def numerators(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, nums), the q^n coefficient being sum_k nums[k][n] zeta^k / d:
        the canonical integers, one tuple per power-basis coordinate."""
        return self._den, self._nums

    def _coords(self, conductor: int, precision: int):
        # numerators truncated to precision and seen in Q(zeta_conductor)
        nums = self._nums
        if precision < self.precision:
            nums = tuple(t[:precision] for t in nums)
        return _embed_nums(nums, self.conductor, conductor, precision)

    # -- arithmetic ----------------------------------------------------------
    def _binary(self, other, sign: int) -> "QSeries":
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.precision)
        p = min(self.precision, other.precision)
        M = math.lcm(self.conductor, other.conductor)
        den = math.lcm(self._den, other._den)
        fx, fy = den // self._den, sign * (den // other._den)
        xs = self._nums if (M, p) == (self.conductor, self.precision) else self._coords(M, p)
        ys = other._nums if (M, p) == (other.conductor, other.precision) else other._coords(M, p)
        # fx * x + fy * y with no multiply by a left factor of 1, which most
        # adds into a running sum have, nor then by a right factor of +-1
        if fx == 1 and fy in (1, -1):
            combine = operator.add if fy == 1 else operator.sub
            nums = [list(map(combine, x, y)) for x, y in zip(xs, ys)]
        elif fx == 1:
            nums = [[u + fy * v for u, v in zip(x, y)] for x, y in zip(xs, ys)]
        else:
            nums = [[fx * u + fy * v for u, v in zip(x, y)] for x, y in zip(xs, ys)]
        return QSeries._make(p, M, den, nums)

    def __add__(self, other):
        return self._binary(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        nums = [[-x for x in t] for t in self._nums]
        return QSeries._make(self.precision, self.conductor, self._den, nums)

    def scale(self, factor) -> "QSeries":
        if isinstance(factor, (int, Fraction)):
            return self._scale_rational(factor.numerator, factor.denominator)
        factor = _wrap(factor)
        if factor.conductor == 1:
            return self._scale_rational(factor.nums[0], factor.den)
        M, p = math.lcm(self.conductor, factor.conductor), self.precision
        factor = factor.embed(M)
        # multiply the numerators by the factor's integer coordinates, then
        # reduce modulo the cyclotomic polynomial once; a rational series
        # seen in a large field has one nonzero coordinate of phi(M)
        ys = [(j, y) for j, y in enumerate(self._coords(M, p)) if any(y)]
        terms = ((i + j, [a * v for v in y])
                 for i, a in enumerate(factor.nums) if a for j, y in ys)
        return QSeries._make(p, M, self._den * factor.den, _reduce_zeta(terms, M, p))

    def _scale_rational(self, n: int, d: int) -> "QSeries":
        # times n/d in lowest terms, d > 0: the canonical form needs only the
        # gcd of n with the denominator and of d with the numerators, and
        # each numerator is multiplied once
        nums, g = self._nums, math.gcd(self._den, n)
        h = math.gcd(d, *itertools.chain.from_iterable(nums)) if d != 1 else 1
        n //= g
        if h == 1:
            nums = tuple(tuple([n * x for x in t]) for t in nums)
        else:
            nums = tuple(tuple([x // h * n for x in t]) for t in nums)
        return QSeries._canonical(self.precision, self.conductor, self._den // g * (d // h), nums)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        p = min(self.precision, other.precision)
        M = math.lcm(self.conductor, other.conductor)
        xs = self._coords(M, p)
        ys = xs if other is self else other._coords(M, p)
        return QSeries._make(p, M, self._den * other._den, _zeta_product(xs, ys, M, p))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scale(other)
        return NotImplemented

    # -- operators ----------------------------------------------------------
    def apply_D(self, r: int = 1) -> "QSeries":
        """(q d/dq)^r: multiplies the q^n coefficient by n^r."""
        if r < 0:
            raise ValueError("derivative order must be nonnegative")
        if r == 0:
            return self
        nums = [[x * n**r if x else 0 for n, x in enumerate(t)] for t in self._nums]
        return QSeries._make(self.precision, self.conductor, self._den, nums)

    def dilate(self, t: int, precision: int | None = None) -> "QSeries":
        """Substitute q -> q^t; known precision grows to t * precision."""
        if t < 1:
            raise ValueError("dilation factor must be positive")
        full = self.precision * t
        target = full if precision is None else min(precision, full)
        count = (target - 1) // t + 1
        nums = []
        for xs in self._nums:
            out = [0] * target
            out[: count * t : t] = xs[:count]
            nums.append(out)
        return QSeries._make(target, self.conductor, self._den, nums)

    def truncate(self, precision: int) -> "QSeries":
        if precision >= self.precision:
            return self
        nums = [t[:precision] for t in self._nums]
        return QSeries._make(precision, self.conductor, self._den, nums)

    def embed(self, conductor: int) -> "QSeries":
        if conductor == self.conductor:
            return self
        nums = _embed_nums(self._nums, self.conductor, conductor, self.precision)
        return QSeries._make(self.precision, conductor, self._den, nums)

    # -- comparison and display ----------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.precision != other.precision:
            return False
        M = math.lcm(self.conductor, other.conductor)
        a, b = self.embed(M), other.embed(M)
        return a._den == b._den and a._nums == b._nums

    __hash__ = None

    def agrees_with(self, other: "QSeries") -> bool:
        """Equality on the shared prefix of known coefficients."""
        p = min(self.precision, other.precision)
        return self.truncate(p) == other.truncate(p)

    def __repr__(self) -> str:
        shown = []
        for n, c in self.items():
            shown.append(f"{format_cyc(c)}*q^{n}" if n else format_cyc(c))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"QSeries({body} + O(q^{self.precision}))"


# The slots' own setters: __setattr__ refuses every assignment, and these
# skip the attribute lookup of object.__setattr__.
_set_precision, _set_conductor, _set_den, _set_nums = (
    QSeries.__dict__[name].__set__ for name in QSeries.__slots__)


def _rational(value) -> Fraction | int:
    if isinstance(value, CycNumber):
        return value.as_rational()
    if isinstance(value, (int, Fraction)):
        return value
    return Fraction(value)


# ---------------------------------------------------------------------------
# eta products

def _pentagonal_support(limit: int, step: int) -> list[tuple[int, int]]:
    """Sparse support of prod(1 - q^(step*n)): pairs (exponent, sign)."""
    out = []
    k = 1
    while True:
        e1 = step * (k * (3 * k - 1) // 2)
        if e1 >= limit:
            break
        s = -1 if k % 2 else 1
        out.append((e1, s))
        e2 = step * (k * (3 * k + 1) // 2)
        if e2 < limit:
            out.append((e2, s))
        k += 1
    return out


def _euler_power(step: int, power: int, precision: int) -> list[int]:
    """Integer coefficients of prod_{n>=1} (1 - q^(step*n))^power.

    Uses the Miller recurrence n*f_n = sum_j ((power+1)*j - n) g_j f_{n-j}
    over the sparse pentagonal support g; cost O(P * sqrt(P/step)).
    """
    support = _pentagonal_support(precision, step)
    f = [0] * precision
    f[0] = 1
    m1 = power + 1
    for n in range(1, precision):
        acc = 0
        for j, s in support:
            if j > n:
                break
            term = (m1 * j - n) * f[n - j]
            acc += term if s > 0 else -term
        q, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError("eta power recurrence lost integrality")
        f[n] = q
    return f


def _jacobi_cube(step: int, precision: int) -> list[int]:
    """prod (1 - q^(step*n))^3 = sum_k (-1)^k (2k+1) q^(step*k(k+1)/2)."""
    f = [0] * precision
    k = e = 0
    while e < precision:
        f[e] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
        e = step * k * (k + 1) // 2
    return f


def _eta_power(step: int, power: int, precision: int) -> list[int]:
    """prod (1 - q^(step*n))^power as (eta^3)^(power // 3) * eta^(power % 3),
    the cube power by repeated squaring; Miller for short series and for
    negative exponents."""
    if power < 1 or precision < _ETA_SQUARING_MIN:
        return _euler_power(step, power, precision)
    cubes, rest = divmod(power, 3)
    out = None
    if rest:
        eta = [0] * precision
        eta[0] = 1
        for e, s in _pentagonal_support(precision, step):
            eta[e] = s
        out = eta if rest == 1 else _convolve(eta, eta, precision)
    if cubes:
        base = _jacobi_cube(step, precision)
        while True:
            if cubes & 1:
                out = base if out is None else _convolve(out, base, precision)
            cubes >>= 1
            if not cubes:
                break
            base = _convolve(base, base, precision)
    return out


class EtaProduct:
    """A finite product of eta(d*tau)^e factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int]]):
        merged: dict[int, int] = {}
        for d, e in factors:
            if d < 1:
                raise ValueError("eta argument multiplier must be positive")
            merged[d] = merged.get(d, 0) + e
        cleaned = tuple(sorted((d, e) for d, e in merged.items() if e))
        if not cleaned:
            raise ValueError("eta product needs at least one factor")
        object.__setattr__(self, "factors", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("EtaProduct is immutable")

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(e for _, e in self.factors), 2)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(d * e for d, e in self.factors), 24)

    def expand(self, precision: int) -> QSeries:
        lead = self.leading_exponent
        if lead.denominator != 1 or lead < 0:
            raise ValueError(
                f"eta product has leading exponent {lead}; expansion needs a nonnegative integer"
            )
        shift = int(lead)
        if shift >= precision:
            return QSeries.zero(precision)
        body = precision - shift
        acc: list[int] | None = None
        for d, e in self.factors:
            part = _eta_power(d, e, body)
            acc = part if acc is None else _convolve(acc, part, body)
        return QSeries._make(precision, 1, 1, [[0] * shift + acc])

    def __eq__(self, other) -> bool:
        return isinstance(other, EtaProduct) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def spec_text(self) -> str:
        return "eta[" + ",".join(f"{d}^{e}" for d, e in self.factors) + "]"

    def __repr__(self) -> str:
        inner = " ".join(f"eta({d}t)^{e}" for d, e in self.factors)
        return f"EtaProduct({inner})"


def delta_eta() -> EtaProduct:
    """The weight-12 level-1 cusp form as eta(tau)^24."""
    return EtaProduct([(1, 24)])


# ---------------------------------------------------------------------------
# q-series wire format

_HEADER_KEYS = ("conductor", "precision", "level", "maxweight", "weight", "label")


def dump_qseries(series: QSeries, out: TextIO, **headers) -> None:
    """Write the `# qseries v1` representation.

    Recognized optional headers: level, maxweight, weight, label.  Zero
    coefficients are omitted from the body.
    """
    out.write("# qseries v1\n")
    out.write(f"conductor: {series.conductor}\n")
    out.write(f"precision: {series.precision}\n")
    for key in _HEADER_KEYS[2:]:
        value = headers.pop(key, None)
        if value is not None:
            out.write(f"{key}: {value}\n")
    if headers:
        raise TypeError(f"unknown headers: {sorted(headers)}")
    for n, c in series.items():
        out.write(f"{n}: {format_cyc(c.embed(series.conductor))}\n")


def dumps_qseries(series: QSeries, **headers) -> str:
    import io

    buf = io.StringIO()
    dump_qseries(series, buf, **headers)
    return buf.getvalue()


def load_qseries(source: TextIO | str) -> tuple[QSeries, dict[str, object]]:
    """Parse the wire format; returns the series and any optional headers.
    The declared precision is at most MAX_PRECISION, checked before the
    series is built."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()
    if not lines or lines[0].strip() != "# qseries v1":
        raise ValueError("missing `# qseries v1` signature line")
    headers: dict[str, object] = {}
    body: dict[int, tuple[int, list[int]]] = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        try:
            if key in _HEADER_KEYS:
                headers[key] = rest if key == "label" else int(rest)
            else:
                body[int(key)] = _parse_coordinates(rest.split())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"unparseable line in q-series file: {raw!r}") from None
    if "conductor" not in headers or "precision" not in headers:
        raise ValueError("q-series file must declare conductor and precision")
    conductor = headers.pop("conductor")
    precision = headers.pop("precision")
    if conductor < 1:
        raise ValueError(f"q-series file declares conductor {conductor}; it must be positive")
    if precision > MAX_PRECISION:
        raise ValueError(
            f"q-series file declares precision {precision}; it is above the cap {MAX_PRECISION}"
        )
    width = euler_phi(conductor)
    for n, (_, nums) in body.items():
        if len(nums) != width:
            raise ValueError(
                f"coefficient at q^{n} has {len(nums)} coordinates, conductor {conductor} needs {width}"
            )
    for n in body:
        if not 0 <= n < precision:
            raise ValueError(f"exponent {n} outside precision {precision}")
    if not body:
        return QSeries.zero(precision), headers
    # every coefficient over the lcm of their denominators
    den = math.lcm(*(d for d, _ in body.values()))
    cols = [[0] * precision for _ in range(width)]
    for n, (d, nums) in body.items():
        f = den // d
        for col, x in zip(cols, nums):
            col[n] = x * f
    return QSeries._make(precision, conductor, den, cols), headers


# ASCII digits, minus and slash: the characters of the p and -p/q tokens
# that _parse_coordinates reads as ints; any other token goes through
# Fraction, so the file format accepts exactly what Fraction parses.
_PLAIN_TOKEN = frozenset("-0123456789/")


def _parse_coordinates(tokens: list[str]) -> tuple[int, list[int]]:
    """(d, nums): the rationals that tokens spell, as ints over d, the lcm
    of their reduced denominators (the canonical form of a CycNumber).
    Raises ValueError or ZeroDivisionError where Fraction(token) does."""
    text = "".join(tokens)
    if not _PLAIN_TOKEN.issuperset(text):
        pairs = [(x.numerator, x.denominator) for x in map(Fraction, tokens)]
    elif "/" not in text:
        return 1, list(map(int, tokens))
    else:
        pairs = []
        for token in tokens:
            top, slash, bottom = token.partition("/")
            if not slash:
                pairs.append((int(top), 1))
                continue
            if not bottom.isdigit():
                raise ValueError(f"not a rational: {token!r}")
            n, d = int(top), int(bottom)
            if not d:
                raise ZeroDivisionError(token)
            g = math.gcd(n, d)
            pairs.append((n // g, d // g))
    d = math.lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]
