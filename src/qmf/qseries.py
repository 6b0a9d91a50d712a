"""Truncated q-expansions with exact cyclotomic coefficients.

A QSeries over Q(zeta_M), M its conductor, stores exponents 0..precision-1
as one positive common denominator and one tuple of int numerators per
power-basis coordinate (a single tuple when M = 1).  The form is canonical:
the denominator and all numerators have gcd 1.  CycNumber values are built
only at the API edge (coefficient, coefficients, items).  Arithmetic tracks
precision as the min of the operands and embeds both into Q(zeta_lcm).

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
operand is packed into one big number of signed slots (each coefficient
plus half the slot base, minus that offset once), the two numbers are
multiplied once, and the product slots are read back after the offset is
added again.  The slots are sized by a proven bound on every product
coefficient, the smaller of max|a| max|b| min(nnz) and ||a|| ||b||
(Cauchy-Schwarz), so no slot can wrap.  Long operands are packed in
decimal, so libmpdec multiplies them with a number-theoretic transform;
mid-size ones are packed into a Python int; short or sparse ones go
through a schoolbook convolution.
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

from ._record import Record
from .scalars import ConductorMismatchError, CycNumber, _exact, _zeta_powers, euler_phi, format_cyc
from .scalars import _pack_signed, _signed_slot_size, _unpack_signed

__all__ = [
    "EtaProduct",
    "InsufficientPrecisionError",
    "QSeries",
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
# Slots per string of a decimal packing: the digit strings are joined a
# chunk at a time, so no list of one string per slot is ever built.
_DECIMAL_CHUNK = 1024
# Eta powers of series shorter than this use the Miller recurrence.
_ETA_SQUARING_MIN = 256
# The largest precision a command expands to (--prec, --xmax, --nmax) or a
# q-series file may declare, and the most cells, phi(conductor) per
# coefficient, such a file may fill: ten times the largest census the tests
# run.  A cold census of Delta at the cap takes about 9 s and peaks near
# 190 MB (numbers in CHANGES.md); far above it a command would run for
# minutes or run out of memory.
MAX_PRECISION = 1_000_000
# The largest conductor a q-series file may declare, checked before
# anything factors it; the derived newform tables reach conductor 280.  The
# table of zeta powers that arithmetic in Q(zeta_M) builds once takes
# 0.3 s and 50 MB at M = 2310 (the primorial 2*3*5*7*11), but 1.1 s and
# 140 MB at M = 3003 and 12 s at the prime M = 9973.
MAX_CONDUCTOR = 2310


class InsufficientPrecisionError(ValueError):
    """Input series is too short; .required says how many coefficients the
    operation needs."""

    def __init__(self, required: int, have: int, what: str = "series"):
        # the fields stay in args, so copy and pickle rebuild the error
        super().__init__(required, have, what)
        self.required = required
        self.have = have

    def __str__(self) -> str:
        required, have, what = self.args
        return f"{what} has {have} coefficients; need at least {required}"


def _wrap(value) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.from_rational(value)


# ---------------------------------------------------------------------------
# integer kernel: products of int sequences


def _convolve(a: Sequence[int], b: Sequence[int], precision: int,
              release: bool = False) -> list[int]:
    """The first `precision` coefficients of the product of two int series.

    With release, a and b are lists that the caller drops after the call,
    so a decimal Kronecker product may empty them as it packs them, and
    their coefficients are not held through the multiplication.
    """
    square = a is b
    va = next((i for i, x in enumerate(a) if x), None)
    vb = va if square else next((i for i, x in enumerate(b) if x), None)
    if va is None or vb is None or va + vb >= precision:
        return [0] * precision
    # strip the valuations and cut at precision, so only the window below
    # it is packed; an operand already in its window is not copied
    shift = va + vb
    count = precision - shift
    if va or len(a) > count:
        a = a[va : va + count]
    if square:
        b = a
    elif vb or len(b) > count:
        b = b[vb : vb + count]
    nnz_a = len(a) - a.count(0)
    nnz_b = nnz_a if square else len(b) - b.count(0)
    if min(nnz_a, nnz_b) < _KRONECKER_MIN_TERMS:
        body = _schoolbook(a, b, count) if nnz_a <= nnz_b else _schoolbook(b, a, count)
    elif nnz_a * nnz_b <= _SPARSE_MAX_PAIRS_PER_SLOT * count:
        body = _sparse_pairs(a, b, count)
    else:
        top_a = max(max(a), -min(a))
        top_b = top_a if square else max(max(b), -min(b))
        norm_a = sum(map(operator.mul, a, a))
        norm_b = norm_a if square else sum(map(operator.mul, b, b))
        # every product coefficient is a sum of at most min(nnz) terms, and
        # by Cauchy-Schwarz at most ||a|| * ||b|| in size; it is an integer,
        # so it is at most the floor of that too
        bound = min(top_a * top_b * min(nnz_a, nnz_b), math.isqrt(norm_a * norm_b))
        body = _kronecker(a, b, bound, count, square, release)
    if not shift and len(body) == precision:
        return body
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


def _kronecker(a, b, bound: int, count: int, square: bool, release: bool) -> list[int]:
    """Product slots 0..count-1 of a*b, where no slot exceeds bound in size.

    Slots have base B > 2 * bound, so every product coefficient c has
    |c| < B/2 and the slots never wrap.  Both bases use signed slots: an
    operand is packed as the digits v + B/2 minus the offset of B/2 in
    every slot, so the packed number is sum(v_k * B^k).  The product plus
    the offset, floor-truncated to count slots, holds c_k + B/2 in slot k,
    and each slot is read once.  Binary slots are those of scalars; decimal
    slots are one digit string per operand, which libmpdec multiplies with
    a number-theoretic transform.  With release, a decimal packing empties
    a and b as it reads them (see _convolve).
    """
    slots = len(a) + len(b) - 1
    count = min(count, slots)
    bits = (2 * bound).bit_length()
    if bits > _DECIMAL_MAX_SLOT_BITS or min(len(a), len(b)) * bits < _DECIMAL_MIN_BITS:
        size = _signed_slot_size(bound)
        packed = _pack_signed(a, size)
        product = packed * (packed if square else _pack_signed(b, size))
        return _unpack_signed(product, size, count)
    digits = len(str(2 * bound))
    half = 10**digits // 2
    assert bound < half, "Kronecker slot too narrow"
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
    )
    pa = _pack_decimal(a, digits, ctx, release)
    pb = pa if square else _pack_decimal(b, digits, ctx, release)
    product = ctx.multiply(pa, pb)
    del pa, pb
    product = ctx.add(product, _decimal_offset(digits, count, ctx))
    # only the low count slots are read, so the high ones are dropped
    # before the number becomes a string
    cut = count * digits
    high = product.scaleb(-cut, ctx).to_integral_value(decimal.ROUND_FLOOR, ctx)
    low = ctx.subtract(product, high.scaleb(cut, ctx))
    del product, high
    text = str(low).zfill(cut)
    del low
    return [int(text[e - digits : e]) - half for e in range(cut, 0, -digits)]


def _pack_decimal(seq: Sequence[int], digits: int, ctx, release: bool) -> decimal.Decimal:
    """sum(v_k * 10^(digits*k)) over the entries v_k of seq, each of size
    below 10^digits / 2: the digits of v_k + 10^digits / 2, most
    significant slot first, minus the offset.  With release, seq is a list
    and is emptied from the top as its chunks are written."""
    half = 10**digits // 2
    count = end = len(seq)
    chunks = []
    while end:
        start = max(end - _DECIMAL_CHUNK, 0)
        chunks.append("".join([str(v + half).zfill(digits) for v in reversed(seq[start:end])]))
        if release:
            del seq[start:]
        end = start
    text = "".join(chunks)
    del chunks
    packed = decimal.Decimal(text)
    del text
    return ctx.subtract(packed, _decimal_offset(digits, count, ctx))


def _decimal_offset(digits: int, count: int, ctx) -> decimal.Decimal:
    """10^digits / 2 in each of count slots, built by doubling the run of
    slots: a few exact additions cost less than parsing its digits."""
    half = decimal.Decimal(5).scaleb(digits - 1, ctx)
    out, slots = half, 1
    for bit in bin(count)[3:]:
        out = ctx.add(out.scaleb(slots * digits, ctx), out)
        slots *= 2
        if bit == "1":
            out = ctx.add(out.scaleb(digits, ctx), half)
            slots += 1
    return out


def _reduce_zeta(terms, conductor: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of the sum of c * zeta^k over the pairs (k, c)
    of terms, each c an int sequence, modulo the conductor's cyclotomic
    polynomial: the terms of one power are summed first, then each power
    goes to its coordinates (scalars._zeta_powers)."""
    raw: dict[int, list] = {}
    for k, c in terms:
        cur = raw.get(k)
        raw[k] = c if cur is None else [u + v for u, v in zip(cur, c)]
    powers, out = _zeta_powers(conductor), {}
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


class QSeries(Record):
    """A q-expansion truncated at a stated precision, an immutable Record.

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
        super().__init__(precision, conductor, den, nums)

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
        set_precision, set_conductor, set_den, set_nums = cls._setters
        set_precision(self, precision)
        set_conductor(self, conductor)
        set_den(self, den)
        set_nums(self, nums)
        return self

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(precision: int) -> "QSeries":
        return QSeries._make(precision, 1, 1, ((0,) * precision,))

    @staticmethod
    def constant(value, precision: int) -> "QSeries":
        return QSeries([_wrap(value)], precision)

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

    def __repr__(self) -> str:
        shown = []
        for n, c in self.items():
            shown.append(f"{format_cyc(c)}*q^{n}" if n else format_cyc(c))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"QSeries({body} + O(q^{self.precision}))"


def _rational(value) -> Fraction | int:
    if isinstance(value, CycNumber):
        return value.as_rational()
    if isinstance(value, (int, Fraction)):
        return value
    return _exact(value)


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
    negative exponents.  Each list of the chain is released to the product
    that consumes it last, so no full-length operand outlives its packing."""
    if power < 1 or precision < _ETA_SQUARING_MIN:
        return _euler_power(step, power, precision)
    cubes, rest = divmod(power, 3)
    out = None
    if rest:
        eta = [0] * precision
        eta[0] = 1
        for e, s in _pentagonal_support(precision, step):
            eta[e] = s
        out = eta if rest == 1 else _convolve(eta, eta, precision, release=True)
    if cubes:
        base = _jacobi_cube(step, precision)
        while True:
            if cubes & 1:
                # base is squared again unless this is the last bit
                out = base if out is None else _convolve(out, base, precision, release=cubes == 1)
            cubes >>= 1
            if not cubes:
                break
            base = _convolve(base, base, precision, release=base is not out)
    return out


class EtaProduct(Record):
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
        super().__init__(cleaned)

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
            acc = part if acc is None else _convolve(acc, part, body, release=True)
        # integers over 1 are canonical
        return QSeries._canonical(precision, 1, 1, (tuple(itertools.chain([0] * shift, acc)),))

    def spec_text(self) -> str:
        return "eta[" + ",".join(f"{d}^{e}" for d, e in self.factors) + "]"

    def __repr__(self) -> str:
        inner = " ".join(f"eta({d}t)^{e}" for d, e in self.factors)
        return f"EtaProduct({inner})"


# ---------------------------------------------------------------------------
# q-series wire format

_HEADER_KEYS = ("conductor", "precision", "level", "maxweight", "weight", "label")


def _cell_width(conductor: int, precision: int) -> int:
    """phi(conductor), the cells per coefficient of a q-series file, once
    its phi(conductor) * precision cells are within MAX_PRECISION."""
    width = euler_phi(conductor)
    if width * precision > MAX_PRECISION:
        raise ValueError(
            f"q-series file declares {width * precision} cells (conductor {conductor}, "
            f"precision {precision}); it is above the cap {MAX_PRECISION}"
        )
    return width


def dump_qseries(series: QSeries, out: TextIO, **headers) -> None:
    """Write the `# qseries v1` representation, if load_qseries takes it.

    Recognized optional headers: level, maxweight, weight, label.  Zero
    coefficients are omitted from the body.
    """
    _cell_width(series.conductor, series.precision)
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
    The declared precision is at most MAX_PRECISION, the conductor at most
    MAX_CONDUCTOR, and the phi(conductor) * precision cells of the series at
    most MAX_PRECISION, all checked before the series is built."""
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
    if conductor > MAX_CONDUCTOR:
        raise ValueError(
            f"q-series file declares conductor {conductor}; it is above the cap {MAX_CONDUCTOR}"
        )
    width = _cell_width(conductor, precision)
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
