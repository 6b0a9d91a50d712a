"""Exact scalars: cyclotomic numbers and the number theory under them.

Every coefficient in this package is an element of some Q(zeta_M), stored on
the power basis 1, zeta, ..., zeta^(phi(M)-1) as one positive denominator
and int coordinates with gcd 1, the shape of a QSeries coefficient, and
reduced modulo the M-th cyclotomic polynomial.  M = 1 gives plain rationals
and is the fast path almost everywhere.  No floating point enters any
computation; floats appear only in human-readable reports.

This module holds CycNumber, the number theory, Bernoulli numbers and the
cyclotomic tables, and the signed-slot packing that q-series products and
the eliminator in `exact` share.  The eliminator is not loaded with it:
CycNumber.inverse imports `exact` when it runs, so a command that only
scans series never compiles the eliminator.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

from ._record import Record

__all__ = [
    "ConductorMismatchError",
    "CycNumber",
    "bernoulli",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "factorize",
    "format_cyc",
    "is_prime",
    "moebius",
    "primes_upto",
    "zeta_at_negative",
]


class ConductorMismatchError(ValueError):
    """Raised when an element of Q(zeta_M) is asked to live in a field
    that does not contain it (target conductor not a multiple of M)."""


def _exact(value) -> Fraction:
    """Fraction(value) for an exact value; a float is refused, as its binary
    fraction (0.1 is 3602879701896397/36028797018963968) is not the number
    it prints."""
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is not exact; pass an int, a Fraction or a string such as '1/10'"
        )
    return Fraction(value)


# ---------------------------------------------------------------------------
# elementary number theory helpers

def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; n must be >= 1."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def primes_upto(x: int) -> list[int]:
    """All primes p <= x by sieve."""
    if x < 2:
        return []
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, x + 1) if sieve[i]]


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first 13 prime bases decide every
    n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n >= 3317044064679887385961981:
        raise ValueError("is_prime is proven only below 3317044064679887385961981")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# cyclotomic polynomials

@functools.cache
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, low degree first:
    the product of (z^d - 1)^mu(M/d) over the divisors d of M, with every
    factor of exponent 1 multiplied in before those of exponent -1 are
    divided out, each division exact."""
    if M < 1:
        raise ValueError("conductor must be positive")
    poly = [1]
    for d in sorted(divisors(M), key=lambda d: -moebius(M // d)):
        if moebius(M // d) == 1:
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
        elif moebius(M // d) == -1:
            # (z^d - 1) * q = poly: q_i = q_(i-d) - poly_i
            q: list[int] = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(poly)


# ---------------------------------------------------------------------------
# cyclotomic field elements

@functools.cache
def _zeta_powers(M: int) -> list[list[tuple[int, int]]]:
    """powers[m]: the nonzero coordinates (t, c) of zeta_M^m, 0 <= m < M."""
    poly = cyclotomic_polynomial(M)
    v = [1] + [0] * (len(poly) - 2)
    powers = []
    for _ in range(M):
        powers.append([(t, c) for t, c in enumerate(v) if c])
        # times zeta: shift up one power, then fold zeta^phi back by Phi_M
        lead, v = v[-1], [0] + v[:-1]
        v = [a - lead * c for a, c in zip(v, poly)]
    return powers


def _reduce_mod_cyclotomic(coeffs: list[int], M: int) -> list[int]:
    """Reduce a polynomial in zeta_M (low degree first) to the power basis;
    the coefficients may be packed ints, as reduction is linear."""
    powers = _zeta_powers(M)
    out = [0] * (len(cyclotomic_polynomial(M)) - 1)
    for m, x in enumerate(coeffs):
        if x:
            for t, c in powers[m % M]:
                out[t] += c * x
    return out


class CycNumber(Record):
    """An element of Q(zeta_M), immutable: sum_k nums[k] zeta^k / den with
    phi(M) int nums, canonical (den > 0, gcd(den, *nums) = 1) like a QSeries
    coefficient; coords views it as Fractions.  Arithmetic between different
    conductors embeds both operands into Q(zeta_lcm).  Equality is
    mathematical (embedding-aware); instances are not hashable.  Like
    QSeries, it is a Record, so it copies and pickles.
    """

    __slots__ = ("conductor", "den", "nums")

    def __init__(self, conductor: int, coords: Iterable[Fraction | int]):
        coords = [_exact(c) for c in coords]
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if len(coords) != euler_phi(conductor):
            raise ValueError(
                f"need {euler_phi(conductor)} coordinates for conductor {conductor}, got {len(coords)}"
            )
        # lcm of reduced denominators: the canonical form needs no gcd pass
        den = math.lcm(*(c.denominator for c in coords))
        super().__init__(conductor, den,
                         tuple(c.numerator * (den // c.denominator) for c in coords))

    # -- constructors -----------------------------------------------------
    @classmethod
    def _make(cls, conductor: int, den: int, nums) -> "CycNumber":
        """Element from phi(conductor) ints over den > 0; reduces them to the
        canonical form.  A zero is the shared CycNumber.zero(conductor)."""
        if not any(nums):
            return CycNumber.zero(conductor)
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
        self = object.__new__(cls)
        set_conductor, set_den, set_nums = cls._setters
        set_conductor(self, conductor)
        set_den(self, den)
        set_nums(self, tuple(nums))
        return self

    @staticmethod
    def from_rational(value: Fraction | int) -> "CycNumber":
        value = _exact(value)
        return CycNumber._make(1, value.denominator, (value.numerator,))

    @staticmethod
    @functools.cache
    def zero(conductor: int = 1) -> "CycNumber":
        # one instance per conductor: CycNumbers are immutable
        return CycNumber(conductor, (0,) * euler_phi(conductor))

    @staticmethod
    def one(conductor: int = 1) -> "CycNumber":
        return CycNumber._make(conductor, 1, (1,) + (0,) * (euler_phi(conductor) - 1))

    @staticmethod
    def root_of_unity(M: int, exponent: int = 1) -> "CycNumber":
        """zeta_M^exponent.  Conductor 2 collapses to the rational -1."""
        exponent %= M
        if M <= 2:
            return CycNumber.from_rational(1 if M == 1 or exponent == 0 else -1)
        return CycNumber._make(M, 1, _reduce_mod_cyclotomic([0] * exponent + [1], M))

    # -- basic predicates -------------------------------------------------
    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return self.conductor == 1 or not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- embeddings -------------------------------------------------------
    def embed(self, target: int) -> "CycNumber":
        """Image under Q(zeta_M) -> Q(zeta_target), zeta_M -> zeta_target^(target/M)."""
        if target == self.conductor:
            return self
        if target % self.conductor:
            raise ConductorMismatchError(
                f"cannot embed conductor {self.conductor} into {target}"
            )
        nums, step = self.nums, target // self.conductor
        raw = [0] * ((len(nums) - 1) * step + 1)
        raw[::step] = nums
        return CycNumber._make(target, self.den, _reduce_mod_cyclotomic(raw, target))

    # -- arithmetic -------------------------------------------------------
    def _pair(self, other) -> tuple["CycNumber", "CycNumber"] | None:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other)
        elif not isinstance(other, CycNumber):
            return None
        if self.conductor == other.conductor:
            return self, other
        M = math.lcm(self.conductor, other.conductor)
        return self.embed(M), other.embed(M)

    def _combine(self, other, sign: int):
        # self + sign * other over the lcm of the denominators
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        return CycNumber._make(a.conductor, den, [fa * x + fb * y for x, y in zip(a.nums, b.nums)])

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber._make(self.conductor, self.den, [-x for x in self.nums])

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return CycNumber._make(self.conductor, self.den * other.denominator,
                                   [x * n for x in self.nums])
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        den = a.den * b.den
        if a.conductor == 1:
            return CycNumber._make(1, den, (a.nums[0] * b.nums[0],))
        xs, ys = a.nums, b.nums
        raw = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        raw[i + j] += x * y
        return CycNumber._make(a.conductor, den, _reduce_mod_cyclotomic(raw, a.conductor))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse by one certified 1x1 LinearSolver solve,
        [self] * y == [1]: its restriction to Q is the phi x phi matrix of
        multiplication by self, solved against the coordinates of 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            return CycNumber.from_rational(Fraction(self.den, self.nums[0]))
        from .exact import LinearSolver

        return LinearSolver([[self]]).solve([CycNumber.one(self.conductor)])[0]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycNumber.one(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison and display -------------------------------------------
    def __eq__(self, other) -> bool:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # mathematical equality across conductors; keep unhashable

    def sort_key(self) -> tuple:
        """Deterministic total order key (conductor, then Fraction coordinates)."""
        return (self.conductor, self.coords)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CycNumber({self.as_rational()})"
        return f"CycNumber(M={self.conductor}, {format_cyc(self)})"


def format_cyc(x: CycNumber) -> str:
    """Space-separated power-basis coordinates, each as p or p/q."""
    return " ".join(str(c) for c in x.coords)


# ---------------------------------------------------------------------------
# Bernoulli numbers

@functools.cache
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number for even k >= 2 (convention B_1 = -1/2).

    Uses the recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, where B_j = 0 for
    odd j > 1; B_2, ..., B_{k-2} are read from the cache in increasing
    order, so the recursion is at most two frames deep.
    """
    if k < 2 or k % 2:
        raise ValueError("bernoulli is defined here for even k >= 2")
    acc = 1 - Fraction(k + 1, 2)  # the terms of B_0 and B_1
    for j in range(2, k, 2):
        acc += math.comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def zeta_at_negative(k: int) -> Fraction:
    """zeta(1 - k) = -B_k / k for even k >= 2."""
    return -bernoulli(k) / k


# ---------------------------------------------------------------------------
# packed int vectors

# Packed vectors: entry k of a vector sits in bits [8*size*k, 8*size*(k+1))
# of one int, so a row update or a matrix-vector product of the eliminator
# in `exact`, or a product of int series in `qseries` (Kronecker
# substitution), is a few big-int multiply-adds instead of one Python-level
# product per entry.

def _pack(values: Iterable[int], size: int) -> int:
    """One int holding values, each in [0, 2^(8*size)), in size-byte slots."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(size), repeat("little"))),
                          "little")


def _unpack(packed: int, size: int, count: int) -> list[int]:
    """The count nonnegative slots of a packed int."""
    end = size * count
    data = packed.to_bytes(end, "little")
    slots = map(data.__getitem__, map(slice, range(0, end, size), range(size, end + size, size)))
    return list(map(int.from_bytes, slots, repeat("little")))


def _signed_offset(size: int, count: int) -> int:
    # 2^(W-1) in each of count slots, W = 8*size
    return int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * count, "little")


def _pack_signed(values: Sequence[int], size: int) -> int:
    """sum(v_k * 2^(W*k)) with W = 8*size, for -2^(W-1) <= v_k < 2^(W-1).
    Balanced base-2^W digits are unique, so such values are read back
    exactly."""
    half = 1 << 8 * size - 1
    return _pack([v + half for v in values], size) - _signed_offset(size, len(values))


def _unpack_signed(packed: int, size: int, count: int) -> list[int]:
    """The low count signed slots of a packed int."""
    half = 1 << 8 * size - 1
    low = (packed + _signed_offset(size, count)) & ((1 << 8 * size * count) - 1)
    return [v - half for v in _unpack(low, size, count)]


def _signed_slot_size(bound: int) -> int:
    # the fewest bytes with 2^(W-1) > bound, W = 8*size
    return bound.bit_length() // 8 + 1
