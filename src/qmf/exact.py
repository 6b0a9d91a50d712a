"""Exact scalar arithmetic over cyclotomic fields.

Every coefficient in this package is an element of some Q(zeta_M), stored on
the power basis 1, zeta, ..., zeta^(phi(M)-1) as one positive denominator
and int coordinates with gcd 1, the shape of a QSeries coefficient, and
reduced modulo the M-th cyclotomic polynomial.  M = 1 gives plain rationals
and is the fast path almost everywhere.  No floating point enters any
computation; floats appear only in human-readable reports.

LinearSolver solves exactly, with one eliminator per kind of matrix.  A
rational matrix comes as integer columns with a scale each and takes
targets as integer numerators over one scale.  When its rank modulo the
prime 2^61 - 1 equals its column count (proving full column rank over Q) it
is solved in integers by Dixon p-adic lifting with rational
reconstruction, and an answer is returned only after A*x == b holds on
every row; otherwise it goes to the replay eliminator (exact row-echelon
operations).  A matrix of CycNumber rows always goes to the replay, which
is also the Dixon path's test oracle; null_space takes an integer matrix as
int columns.  Inverting a cyclotomic number is one certified solve: x*y = 1
is a rational system in the coordinates of y.

The modular path packs vectors into Python ints, one fixed-width bit slot
per entry, so a row update or a matrix-vector product is a few big-int
multiply-adds.  Rows mod p use unsigned slots of 8*ceil((2*bitlen(p) +
bitlen(ncols) + 2) / 8) bits, which hold ncols updates of size below p^2
without overflow.  The exact check packs the integer columns in signed
slots of W bits with 2^(W-1) above the solve's bound on |(A*y)_i| +
|d*b_i|; balanced base-2^W digits are unique, so the packed A*y - d*b is
zero exactly when every row holds, and its pivot slots tell a failing
pivot row from a failing other row.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

__all__ = [
    "ConductorMismatchError",
    "CycNumber",
    "LinearSolver",
    "bernoulli",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "moebius",
    "null_space",
    "primes_upto",
    "zeta_at_negative",
]

class ConductorMismatchError(ValueError):
    """Raised when an element of Q(zeta_M) is asked to live in a field
    that does not contain it (target conductor not a multiple of M)."""


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials, low-degree-first coefficients.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead:
            raise ArithmeticError("inexact polynomial division")
        q = c // lead
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return out


@functools.cache
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of the M-th cyclotomic polynomial, low degree first.

    Computed by dividing z^M - 1 by the cached cyclotomic polynomials of
    the proper divisors of M, smallest first, so the recursion is at most
    two frames deep.
    """
    if M < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (M + 1)
    num[0], num[M] = -1, 1
    for d in divisors(M)[:-1]:
        num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


# ---------------------------------------------------------------------------
# cyclotomic field elements

def _reduce_mod_cyclotomic(coeffs: list[int], M: int) -> list[int]:
    """Reduce an int polynomial in zeta_M (low degree first) to the power basis."""
    phi = cyclotomic_polynomial(M)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            # phi is monic: z^deg = -(phi[0] + ... + phi[deg-1] z^(deg-1))
            for j in range(deg):
                if phi[j]:
                    coeffs[i - deg + j] -= c * phi[j]
        coeffs.pop()
    coeffs.extend([0] * (deg - len(coeffs)))
    return coeffs


class CycNumber:
    """An element of Q(zeta_M), immutable: sum_k nums[k] zeta^k / den with
    phi(M) int nums, canonical (den > 0, gcd(den, *nums) = 1) like a QSeries
    coefficient; coords views it as Fractions.  Arithmetic between different
    conductors embeds both operands into Q(zeta_lcm).  Equality is
    mathematical (embedding-aware); instances are not hashable.
    """

    __slots__ = ("conductor", "den", "nums")

    def __init__(self, conductor: int, coords: Iterable[Fraction | int]):
        coords = [Fraction(c) for c in coords]
        if conductor < 1:
            raise ValueError("conductor must be positive")
        if len(coords) != euler_phi(conductor):
            raise ValueError(
                f"need {euler_phi(conductor)} coordinates for conductor {conductor}, got {len(coords)}"
            )
        # lcm of reduced denominators: the canonical form needs no gcd pass
        den = math.lcm(*(c.denominator for c in coords))
        self._set(conductor, den, tuple(c.numerator * (den // c.denominator) for c in coords))

    def _set(self, conductor: int, den: int, nums: tuple[int, ...]) -> None:
        setter = object.__setattr__
        setter(self, "conductor", conductor)
        setter(self, "den", den)
        setter(self, "nums", nums)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CycNumber is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def _make(cls, conductor: int, den: int, nums) -> "CycNumber":
        """Element from phi(conductor) ints over den > 0; reduces them to the
        canonical form."""
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
        self = object.__new__(cls)
        self._set(conductor, den, tuple(nums))
        return self

    @staticmethod
    def from_rational(value: Fraction | int) -> "CycNumber":
        value = Fraction(value)
        return CycNumber._make(1, value.denominator, (value.numerator,))

    @staticmethod
    def zero(conductor: int = 1) -> "CycNumber":
        return CycNumber._make(conductor, 1, (0,) * euler_phi(conductor))

    @staticmethod
    def one(conductor: int = 1) -> "CycNumber":
        return CycNumber._make(conductor, 1, (1,) + (0,) * (euler_phi(conductor) - 1))

    @staticmethod
    def root_of_unity(M: int, exponent: int = 1) -> "CycNumber":
        """zeta_M^exponent.  Conductor 2 collapses to the rational -1."""
        exponent %= M
        if M <= 2:
            return CycNumber.from_rational(1 if M == 1 or exponent == 0 else -1)
        raw = [0] * (exponent + 1)
        raw[exponent] = 1
        return CycNumber._make(M, 1, _reduce_mod_cyclotomic(raw, M))

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
        """Multiplicative inverse by one certified LinearSolver solve of
        self*y == 1 for the coordinates of y.  Column j of the matrix is
        self*zeta^j as ints over self's denominator, the target is
        (1, 0, ..., 0); y comes back only once the product holds exactly on
        every coordinate (see LinearSolver)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        M, col = self.conductor, list(self.nums)
        if M == 1:
            return CycNumber.from_rational(Fraction(self.den, col[0]))
        phi = cyclotomic_polynomial(M)
        columns = [col]
        for _ in range(1, len(col)):
            # times zeta: shift up one power, then fold zeta^deg back by Phi_M
            top, col = col[-1], [0] + col[:-1]
            col = [a - top * c for a, c in zip(col, phi)]
            columns.append(col)
        unit = [[1] + [0] * (len(col) - 1)]
        coords = LinearSolver(columns, [self.den] * len(columns)).solve(unit, 1)
        den = math.lcm(*(c.den for c in coords))
        return CycNumber._make(M, den, [c.nums[0] * (den // c.den) for c in coords])

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
# exact linear solving over Q(zeta_M)

# The prime of the modular path: rank mod p equal to the column count proves
# full column rank over Q, and the pivot square is lifted p-adically.
_MODULUS = 2**61 - 1


def _plain(c: CycNumber):
    # conductor-1 entries work as bare Fractions; mixed Fraction/CycNumber
    # arithmetic embeds on demand, and both test zero by truthiness
    return Fraction(c.nums[0], c.den) if c.conductor == 1 else c


def _rational_reconstruction(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b*u mod m, |a| <= bound, 0 < b <= bound and
    gcd(a, b) = 1, or None.  Unique when 2*bound^2 < m (Wang)."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or math.gcd(r1, s1) != 1:
        return None
    return r1, s1


# Packed vectors: entry k of a vector sits in bits [8*size*k, 8*size*(k+1))
# of one int, so a row update or a matrix-vector product is a few big-int
# multiply-adds (Kronecker substitution, as in qseries) instead of one
# Python-level product per entry.

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
    half = 1 << 8 * size - 1
    return [v - half for v in _unpack(packed + _signed_offset(size, count), size, count)]


def _residue_slot_size(p: int, updates: int) -> int:
    # bytes for a slot that starts below p and takes at most `updates`
    # additions of a product of two residues: p + updates*(p-1)^2 < 2^(W-2)
    return -(-(2 * p.bit_length() + updates.bit_length() + 2) // 8)


def _signed_slot_size(bound: int) -> int:
    # the fewest bytes with 2^(W-1) > bound, W = 8*size
    return bound.bit_length() // 8 + 1


def _modular_factor(columns, scales: Sequence[int]) -> "_DixonFactor | None":
    """Certify full column rank modulo _MODULUS of the rational matrix with
    columns columns[j] / scales[j], each column a sequence of ints.

    Pivot rows are found mod p by the eliminator's rule (for each column the
    first unused row with a nonzero entry), keeping the multipliers and
    reduced pivot rows as an LU factorisation of the pivot square.  Returns
    None when some column has no pivot mod p.

    Each row is reduced mod p and packed into one int, column j in slot 0
    once columns 0..j-1 are eliminated.  A new pivot row's tail is reduced
    mod p once, and every other unused row takes f times its negation mod p
    in one multiply-add.  Slots stay nonnegative, so no update borrows, and
    a row takes at most one update per column, each below p^2, which the
    slot width (_residue_slot_size) holds without overflow.
    """
    p = _MODULUS
    n = len(scales)
    size = _residue_slot_size(p, n)
    shift, low = 8 * size, (1 << 8 * size) - 1
    ints = [list(row) for row in zip(*columns)]
    work = [_pack([a % p for a in row], size) for row in ints]
    unused = list(range(len(ints)))
    multipliers: dict[int, list[int]] = {i: [] for i in unused}
    pivot_rows, lower, upper, inv_diag = [], [], [], []
    for j in range(n):
        entries = [(work[i] & low) % p for i in unused]
        k = next((k for k, e in enumerate(entries) if e), None)
        if k is None:
            return None
        pr = unused.pop(k)
        inv = pow(entries.pop(k), -1, p)
        pivot_rows.append(pr)
        lower.append(multipliers.pop(pr))
        inv_diag.append(inv)
        tail = [a % p for a in _unpack(work[pr] >> shift, size, n - j - 1)]
        upper.append(tail)
        neg_tail = _pack([-a % p for a in tail], size)
        for i, e in zip(unused, entries):
            f = e * inv % p
            multipliers[i].append(f)
            work[i] = (work[i] >> shift) + f * neg_tail if f else work[i] >> shift
    return _DixonFactor(p, list(scales), ints, pivot_rows, lower, upper, inv_diag)


class _DixonFactor:
    """A rational matrix of full column rank as integer rows with column
    scales, and a Dixon p-adic solver for its pivot square (Dixon, Numer.
    Math. 1982) built on the square's LU factorisation mod p.

    The triangular solves run on the columns of -L and -U packed mod p.  The
    exact check packs the integer columns of the whole matrix, pivot rows
    first, in signed slots wide enough for the solve at hand.  The kept
    packing serves every solve it is wide enough for; a solve that needs
    wider slots packs for itself, and its packing is kept in place of the
    old one only if at most twice as wide."""

    def __init__(self, p, scales, rows, pivot_rows, lower, upper, inv_diag):
        self.p, self.scales, self.rows, self.pivot_rows = p, scales, rows, pivot_rows
        # lower[k]: multipliers of pivots 0..k-1 in pivot row k; upper[k]:
        # pivot row k right of its pivot; inv_diag[k]: inverse of the pivot
        self.lower, self.upper, self.inv_diag = lower, upper, inv_diag
        n = len(pivot_rows)
        size = self.slot_size = _residue_slot_size(p, n)
        # neg_lower[m]: -L[m+1+s][m] mod p in slot s; neg_upper[k]: -U[i][k]
        # mod p in slot i < k.  A substitution step adds at most one product
        # of residues to a slot, so slot_size holds n steps.
        self.neg_lower = [_pack([-lower[k][m] % p for k in range(m + 1, n)], size)
                          for m in range(n)]
        self.neg_upper = [_pack([-upper[i][k - i - 1] % p for i in range(k)], size)
                          for k in range(n)]
        self.others = sorted(set(range(len(rows))).difference(pivot_rows))
        self.order = pivot_rows + self.others
        square = [rows[i] for i in pivot_rows]
        self.col_norms = [sum(a * a for a in col) for col in zip(*square)]
        self.col_max = [max(map(abs, col)) for col in zip(*rows)]
        self.entry_max = max(self.col_max)
        self.row_sum = max(sum(map(abs, row)) for row in square)
        self.packing = self.square_packing = None

    def _solve_mod_p(self, rhs: list[int]) -> list[int]:
        # pivot square * x = rhs (mod p), rhs reduced, by forward and back
        # substitution: each step reads one slot and adds a multiple of one
        # packed column to the slots still to come
        p, size = self.p, self.slot_size
        shift, low = 8 * size, (1 << 8 * size) - 1
        acc = _pack(rhs, size)
        c = []
        for col in self.neg_lower:
            v = (acc & low) % p
            c.append(v)
            acc = (acc >> shift) + v * col
        acc = _pack(c, size)
        x = [0] * len(c)
        for k in range(len(c) - 1, -1, -1):
            top = acc >> shift * k
            acc ^= top << shift * k
            v = x[k] = top % p * self.inv_diag[k] % p
            acc += v * self.neg_upper[k]
        return x

    def _packing(self, bound: int) -> tuple[int, list[int], int]:
        """(size, columns, pivot mask): the integer columns of all rows,
        pivot rows first, packed signed in slots of size bytes with
        2^(8*size-1) above bound and every entry; the mask covers the pivot
        rows' slots.  Solves of similar height share the kept packing,
        which grows at most twofold per solve, so one large-height solve
        does not widen the check of the small solves after it."""
        kept = self.packing
        size = _signed_slot_size(max(bound, self.entry_max))
        if kept is not None and kept[0] >= size:
            return kept
        columns = zip(*(self.rows[i] for i in self.order))
        packing = (size, [_pack_signed(col, size) for col in columns],
                   (1 << 8 * size * len(self.pivot_rows)) - 1)
        if kept is None or size <= 2 * kept[0]:
            self.packing = packing
        return packing

    def _square_columns(self) -> tuple[int, list[int]]:
        """(size, columns): the pivot square's columns packed signed in
        slots of size bytes, which hold square*digit for every digit vector
        with entries in [0, p)."""
        square = self.square_packing
        if square is None:
            size = _signed_slot_size(self.row_sum * (self.p - 1))
            columns = zip(*(self.rows[i] for i in self.pivot_rows))
            square = self.square_packing = (size, [_pack_signed(col, size) for col in columns])
        return square

    def _mismatch(self, y: list[int], d: int, b: Sequence[int]) -> tuple[int, int]:
        """A*y - d*b packed over all rows, and the pivot rows' slot mask.
        Each signed slot has 2^(W-1) above |(A*y)_i| + |d*b_i|, so the
        packed int is zero exactly when A*y == d*b holds on every row, and
        its low (pivot) slots are zero exactly when the pivot rows hold."""
        bound = sum(map(operator.mul, self.col_max, map(abs, y))) + d * max(map(abs, b))
        size, columns, pivot_mask = self._packing(bound)
        target = _pack_signed([b[i] for i in self.order], size)
        return sum(map(operator.mul, y, columns)) - d * target, pivot_mask

    def solve(self, b: Sequence[int]) -> tuple[list[int], int] | None:
        """(nums, d) with A*x == b for x = nums / d and ints b, or None when
        there is no such x."""
        p, n = self.p, len(self.pivot_rows)
        rhs = [b[i] for i in self.pivot_rows]
        digit = self._solve_mod_p([v % p for v in rhs])
        lifted, modulus, digits = digit, p, 1
        hadamard_bits = residual = None
        while True:
            # reconstruction is tried after 1, 2, 4, 8, ... digits and once
            # more at the Hadamard bound, so its cost stays near linear in
            # the number of digits
            last = hadamard_bits is not None and modulus.bit_length() > hadamard_bits
            if last or digits & (digits - 1) == 0:
                got = _reconstruct(lifted, modulus)
                if got is not None:
                    y, d = got
                    mismatch, pivot_mask = self._mismatch(y, d, b)
                    if not mismatch:
                        return list(map(operator.mul, y, self.scales)), d
                    if not mismatch & pivot_mask:
                        # y/d solves the pivot rows exactly and uniquely and
                        # another row fails: b is outside the span
                        return None
            if hadamard_bits is None:
                # Cramer and Hadamard: the pivot solution has numerators and
                # common denominator at most sqrt(bound / 2), bound =
                # 2 * prod(max(c, nb)) < 2^hadamard_bits, so it is recovered
                # once the modulus reaches 2^hadamard_bits
                nb = sum(v * v for v in rhs)
                hadamard_bits = 1 + sum(max(c, nb).bit_length() for c in self.col_norms)
                last = modulus.bit_length() > hadamard_bits
            if last:
                raise ArithmeticError("p-adic lifting passed the Hadamard bound")
            if residual is None:
                residual = rhs
                size, square = self._square_columns()
            # (residual - square*digit) / p, exact in every row
            product = _unpack_signed(sum(map(operator.mul, digit, square)), size, n)
            residual = [(v - s) // p for v, s in zip(residual, product)]
            digit = self._solve_mod_p([v % p for v in residual])
            lifted = [a + modulus * x for a, x in zip(lifted, digit)]
            modulus *= p
            digits += 1


def _reconstruct(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """Numerators and a common denominator of the rationals with these
    residues mod m, each found relative to the denominators before it."""
    bound = math.isqrt((m - 1) // 2)
    nums: list[int] = []
    d = 1
    for u in residues:
        got = _rational_reconstruction(u * d % m, m, bound)
        if got is None:
            return None
        a, b = got
        if b != 1:
            nums = [v * b for v in nums]
            d *= b
        nums.append(a)
    return nums, d


class _ReplayEliminator:
    """Reduced-row-echelon factorization recorded as row operations.

    Rows are indexed by q-exponent; pivoting picks, for each column, the
    first unused row (lowest exponent) with a nonzero entry.  Replaying the
    operations on a target leaves the coordinates in the pivot rows and
    zeros in every other row exactly when the target is in the span.
    Entries are plain values: Fractions, or CycNumbers of conductor > 1.
    """

    def __init__(self, nrows: int):
        # ops: ("scale", row, factor) and ("axpy", dst, factor, src)
        self.ops: list[tuple] = []
        self.pivot_rows: list[int] = []
        self.pivot_cols: list[int] = []
        self.used = [False] * nrows

    def replay(self, vec: list) -> list:
        vec = list(vec)
        for op in self.ops:
            if op[0] == "scale":
                _, r, f = op
                vec[r] = vec[r] * f
            else:
                _, dst, f, src = op
                s = vec[src]
                # skip zero Fractions only: a zero CycNumber still lifts dst
                # into its field, so no coordinate's conductor depends on
                # which zeros were skipped
                if s or isinstance(s, CycNumber):
                    vec[dst] = vec[dst] - s * f
        return vec

    def pivot(self, column: list, index: int) -> bool:
        """Eliminate the column numbered index; False (and no ops) if it is
        dependent on the earlier ones."""
        work = self.replay(column)
        used = self.used
        pr = next((i for i in range(len(used)) if not used[i] and work[i]), None)
        if pr is None:
            return False
        used[pr] = True
        self.pivot_rows.append(pr)
        self.pivot_cols.append(index)
        p = work[pr]
        inv = p.inverse() if isinstance(p, CycNumber) else 1 / p
        self.ops.append(("scale", pr, inv))
        self.ops.extend(
            ("axpy", i, f, pr) for i, f in enumerate(work) if f and i != pr
        )
        return True


class LinearSolver:
    """Exact factorization of a matrix over Q(zeta_M), reusable for many
    right-hand sides.  Each kind of matrix has one eliminator:

      int columns with scales   Dixon lifting mod _MODULUS, certified; the
                                replay when rank mod p < ncols
      CycNumber rows            the replay

    With scales, column j of the matrix stands for matrix[j] / scales[j].
    A target is, with scale, int numerators over it, one sequence per
    power-basis coordinate of Q(zeta_conductor); a solver of CycNumber rows
    also takes one CycNumber per row.  Coordinates come back as CycNumbers.

    Rank mod p equal to the column count proves full column rank over Q (a
    nonzero minor mod p is nonzero).  solve() then lifts each power-basis
    coordinate of the target p-adically on a mod-p LU factorisation of the
    pivot square, tries rational reconstruction after 1, 2, 4, ... digits
    and at the Hadamard bound, and builds each coordinate from the lifted
    numerators with one gcd.  Coordinates are returned only after A*x == b
    holds exactly on every row, by the packed check; None only when x
    solves the pivot rows exactly and another row fails, which certifies
    that b is outside the span.

    The replay (_ReplayEliminator) records exact row-echelon operations on
    Fractions and CycNumbers, so its rank is exact for any matrix; it is
    the Dixon path's test oracle.  Its coordinates live in Q(zeta_M), M the
    lcm of the conductors of the matrix and of the target.
    """

    def __init__(self, matrix, scales: Sequence[int] | None = None):
        self._int_columns = scales is not None
        self._modular = self._replay = None
        if scales is None:
            self.nrows = len(matrix)
            self._conductor = math.lcm(1, *(c.conductor for row in matrix for c in row))
            columns = [[_plain(c) for c in col] for col in zip(*matrix)]
        else:
            self.nrows, self._conductor = len(matrix[0]), 1
            if len(matrix) <= self.nrows:
                self._modular = _modular_factor(matrix, scales)
            if self._modular is not None:
                self.ncols = self.rank = len(matrix)
                return
            columns = [[Fraction(a, s) for a in col] for s, col in zip(scales, matrix)]
        self.ncols = len(columns)
        replay = self._replay = _ReplayEliminator(self.nrows)
        self.rank = sum(replay.pivot(col, j) for j, col in enumerate(columns))

    def solve(self, target, scale: int | None = None, conductor: int = 1) -> list[CycNumber] | None:
        if scale is not None:
            if any(len(t) != self.nrows for t in target):
                raise ValueError("target length does not match row count")
            if scale < 0:
                scale, target = -scale, [[-v for v in t] for t in target]
        elif self._int_columns:
            raise TypeError("a solver built from int columns takes int targets over a scale")
        modular = self._modular
        if modular is not None:
            # the matrix is rational, so each power-basis coordinate of the
            # target is a rational system of its own
            parts = [modular.solve(t) for t in target]
            if None in parts:
                return None
            den = math.lcm(*(d for _, d in parts))
            coords = zip(*([v * (den // d) for v in nums] for nums, d in parts))
            den *= scale
            return [CycNumber._make(conductor, den, xs) for xs in coords]
        if scale is not None:
            target = [CycNumber._make(conductor, scale, xs) for xs in zip(*target)]
        if len(target) != self.nrows:
            raise ValueError("target length does not match row count")
        replay = self._replay
        vec = replay.replay([_plain(c) for c in target])
        if any(v for v, used in zip(vec, replay.used) if not used):
            return None
        out = [CycNumber.zero() for _ in range(self.ncols)]
        for col, row in zip(replay.pivot_cols, replay.pivot_rows):
            v = vec[row]
            if not isinstance(v, CycNumber):
                v = CycNumber.from_rational(v)
            out[col] = v.embed(math.lcm(self._conductor, v.conductor))
        return out

    def free_columns(self) -> list[int]:
        if self._modular is not None:
            return []
        pivots = set(self._replay.pivot_cols)
        return [c for c in range(self.ncols) if c not in pivots]


def null_space(rows: list[list]) -> list[list]:
    """Basis of the null space of an exact matrix: one vector per free
    column, with 1 there and 0 at every other free column.  A matrix of
    ints is factored as int columns and gives Fraction vectors; CycNumber
    rows give CycNumber vectors."""
    basis = []
    if any(isinstance(c, CycNumber) for row in rows for c in row):
        solver = LinearSolver(rows)
        for free in solver.free_columns():
            v = solver.solve([-row[free] for row in rows])
            v[free] = CycNumber.one()
            basis.append(v)
        return basis
    columns = list(zip(*rows))
    solver = LinearSolver(columns, [1] * len(columns))
    for free in solver.free_columns():
        v = [c.as_rational() for c in solver.solve([[-a for a in columns[free]]], 1)]
        v[free] = Fraction(1)
        basis.append(v)
    return basis
