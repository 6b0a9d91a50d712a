"""Exact scalar arithmetic over cyclotomic fields.

Every coefficient in this package is an element of some Q(zeta_M), stored on
the power basis 1, zeta, ..., zeta^(phi(M)-1) as one positive denominator
and int coordinates with gcd 1, the shape of a QSeries coefficient, and
reduced modulo the M-th cyclotomic polynomial.  M = 1 gives plain rationals
and is the fast path almost everywhere.  No floating point enters any
computation; floats appear only in human-readable reports.

LinearSolver solves every matrix over Q(zeta_M) with one eliminator: Dixon
p-adic lifting modulo a prime p = 1 mod M under each of the phi(M) maps
Z[zeta_M] -> F_p, with rational reconstruction.  The rank profile mod p is
certified by solving each free column exactly (else the next prime is
tried), and an answer is returned only after A*x == b holds on every row.

Vectors are packed into Python ints, one fixed-width bit slot per entry,
so a row update or a matrix-vector product is a few big-int multiply-adds.
The exact check packs in signed slots of W bits with 2^(W-1) above the
solve's bound on |(A*y)_i| + |d*b_i|; balanced base-2^W digits are unique,
so the packed A*y - d*b is zero exactly when every row holds, and its
pivot slots tell a failing pivot row from a failing other row.
"""
from __future__ import annotations

import bisect
import functools
import math
import operator
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
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
def _zeta_powers(M: int) -> tuple[list[list[tuple[int, int]]], int, int]:
    """(powers, top, norm2): powers[m] the nonzero coordinates (t, c) of
    zeta_M^m, 0 <= m < M, with top the largest |c| and norm2 the largest
    squared norm among them."""
    poly = cyclotomic_polynomial(M)
    v = [1] + [0] * (len(poly) - 2)
    powers = []
    for _ in range(M):
        powers.append([(t, c) for t, c in enumerate(v) if c])
        # times zeta: shift up one power, then fold zeta^phi back by Phi_M
        lead, v = v[-1], [0] + v[:-1]
        v = [a - lead * c for a, c in zip(v, poly)]
    return (powers, max(abs(c) for terms in powers for _, c in terms),
            max(sum(c * c for _, c in terms) for terms in powers))


def _reduce_mod_cyclotomic(coeffs: list[int], M: int) -> list[int]:
    """Reduce a polynomial in zeta_M (low degree first) to the power basis;
    the coefficients may be packed ints, as reduction is linear."""
    powers = _zeta_powers(M)[0]
    out = [0] * (len(cyclotomic_polynomial(M)) - 1)
    for m, x in enumerate(coeffs):
        if x:
            for t, c in powers[m % M]:
                out[t] += c * x
    return out


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
        _set_conductor(self, conductor)
        _set_den(self, den)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in coords))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CycNumber is immutable")

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
        _set_conductor(self, conductor)
        _set_den(self, den)
        _set_nums(self, tuple(nums))
        return self

    @staticmethod
    def from_rational(value: Fraction | int) -> "CycNumber":
        value = Fraction(value)
        return CycNumber._make(1, value.denominator, (value.numerator,))

    @staticmethod
    @functools.cache
    def zero(conductor: int = 1) -> "CycNumber":
        # one instance per conductor: CycNumbers are immutable
        self = object.__new__(CycNumber)
        _set_conductor(self, conductor)
        _set_den(self, 1)
        _set_nums(self, (0,) * euler_phi(conductor))
        return self

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
        [self] * y == [1]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.conductor == 1:
            return CycNumber.from_rational(Fraction(self.den, self.nums[0]))
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


# The slots' own setters: __setattr__ refuses every assignment, and these
# skip the attribute lookup of object.__setattr__ on each of the many
# CycNumbers a solve returns.
_set_conductor, _set_den, _set_nums = (CycNumber.__dict__[name].__set__
                                       for name in CycNumber.__slots__)


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

# The modular path works modulo primes p = 1 mod M, the largest at most
# _MODULUS first: the phi(M) roots r of Phi_M mod p give ring maps Z[zeta_M]
# -> F_p, zeta -> r, which together identify Z[zeta_M] / p with F_p^phi(M).
_MODULUS = 2**61 - 1


def _split_primes(M: int):
    """The primes p = 1 mod M at most _MODULUS, largest first, then above."""
    top = _MODULUS - (_MODULUS - 1) % M
    return filter(is_prime, chain(range(top, 1, -M), count(top + M, M)))


@functools.cache
def _embeddings(M: int, p: int) -> tuple[list[list[int]], "_LU"]:
    """(powers, interpolation): powers[e][t] = r_e^t mod p over the roots
    r_e of Phi_M mod p, and the LU of that matrix, taking a(r_e) to a_t."""
    h = next(h for h in (pow(g, (p - 1) // M, p) for g in count(1))
             if all(pow(h, M // q, p) != 1 for q in factorize(M)))
    powers = [list(accumulate([pow(h, k, p)] * (euler_phi(M) - 1), lambda a, r: a * r % p, initial=1))
              for k in range(M) if math.gcd(k, M) == 1]
    return powers, _LU(powers, len(powers), p)


def _combination(packed: list[list[int]], y: list[int], M: int) -> list[int]:
    """sum_j y_j * column_j over Z[zeta_M], one packed int per coordinate,
    packed[t][j] coordinate t of column j (0 when zero), y_j =
    y[j*phi : (j+1)*phi]; packing is linear, so only the sums must fit."""
    phi = len(packed)
    if phi == 1:
        # a combination of a few atoms has mostly zero coordinates
        return [sum(map(operator.mul, compress(y, y), compress(packed[0], y)))]
    raw = [0] * (2 * phi - 1)
    for j in range(len(y) // phi):
        yj = [(s, v) for s, v in enumerate(y[j * phi:(j + 1) * phi]) if v]
        for t, cols in enumerate(packed):
            if cols[j]:
                for s, v in yj:
                    raw[t + s] += v * cols[j]
    return _reduce_mod_cyclotomic(raw, M)


def _mix(coeffs: list[list[int]], vectors: list, p: int, count: int) -> list[list[int]]:
    """[sum_b row[b] * vectors[b] mod p for row in coeffs] for vectors of
    count residues (None for zeros): count elements evaluated at the roots
    of Phi_M at once."""
    size = _residue_slot_size(p, len(vectors))
    packed = [_pack(v, size) if v else 0 for v in vectors]
    return [[x % p for x in _unpack(sum(map(operator.mul, row, packed)), size, count)]
            for row in coeffs]


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
    """The low count signed slots of a packed int."""
    half = 1 << 8 * size - 1
    low = (packed + _signed_offset(size, count)) & ((1 << 8 * size * count) - 1)
    return [v - half for v in _unpack(low, size, count)]


def _residue_slot_size(p: int, updates: int) -> int:
    # bytes for a slot that starts below p and takes at most `updates`
    # additions of a product of two residues: p + updates*(p-1)^2 < 2^(W-2)
    return -(-(2 * p.bit_length() + updates.bit_length() + 2) // 8)


def _signed_slot_size(bound: int) -> int:
    # the fewest bytes with 2^(W-1) > bound, W = 8*size
    return bound.bit_length() // 8 + 1


class _LU:
    """LU factorisation mod p of an int matrix given by rows, with its rank
    profile: a column's pivot row is the first unused row nonzero there mod
    p, and a column with none is free.  lower[k] holds the multipliers of
    pivots 0..k-1 in pivot row k.  Each row is one packed int, column j in
    slot 0 once columns 0..j-1 are eliminated; an unused row takes f times
    the pivot row's negated tail mod p, one update below p^2 per column.

    Once its whole pivot square has been used for more solves than it has
    pivots (use()), the LU keeps the square's inverse mod p, packed by
    columns in the same slots, and each later solve of the whole square is
    one sum of products and one unpack.  A square solved at most n times,
    such as a Hecke coordinate solver's, builds none."""

    def __init__(self, rows, ncols: int, p: int, size: int | None = None):
        self.p = p
        size = self.slot_size = size or _residue_slot_size(p, ncols)
        shift, low = 8 * size, (1 << 8 * size) - 1
        work = [_pack([a % p for a in row], size) for row in rows]
        unused = list(range(len(work)))
        multipliers: dict[int, list[int]] = {i: [] for i in unused}
        self.pivot_rows, self.pivot_cols, self.lower, self.inv_diag = [], [], [], []
        tails = []
        for j in range(ncols):
            entries = [(work[i] & low) % p for i in unused]
            k = next((k for k, e in enumerate(entries) if e), None)
            if k is None:
                work = [w >> shift for w in work]
                continue
            pr = unused.pop(k)
            self.inv_diag.append(inv := pow(entries.pop(k), -1, p))
            self.pivot_rows.append(pr)
            self.pivot_cols.append(j)
            self.lower.append(multipliers.pop(pr))
            tails.append([a % p for a in _unpack(work[pr] >> shift, size, ncols - j - 1)])
            neg_tail = _pack([-a % p for a in tails[-1]], size)
            for i, e in zip(unused, entries):
                f = e * inv % p
                multipliers[i].append(f)
                work[i] = (work[i] >> shift) + f * neg_tail if f else work[i] >> shift
        # neg_lower[m]: -L[m+1+s][m] mod p in slot s; neg_upper[k]: -U[i][k]
        # mod p in slot i < k.  A substitution step adds at most one product
        # of residues to a slot, so slot_size holds every step.
        cols, n = self.pivot_cols, len(self.pivot_cols)
        self.neg_lower = [_pack([-self.lower[k][m] % p for k in range(m + 1, n)], size)
                          for m in range(n)]
        self.neg_upper = [_pack([-tails[i][cols[k] - cols[i] - 1] % p for i in range(k)], size)
                          for k in range(n)]
        self.uses, self.inverse_columns = 0, None

    def continued(self, c0: int, columns: list[list[int]]) -> "_LU | None":
        """The LU, in this pivot order, of the pivot square whose first c0
        columns are this one's and whose later columns are `columns`, each
        its residues on the pivot rows, or None when a pivot vanishes mod
        p.  Each later column goes through the pivots before it (a
        left-looking LU), so the cost is that of the square."""
        p, size = self.p, self.slot_size
        shift, low = 8 * size, (1 << 8 * size) - 1
        out = object.__new__(_LU)
        out.p, out.slot_size = p, size
        out.inv_diag, out.neg_lower = self.inv_diag[:c0], self.neg_lower[:c0]
        out.neg_upper = self.neg_upper[:c0]
        out.uses, out.inverse_columns = 0, None
        n = c0 + len(columns)
        for j, column in enumerate(columns, c0):
            upper, rest = out.forward(column, j)
            pivot = (rest & low) % p
            if not pivot:
                return None
            inv = pow(pivot, -1, p)
            out.inv_diag.append(inv)
            out.neg_lower.append(_pack([-a * inv % p for a in _unpack(rest >> shift, size, n - j - 1)],
                                       size))
            out.neg_upper.append(_pack([-u % p for u in upper], size))
        return out

    def forward(self, rhs: list[int], k: int) -> tuple[list[int], int]:
        """Forward substitution through the first k pivots: their residues,
        and the packed (unreduced) slots below."""
        p, shift, low = self.p, 8 * self.slot_size, (1 << 8 * self.slot_size) - 1
        acc, out = _pack(rhs, self.slot_size), []
        for col in self.neg_lower[:k]:
            v = (acc & low) % p
            out.append(v)
            acc = (acc >> shift) + v * col
        return out, acc

    def use(self) -> None:
        """Count one solve of the whole pivot square; past n of them, keep
        the inverse: column j is the solution for the unit vector e_j, and
        slot i of sum_j rhs_j * column_j stays below n*p^2, within a slot."""
        n = len(self.inv_diag)
        self.uses += 1
        if self.uses > n > 0 and self.inverse_columns is None:
            self.inverse_columns = [
                _pack(self._substitute([0] * j + [1] + [0] * (n - j - 1), n), self.slot_size)
                for j in range(n)]

    def solve(self, rhs: list[int], k: int) -> list[int]:
        """x with (leading k x k block of the pivot square) * x = rhs mod p,
        rhs residues mod p: by the kept inverse for the whole square, else
        by substitution, where each step reads one slot and adds a multiple
        of one packed column."""
        columns = self.inverse_columns
        if columns is not None and k == len(columns):
            p = self.p
            return [x % p for x in _unpack(sum(map(operator.mul, rhs, columns)), self.slot_size, k)]
        return self._substitute(rhs, k)

    def _substitute(self, rhs: list[int], k: int) -> list[int]:
        p, shift = self.p, 8 * self.slot_size
        acc = _pack(self.forward(rhs, k)[0], self.slot_size)
        x = [0] * k
        for j in range(k - 1, -1, -1):
            top = acc >> shift * j
            acc ^= top << shift * j
            v = x[j] = top % p * self.inv_diag[j] % p
            acc += v * self.neg_upper[j]
        return x


class _DixonFactor:
    """A matrix over Q(zeta_M), columns[j][t] its power-basis coordinate t
    of column j as ints over scales[j] (None when zero, t > 0), factored
    mod p = 1 mod M, and a Dixon p-adic solver (Dixon, Numer. Math. 1982):
    the whole matrix with its rank profile under the first root of Phi_M,
    the pivot square in the same pivot order under the others (`lus` is
    None when a pivot moves).  Digits are interpolated from the roots."""

    def __init__(self, columns, scales, M: int, p: int, nrows: int):
        self.p, self.M, self.columns = p, M, columns
        self.powers, self.interpolation = powers, _ = _embeddings(M, p)
        phi = self.phi = len(powers)

        def residues(col, rows, roots):
            return _mix(roots, [[c[i] % p for i in rows] if c else None for c in col],
                        p, len(rows))

        lu = _LU(zip(*(col[0] if phi == 1 else residues(col, range(nrows), powers[:1])[0]
                       for col in columns)), len(columns), p)
        self.lus = [lu]
        rows, cols = self.pivot_rows, self.pivot_cols = lu.pivot_rows, lu.pivot_cols
        self.free = sorted(set(range(len(columns))).difference(cols))
        self.others = sorted(set(range(nrows)).difference(rows))
        self.order = rows + self.others
        # under the other roots the pivot columns before the first
        # cyclotomic one, c0, and the first c0 steps of the square's LU are
        # unchanged, so only the later columns are factored again
        c0 = next((k for k, j in enumerate(cols) if any(columns[j][1:])), len(cols))
        later = [residues(columns[j], rows, powers[1:]) for j in cols[c0:]]
        for e in range(phi - 1):
            square = lu.continued(c0, [values[e] for values in later])
            if square is None:
                self.lus = None
                break
            self.lus.append(square)
        self.flat_scales = [scales[j] for j in cols for _ in range(phi)]
        _, self.fold_max, norm2 = _zeta_powers(M)
        # l1[j][i]: the sum of |coordinates| of entry i of pivot column j
        l1 = [list(map(sum, zip(*(map(abs, c) for c in columns[j] if c)))) for j in cols]
        self.col_norms = [norm2 * sum(col[i] ** 2 for i in rows) for col in l1]
        self.col_max = [max(col, default=0) for col in l1]
        self.col_top = max(self.col_max, default=0)
        self.flat_col_max = [c for c in self.col_max for _ in range(phi)]
        self.row_sum = max((sum(col[i] for col in l1) for i in rows), default=0)
        self.packing = self.square_packing = None

    def _solve_mod_p(self, rhs: list[list[int]]) -> list[int]:
        """The digit y mod p, y_j = y[j*phi : (j+1)*phi], with square * y ==
        rhs mod p on the leading pivots; rhs holds one list per coordinate."""
        p, k = self.p, len(rhs[0])
        if self.phi == 1:
            return self.lus[0].solve([v % p for v in rhs[0]], k)
        values = _mix(self.powers, [[v % p for v in r] for r in rhs], p, k)
        xs = [lu.solve(v, k) for lu, v in zip(self.lus, values)]
        return [a for x in zip(*xs) for a in self.interpolation.solve(list(x), self.phi)]

    def _pack_columns(self, rows, size: int) -> list[list[int]]:
        # [t][j]: coordinate t of pivot column j on rows, packed signed
        return [[_pack_signed([c[i] for i in rows], size) if c else 0
                 for c in (self.columns[j][t] for j in self.pivot_cols)]
                for t in range(self.phi)]

    def _packing(self, bound: int) -> tuple[int, list[list[int]], int]:
        """(size, columns, offset): the pivot columns over all rows, pivot
        rows first, packed signed with 2^(8*size-1) above bound and every
        entry, and the _signed_offset of that many slots.  The kept packing
        grows at most twofold per solve, so one large-height solve does not
        widen the checks of the small solves after it."""
        kept = self.packing
        size = _signed_slot_size(max(bound, self.col_top))
        if kept is not None and kept[0] >= size:
            return kept
        packing = (size, self._pack_columns(self.order, size), _signed_offset(size, len(self.order)))
        if kept is None or size <= 2 * kept[0]:
            self.packing = packing
        return packing

    def _square_columns(self) -> tuple[int, list[list[int]]]:
        """(size, columns): the pivot square packed signed in slots that
        hold square*digit for every digit with coordinates in [0, p)."""
        if self.square_packing is None:
            size = _signed_slot_size(self.fold_max * self.row_sum * self.phi * (self.p - 1))
            self.square_packing = (size, self._pack_columns(self.pivot_rows, size))
        return self.square_packing

    def _mismatch(self, y: list[int], d: int, b) -> tuple[int, int]:
        """A*y - d*b packed over all rows, its coordinates or-ed together,
        and the mask of the leading pivot rows' slots: slots wide enough for
        |(A*y)_i| + |d*b_i| make it zero exactly when every row holds, and
        its low slots zero exactly when the pivot rows hold."""
        k = len(y) // self.phi
        bound = (self.fold_max * sum(map(operator.mul, self.flat_col_max, map(abs, y)))
                 + d * max(map(abs, chain.from_iterable(b)), default=0))
        size, columns, offset = self._packing(bound)
        order, half = self.order, 1 << 8 * size - 1
        mismatch = 0
        for got, t in zip(_combination(columns, y, self.M), b):
            # the target packed signed (_pack_signed) in one pass over order
            mismatch |= got - d * (_pack([t[i] + half for i in order], size) - offset)
        return mismatch, (1 << 8 * size * k) - 1

    def solve(self, b, k: int | None = None) -> tuple[list[int], int] | None:
        """(nums, d) with A_k*x == b for x = nums / d, A_k the first k pivot
        columns (all by default) and b one int sequence per coordinate, or
        None when there is no such x.  x_j is nums[j*phi : (j+1)*phi]."""
        p, phi = self.p, self.phi
        if k is None or k == len(self.pivot_cols):
            k = len(self.pivot_cols)
            for lu in self.lus if phi == 1 else self.lus + [self.interpolation]:
                lu.use()
        rows = self.pivot_rows[:k]
        rhs = [list(map(t.__getitem__, rows)) for t in b]
        digit = self._solve_mod_p(rhs)
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
                        return list(map(operator.mul, y, self.flat_scales)), d
                    if not mismatch & pivot_mask:
                        # y/d solves the pivot rows exactly and uniquely and
                        # another row fails: b is outside the span
                        return None
            if hadamard_bits is None:
                # Cramer and Hadamard on the k*phi rational system of the
                # coordinates, its columns' squared norms at most col_norms:
                # the solution's numerators and common denominator are at
                # most sqrt(bound / 2), bound = 2 * prod(max(c, nb))^phi <
                # 2^hadamard_bits, the modulus that recovers it
                nb = sum(v * v for r in rhs for v in r)
                hadamard_bits = 1 + phi * sum(max(c, nb).bit_length() for c in self.col_norms[:k])
                last = modulus.bit_length() > hadamard_bits
            if last:
                raise ArithmeticError("p-adic lifting passed the Hadamard bound")
            if residual is None:
                residual = rhs
                size, square = self._square_columns()
            # (residual - square*digit) / p, exact in every coordinate
            product = [_unpack_signed(v, size, k) for v in _combination(square, digit, self.M)]
            residual = [[(v - s) // p for v, s in zip(r, t)] for r, t in zip(residual, product)]
            digit = self._solve_mod_p(residual)
            lifted = [a + modulus * x for a, x in zip(lifted, digit)]
            modulus *= p
            digits += 1


def _reconstruct(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """Numerators and a common denominator of the rationals with these
    residues mod m, each relative to the denominators before it: the unique
    (a, b), a = b*u mod m, |a|, b <= sqrt(m/2), gcd 1 (Wang), or None."""
    bound = math.isqrt((m - 1) // 2)
    nums: list[int] = []
    d = 1
    for u in residues:
        if not u:
            nums.append(0)
            continue
        r0, r1, s0, s1 = m, u * d % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if s1 < 0:
            r1, s1 = -r1, -s1
        if s1 > bound or math.gcd(r1, s1) != 1:
            return None
        if s1 != 1:
            nums = [v * s1 for v in nums]
            d *= s1
        nums.append(r1)
    return nums, d


def _numerators(entries: Sequence[CycNumber], M: int) -> tuple[int, list]:
    """(scale, coordinates) of CycNumbers in Q(zeta_M): the lcm of their
    denominators, and per power-basis coordinate the numerators over it,
    None for a coordinate t > 0 that is zero throughout."""
    entries = [c if c.conductor in (1, M) else c.embed(M) for c in entries]
    scale = math.lcm(1, *(c.den for c in entries))
    coords = [[0] * len(entries) for _ in range(euler_phi(M))]
    for i, c in enumerate(entries):
        f = scale // c.den
        for t, v in enumerate(c.nums):
            if v:
                coords[t][i] = v * f
    return scale, coords[:1] + [t if any(t) else None for t in coords[1:]]


def _embed_numerators(coords, M: int, L: int, nrows: int) -> list:
    # coordinates over Q(zeta_M), as from _numerators, seen in Q(zeta_L)
    entries = [CycNumber._make(M, 1, [t[i] if t else 0 for t in coords]) for i in range(nrows)]
    return _numerators(entries, L)[1]


class LinearSolver:
    """Exact factorization of a matrix over Q(zeta_M), reusable for many
    right-hand sides, by the certified modular eliminator _DixonFactor.

    The matrix comes as CycNumber rows, M the lcm of their conductors, or
    as int columns with scales, column j standing for matrix[j] / scales[j]
    (M = 1).  A target is, with scale, int numerators over it, one sequence
    per power-basis coordinate of Q(zeta_conductor); a solver of CycNumber
    rows also takes one CycNumber per row.  Coordinates come back in
    Q(zeta_L), L the lcm of M and the target's conductor (the matrix is
    factored once per L), 0 at free columns.  rank and free_columns() are
    the rank profile over Q(zeta_M); solve() returns exactly checked
    coordinates, or None when x solves the pivot rows exactly and another
    row fails, which certifies b outside the span."""

    def __init__(self, matrix, scales: Sequence[int] | None = None):
        self._int_columns = scales is not None
        if scales is None:
            self.nrows = len(matrix)
            M = math.lcm(1, *(c.conductor for row in matrix for c in row))
            pairs = [_numerators(col, M) for col in zip(*matrix)]
            scales, columns = [s for s, _ in pairs], [c for _, c in pairs]
        else:
            M, self.nrows, columns = 1, len(matrix[0]), [[col] for col in matrix]
        self.ncols = len(columns)
        self._conductor, self._columns, self._scales, self._factors = M, columns, list(scales), {}
        self._modular = self._factor(M)
        self.rank = len(self._modular.pivot_cols)

    def _factor(self, L: int) -> _DixonFactor:
        """The matrix over Q(zeta_L) factored at the first prime whose square
        is invertible under every root and whose free columns solve exactly
        against the pivot columns before them (relations[f], as (nums, den)),
        so with the rank profile over Q(zeta_L); finitely many primes fail."""
        if L in self._factors:
            return self._factors[L]
        M, nrows, scales = self._conductor, self.nrows, self._scales
        columns = [col if L == M else _embed_numerators(col, M, L, nrows) for col in self._columns]
        for p in _split_primes(L):
            factor = _DixonFactor(columns, scales, L, p, nrows)
            if factor.lus is None:
                continue
            factor.relations = {}
            for f in factor.free:
                got = factor.solve([c or [0] * nrows for c in columns[f]],
                                   bisect.bisect(factor.pivot_cols, f))
                if got is None:
                    break
                factor.relations[f] = got[0], got[1] * scales[f]
            else:
                self._factors[L] = factor
                return factor

    def solve(self, target, scale: int | None = None, conductor: int = 1) -> list[CycNumber] | None:
        if scale is None:
            if self._int_columns:
                raise TypeError("a solver built from int columns takes int targets over a scale")
            conductor = math.lcm(1, *(c.conductor for c in target))
            scale, target = _numerators(target, conductor)
        if any(t is not None and len(t) != self.nrows for t in target):
            raise ValueError("target length does not match row count")
        if scale < 0:
            scale, target = -scale, [t and [-v for v in t] for t in target]
        L = math.lcm(self._conductor, conductor)
        if L != conductor:
            target = _embed_numerators(target, conductor, L, self.nrows)
        factor = self._factor(L)
        got = factor.solve([t or [0] * self.nrows for t in target])
        if got is None:
            return None
        nums, den = got[0], got[1] * scale
        out = [CycNumber.zero(L)] * self.ncols
        for j, x in zip(factor.pivot_cols, zip(*[iter(nums)] * factor.phi)):
            out[j] = CycNumber._make(L, den, x)
        return out

    def free_columns(self) -> list[int]:
        return list(self._modular.free)


def null_space(rows: list[list[int]]) -> list[list[Fraction]]:
    """Basis of the null space of an int matrix from the certified free
    column relations: 1 at its free column, 0 at every other free column."""
    columns = list(zip(*rows))
    factor = LinearSolver(columns, [1] * len(columns))._modular
    basis = []
    for free, (nums, den) in factor.relations.items():
        v = dict(zip(factor.pivot_cols, nums))
        basis.append([Fraction(1) if j == free else Fraction(-v.get(j, 0), den)
                      for j in range(len(columns))])
    return basis
