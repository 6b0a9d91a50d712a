"""Exact linear solving over cyclotomic fields, by one rational eliminator.

LinearSolver factors every matrix over Q: Dixon p-adic lifting modulo a
prime p, with rational reconstruction.  A matrix over Q(zeta_M) is
restricted to Q, column j becoming the phi(M) columns of the coordinates
of zeta^s times column j, s < phi(M); a rational matrix solves a target
over Q(zeta_L) one coordinate at a time.  The rank profile mod p is
certified by solving each free column exactly (else the next prime is
tried), and an answer is returned only after A*x == b holds on every row.

Vectors are packed into Python ints, one fixed-width bit slot per entry
(the packing helpers of `scalars`), so a row update or a matrix-vector
product is a few big-int multiply-adds.  The exact check packs in signed
slots of W bits with 2^(W-1) above the solve's bound on |(A*y)_i| +
|d*b_i|; balanced base-2^W digits are unique, so the packed A*y - d*b is
zero exactly when every row holds, and its pivot slots tell a failing pivot
row from a failing other row.
"""
from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from itertools import chain, compress, count
from typing import Sequence

from .scalars import (
    CycNumber,
    _pack,
    _pack_signed,
    _signed_offset,
    _signed_slot_size,
    _unpack,
    _unpack_signed,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
)

__all__ = ["CycNumber", "LinearSolver", "null_space"]


# ---------------------------------------------------------------------------
# exact linear solving over Q

# Dixon's lifting works modulo primes, the largest at most _MODULUS first.
_MODULUS = 2**61 - 1


def _primes():
    """The primes at most _MODULUS, largest first, then those above it."""
    return filter(is_prime, chain(range(_MODULUS, 1, -1), count(_MODULUS + 1)))


def _combination(packed: list[int], y: list[int]) -> int:
    """sum_j y_j * packed[j]; packing is linear, so only the sum must fit,
    and a combination of a few atoms skips its many zero y_j."""
    return sum(map(operator.mul, compress(y, y), compress(packed, y)))


def _residue_slot_size(p: int, updates: int) -> int:
    # bytes for a slot that starts below p and takes at most `updates`
    # additions of a product of two residues: p + updates*(p-1)^2 < 2^(W-2)
    return -(-(2 * p.bit_length() + updates.bit_length() + 2) // 8)


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

    def __init__(self, rows, ncols: int, p: int):
        self.p = p
        size = self.slot_size = _residue_slot_size(p, ncols)
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
        # forward through the first k pivots, then back from the last one
        p, size = self.p, self.slot_size
        shift, low = 8 * size, (1 << 8 * size) - 1
        acc, forward = _pack(rhs, size), []
        for col in self.neg_lower[:k]:
            v = (acc & low) % p
            forward.append(v)
            acc = (acc >> shift) + v * col
        acc = _pack(forward, size)
        x = [0] * k
        for j in range(k - 1, -1, -1):
            top = acc >> shift * j
            acc ^= top << shift * j
            v = x[j] = top % p * self.inv_diag[j] % p
            acc += v * self.neg_upper[j]
        return x


class _DixonFactor:
    """A rational matrix, columns[j] its int column over scales[j], factored
    mod p by one _LU with its rank profile, and a Dixon p-adic solver of it
    (Dixon, Numer. Math. 1982): each digit is one solve mod p, and the
    solution is reconstructed from the digits."""

    def __init__(self, columns, scales, p: int, nrows: int):
        self.p, self.columns = p, columns
        lu = self.lu = _LU(zip(*columns), len(columns), p)
        rows, cols = self.pivot_rows, self.pivot_cols = lu.pivot_rows, lu.pivot_cols
        self.free = sorted(set(range(len(columns))).difference(cols))
        self.others = sorted(set(range(nrows)).difference(rows))
        self.order = rows + self.others
        self.pivot_scales = [scales[j] for j in cols]
        self.col_norms = [sum(columns[j][i] ** 2 for i in rows) for j in cols]
        self.col_max = [max(map(abs, columns[j]), default=0) for j in cols]
        self.col_top = max(self.col_max, default=0)
        self.row_sum = max((sum(abs(columns[j][i]) for j in cols) for i in rows), default=0)
        self.packing = self.square_packing = None

    def _solve_mod_p(self, rhs: list[int]) -> list[int]:
        """The digit y mod p with square * y == rhs mod p on the leading
        pivots."""
        p = self.p
        return self.lu.solve([v % p for v in rhs], len(rhs))

    def _pack_columns(self, rows, size: int) -> list[int]:
        # each pivot column on rows, packed signed
        return [_pack_signed([self.columns[j][i] for i in rows], size) for j in self.pivot_cols]

    def _packing(self, bound: int) -> tuple[int, list[int], int]:
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

    def _square_columns(self) -> tuple[int, list[int]]:
        """(size, columns): the pivot square packed signed in slots that
        hold square*digit for every digit with entries in [0, p)."""
        if self.square_packing is None:
            size = _signed_slot_size(self.row_sum * (self.p - 1))
            self.square_packing = (size, self._pack_columns(self.pivot_rows, size))
        return self.square_packing

    def _mismatch(self, y: list[int], d: int, b) -> tuple[int, int]:
        """A*y - d*b packed over all rows, and the mask of the leading pivot
        rows' slots: slots wide enough for |(A*y)_i| + |d*b_i| make it zero
        exactly when every row holds, and its low slots zero exactly when
        the pivot rows hold."""
        bound = (sum(map(operator.mul, self.col_max, map(abs, y)))
                 + d * max(map(abs, b), default=0))
        size, columns, offset = self._packing(bound)
        half = 1 << 8 * size - 1
        # the target packed signed (_pack_signed) in one pass over order
        target = _pack([b[i] + half for i in self.order], size) - offset
        return _combination(columns, y) - d * target, (1 << 8 * size * len(y)) - 1

    def solve(self, b, k: int | None = None) -> tuple[list[int], int] | None:
        """(nums, d) with A_k*x == b for x = nums / d, A_k the first k pivot
        columns (all by default) and b an int sequence over the rows, or
        None when there is no such x."""
        p = self.p
        if k is None or k == len(self.pivot_cols):
            k = len(self.pivot_cols)
            self.lu.use()
        rhs = list(map(b.__getitem__, self.pivot_rows[:k]))
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
                        return list(map(operator.mul, y, self.pivot_scales)), d
                    if not mismatch & pivot_mask:
                        # y/d solves the pivot rows exactly and uniquely and
                        # another row fails: b is outside the span
                        return None
            if hadamard_bits is None:
                # Cramer and Hadamard on the k x k pivot system, its columns'
                # squared norms at most col_norms: the solution's numerators
                # and common denominator are at most sqrt(bound / 2), bound =
                # 2 * prod(max(c, nb)) < 2^hadamard_bits, the modulus that
                # recovers it
                nb = sum(v * v for v in rhs)
                hadamard_bits = 1 + sum(max(c, nb).bit_length() for c in self.col_norms[:k])
                last = modulus.bit_length() > hadamard_bits
            if last:
                raise ArithmeticError("p-adic lifting passed the Hadamard bound")
            if residual is None:
                residual = rhs
                size, square = self._square_columns()
            # (residual - square*digit) / p, exact in every row
            product = _unpack_signed(_combination(square, digit), size, k)
            residual = [(v - s) // p for v, s in zip(residual, product)]
            digit = self._solve_mod_p(residual)
            lifted = [a + modulus * x for a, x in zip(lifted, digit)]
            modulus *= p
            digits += 1


def _certified(columns, scales, nrows: int) -> _DixonFactor:
    """The rational matrix factored at the first prime whose free columns
    solve exactly against the pivot columns before them (relations[f], as
    (nums, den)), so with the rank profile over Q; finitely many primes
    fail."""
    for p in _primes():
        factor = _DixonFactor(columns, scales, p, nrows)
        factor.relations = {}
        for f in factor.free:
            got = factor.solve(columns[f], bisect.bisect(factor.pivot_cols, f))
            if got is None:
                break
            factor.relations[f] = got[0], got[1] * scales[f]
        else:
            return factor


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


def _numerators(entries: Sequence[CycNumber], M: int) -> tuple[int, list[list[int]]]:
    """(scale, coordinates) of CycNumbers in Q(zeta_M): the lcm of their
    denominators, and per power-basis coordinate the numerators over it."""
    entries = [c if c.conductor in (1, M) else c.embed(M) for c in entries]
    scale = math.lcm(1, *(c.den for c in entries))
    coords = [[0] * len(entries) for _ in range(euler_phi(M))]
    for i, c in enumerate(entries):
        f = scale // c.den
        for t, v in enumerate(c.nums):
            if v:
                coords[t][i] = v * f
    return scale, coords


def _restricted(coords: list[list[int]], M: int) -> list[list[int]]:
    """The phi(M) rational columns of a column over Q(zeta_M), coords[t] its
    power-basis coordinate t: for s < phi(M) the coordinates of zeta^s times
    the column, stacked coordinate after coordinate.  Each step multiplies
    by zeta: the coordinates shift up one, and zeta^phi folds back by
    Phi_M."""
    poly, zero = cyclotomic_polynomial(M), [0] * len(coords[0])
    out = [list(chain.from_iterable(coords))]
    for _ in range(len(coords) - 1):
        lead, coords = coords[-1], [zero] + coords[:-1]
        if any(lead):
            coords = [[a - c * v for a, v in zip(t, lead)] if c else t for t, c in zip(coords, poly)]
        out.append(list(chain.from_iterable(coords)))
    return out


class LinearSolver:
    """Exact factorization of a matrix over Q(zeta_M), reusable for many
    right-hand sides, by the certified rational eliminator _DixonFactor.

    The matrix comes as CycNumber rows, M the lcm of their conductors, or
    as int columns with scales, column j standing for matrix[j] / scales[j]
    (M = 1).  A target is, with scale, int numerators over it, one sequence
    per power-basis coordinate of Q(zeta_conductor); a solver of CycNumber
    rows also takes one CycNumber per row.  Coordinates come back in
    Q(zeta_L), L the lcm of M and the target's conductor, 0 at free columns.

    A rational matrix solves the target one coordinate at a time on its one
    factor.  Otherwise matrix and target are restricted to Q at L, once per
    L: column (j, s) stacks the coordinates of zeta_L^s * a_j, and x_j =
    sum_s y_(j,s) zeta_L^s.  Each block (j, *) is all pivots or all free,
    as K*a_j meets the span of the columns before it in a K-subspace, K =
    Q(zeta_M): rank and free_columns() are the block profile over K.
    solve() returns exactly checked coordinates, or None when x solves the
    pivot rows exactly and another row fails (b is outside the span)."""

    def __init__(self, matrix, scales: Sequence[int] | None = None):
        self._int_columns = scales is not None
        if scales is None:
            self.nrows, self._entries = len(matrix), list(zip(*matrix))
            self.ncols, self._factors = len(self._entries), {}
            self._conductor = math.lcm(1, *(c.conductor for col in self._entries for c in col))
            self._modular = self._factor(self._conductor)
        else:
            self.nrows, self.ncols, self._conductor = len(matrix[0]), len(matrix), 1
            self._modular = _certified(list(matrix), list(scales), self.nrows)
        self.rank = len(self._modular.pivot_cols) // euler_phi(self._conductor)

    def _factor(self, L: int) -> _DixonFactor:
        """The CycNumber rows restricted to Q at L, factored once per L."""
        if L not in self._factors:
            phi = euler_phi(L)
            pairs = [_numerators(col, L) for col in self._entries]
            self._factors[L] = _certified([c for _, coords in pairs for c in _restricted(coords, L)],
                                          [s for s, _ in pairs for _ in range(phi)], self.nrows * phi)
        return self._factors[L]

    def solve(self, target, scale: int | None = None, conductor: int = 1) -> list[CycNumber] | None:
        if scale is None:
            if self._int_columns:
                raise TypeError("a solver built from int columns takes int targets over a scale")
            conductor = math.lcm(self._conductor, *(c.conductor for c in target))
            scale, target = _numerators(target, conductor)
        if any(len(t) != self.nrows for t in target):
            raise ValueError("target length does not match row count")
        if scale < 0:
            scale, target = -scale, [[-v for v in t] for t in target]
        if self._conductor > 1:
            return self._solve_restricted(target, scale, conductor)
        return self._solve_coordinates(target, scale, conductor)

    def _solve_coordinates(self, target, scale: int, conductor: int) -> list[CycNumber] | None:
        # a rational matrix: one solve per nonzero coordinate of the target
        factor, solved = self._modular, []
        for t in target:
            got = factor.solve(t) if any(t) else ([0] * len(factor.pivot_cols), 1)
            if got is None:
                return None
            solved.append(got)
        den = math.lcm(*(d for _, d in solved))
        coords = zip(*(nums if d == den else [x * (den // d) for x in nums] for nums, d in solved))
        out, make, scaled = [CycNumber.zero(conductor)] * self.ncols, CycNumber._make, den * scale
        for j, nums in zip(factor.pivot_cols, coords):
            out[j] = make(conductor, scaled, nums)
        return out

    def _solve_restricted(self, target, scale: int, conductor: int) -> list[CycNumber] | None:
        # a matrix over Q(zeta_M), M > 1: one solve of the restriction at L
        L = math.lcm(self._conductor, conductor)
        if L != conductor:
            # the target's coordinates seen in Q(zeta_L)
            target = _numerators([CycNumber._make(conductor, 1, row) for row in zip(*target)], L)[1]
        factor, phi = self._factor(L), euler_phi(L)
        got = factor.solve(list(chain.from_iterable(target)))
        if got is None:
            return None
        nums, den = got[0], got[1] * scale
        out = [CycNumber.zero(L)] * self.ncols
        for k in range(0, len(nums), phi):
            out[factor.pivot_cols[k] // phi] = CycNumber._make(L, den, nums[k:k + phi])
        return out

    def free_columns(self) -> list[int]:
        phi = euler_phi(self._conductor)
        return [f // phi for f in self._modular.free if f % phi == 0]


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
