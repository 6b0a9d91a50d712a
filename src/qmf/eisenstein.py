"""Eisenstein series atoms for Gamma0(N) with trivial nebentypus.

The weight-k Eisenstein space is spanned by dilations of character-twisted
series: for a primitive character phi mod u and a dilation t with t*u^2 | N,
the atom is E_k^phi(t tau) where

    E_k^phi = [phi trivial] * zeta(1-k)  +  2 * sum_n sigma_phi(n) q^n,
    sigma_phi(n) = sum_{d|n} phi(d) conj(phi)(n/d) d^(k-1).

Weight 2 is special: the trivial-character dilation pairs enter as the
modular combinations E2(tau) - t E2(t tau) for t > 1, and the bare
quasimodular E2 is kept as a separate atom for graded assemblies.

Every expansion, E2 included, comes from one integer divisor sieve that
sums d^(k-1) into an int list per pair of unit residues (d, n/d) mod u and
hands the lists to the integer QSeries kernel.
"""
from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache

from ._record import Record
from .characters import DirichletCharacter, enumerate_primitive, trivial_character
from .qseries import QSeries
from .scalars import CycNumber, divisors, zeta_at_negative

__all__ = [
    "EisensteinAtom",
    "e2_series",
    "eisenstein_basis",
    "enumerate_A",
    "raw_e2_atom",
]


def _sigma_sieve(chi: DirichletCharacter, power: int, precision: int) -> QSeries:
    """sum over 0 < n < precision of sigma_phi(n) q^n: each term d^power of
    sigma_phi(d*m) goes into the int list of the unit residues (d, m) mod u,
    and each list is scaled once by chi(d) conj(chi)(m) before the sum."""
    u = chi.modulus
    units = [r for r in range(1, u + 1) if math.gcd(r, u) == 1]
    rows: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * precision)
    for d in range(1, precision):
        if math.gcd(d, u) != 1:
            continue
        w = d**power
        for m in units:
            if d * m >= precision:
                break
            row = rows[d % u, m % u]
            for n in range(d * m, precision, d * u):
                row[n] += w
    inv = chi.inverse()
    out = QSeries.zero(precision)
    for (a, b), row in rows.items():
        out = out + QSeries(row, precision).scale(chi(a) * inv(b))
    return out


@lru_cache(maxsize=None)
def e2_series(precision: int) -> QSeries:
    """The quasimodular E2 = 1 - 24 sum sigma_1(n) q^n."""
    return 1 - 24 * _sigma_sieve(trivial_character(), 1, precision)


class EisensteinAtom(Record):
    """One spanning series of the weight-k Eisenstein space (or bare E2);
    chi None marks the bare quasimodular E2."""

    __slots__ = ("weight", "chi", "t")

    def __init__(self, weight: int, chi: DirichletCharacter | None, t: int):
        if weight < 2 or weight % 2:
            raise ValueError("atoms have even weight >= 2")
        if t < 1:
            raise ValueError("dilation t must be at least 1")
        if chi is None and (weight != 2 or t != 1):
            raise ValueError("bare E2 is the weight-2, t=1 atom")
        super().__init__(weight, chi, t)

    @property
    def kind(self) -> str:
        if self.chi is None:
            return "raw_e2"
        if self.weight > 2:
            return "classical"
        return "weight2_trivial" if self.chi.is_trivial() else "weight2_twisted"

    def expand(self, precision: int) -> QSeries:
        return _expand_atom(self, precision)

    def prime_coefficient(self, p: int) -> CycNumber:
        """Exact q^p coefficient at a prime p from the closed formulas:
        -24(1+p) for E2 and its weight-2 combinations away from t, and
        2(conj(chi)(p) + chi(p) p^(k-1)) for undilated character atoms.
        Dilated character atoms vanish at every prime other than t."""
        if self.chi is None or (self.weight == 2 and self.chi.is_trivial()):
            if self.t > 1 and p % self.t == 0:
                # t divides the prime p, so t = p; the dilated term kicks in
                return CycNumber.from_rational(-24)
            return CycNumber.from_rational(-24 * (1 + p))
        if self.t > 1:
            if p == self.t:
                return CycNumber.from_rational(2)
            return CycNumber.zero()
        chi = self.chi
        return 2 * (chi.inverse()(p) + chi(p) * p ** (self.weight - 1))

    def spec_text(self) -> str:
        if self.chi is None:
            return "E2"
        if self.weight == 2 and self.chi.is_trivial():
            return f"E2twist[{self.t}]"
        u = self.chi.modulus
        j = 1 + [c.exponents for c in enumerate_primitive(u)].index(self.chi.exponents)
        return f"E[{self.weight},{u}.{j},{self.t}]"

    def __repr__(self) -> str:
        return f"EisensteinAtom({self.spec_text()})"


@lru_cache(maxsize=None)
def _expand_atom(atom: EisensteinAtom, precision: int) -> QSeries:
    if atom.chi is None:
        return e2_series(precision)
    k, chi, t = atom.weight, atom.chi, atom.t
    if k == 2 and chi.is_trivial():
        e2 = e2_series(precision)
        return e2 - e2.dilate(t, precision).scale(t)
    base = 2 * _sigma_sieve(chi, k - 1, (precision - 1) // t + 1)
    if chi.is_trivial():
        base = base + zeta_at_negative(k)
    return base.dilate(t, precision)


def enumerate_A(N: int, k: int) -> list[tuple[DirichletCharacter, int]]:
    """Admissible (character, dilation) pairs at level N and weight k.

    Pairs (phi primitive mod u, t) with t u^2 | N, ordered by u, character
    index, t.  At weight 2 the trivial pair (1, 1) is excluded: its series
    is identically zero as a modular combination.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if k < 2 or k % 2:
        raise ValueError("weight must be even and at least 2")
    out: list[tuple[DirichletCharacter, int]] = []
    for u in range(1, N + 1):
        if u * u > N or N % (u * u):
            continue
        prims = enumerate_primitive(u)
        if not prims:
            continue
        ts = divisors(N // (u * u))
        for chi in prims:
            for t in ts:
                if k == 2 and u == 1 and t == 1:
                    continue
                out.append((chi, t))
    return out


def eisenstein_basis(N: int, k: int) -> list[EisensteinAtom]:
    """Atoms spanning the weight-k Eisenstein space of Gamma0(N)."""
    return [EisensteinAtom(k, chi, t) for chi, t in enumerate_A(N, k)]


def raw_e2_atom() -> EisensteinAtom:
    return EisensteinAtom(2, None, 1)
