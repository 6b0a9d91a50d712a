"""Dirichlet characters with exact cyclotomic values.

The unit group mod u is decomposed through CRT into cyclic factors with
canonical generators: the smallest primitive root for odd prime powers, the
pair (-1, 5) for powers of two at least 8, and -1 for modulus 4.  A character
is the tuple of exponents of its images on those generators, so enumeration,
evaluation, order and conductor are all exact and deterministic.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator

from .scalars import CycNumber, divisors, euler_phi, factorize

__all__ = [
    "DirichletCharacter",
    "character_group",
    "enumerate_primitive",
    "trivial_character",
]


def _primitive_root(q: int, p: int) -> int:
    # smallest primitive root modulo the odd prime power q = p^a
    order = euler_phi(q)
    prime_factors = list(factorize(order))
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // r, q) != 1 for r in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


class _UnitGroup:
    """CRT structure of (Z/u)^* with generator orders and discrete logs."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.generators: list[int] = []   # as residues mod modulus
        self.orders: list[int] = []
        self._local: list[tuple[int, dict[int, tuple[int, ...]]]] = []
        for p, a in sorted(factorize(modulus).items()):
            q = p**a
            if p == 2:
                if a == 1:
                    continue
                if a == 2:
                    gens, orders = [q - 1], [2]
                else:
                    gens, orders = [q - 1, 5], [2, 2 ** (a - 2)]
            else:
                gens, orders = [_primitive_root(q, p)], [euler_phi(q)]
            # discrete-log table: residue mod q -> exponent tuple on gens
            table: dict[int, tuple[int, ...]] = {}
            ranges = [range(o) for o in orders]
            def fill(idx: int, acc: int, exps: tuple[int, ...]) -> None:
                if idx == len(gens):
                    table[acc] = exps
                    return
                val = acc
                for e in ranges[idx]:
                    fill(idx + 1, val, exps + (e,))
                    val = val * gens[idx] % q
            fill(0, 1 % q, ())
            self._local.append((q, table))
            for g, o in zip(gens, orders):
                # lift generator to a residue mod modulus that is 1 mod the cofactor
                rest = modulus // q
                if rest == 1:
                    lifted = g % modulus
                else:
                    inv = pow(q, -1, rest)
                    lifted = (g + q * ((1 - g) * inv % rest)) % modulus
                self.generators.append(lifted)
                self.orders.append(o)

    def dlog(self, n: int) -> tuple[int, ...] | None:
        """Exponent tuple of n on the generators, None when gcd(n, u) > 1."""
        if math.gcd(n, self.modulus) != 1:
            return None
        out: tuple[int, ...] = ()
        for q, table in self._local:
            out += table[n % q]
        return out


_unit_group = functools.cache(_UnitGroup)


class DirichletCharacter:
    """A Dirichlet character mod u, identified by its exponent tuple."""

    __slots__ = ("modulus", "exponents", "_group", "_conductor")

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        group = _unit_group(modulus)
        if len(exponents) != len(group.orders):
            raise ValueError("exponent tuple does not match unit group structure")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(
            self, "exponents", tuple(e % o for e, o in zip(exponents, group.orders))
        )
        object.__setattr__(self, "_group", group)
        object.__setattr__(self, "_conductor", None)

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    @property
    def order(self) -> int:
        out = 1
        for e, o in zip(self.exponents, self._group.orders):
            out = math.lcm(out, o // math.gcd(o, e))
        return out

    def __call__(self, n: int) -> CycNumber:
        dl = self._group.dlog(n % self.modulus if self.modulus > 1 else 0)
        if self.modulus == 1:
            return CycNumber.one()
        if dl is None:
            return CycNumber.zero()
        order = self.order
        t = 0
        for x, e, o in zip(dl, self.exponents, self._group.orders):
            if e:
                g = math.gcd(e, o)
                # component value is a primitive (o/g)-th root raised to e/g
                t += x * (e // g) * (order // (o // g))
        return CycNumber.root_of_unity(order, t % order)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def conductor(self) -> int:
        """Smallest f | u such that the character is 1 on units that are 1 mod f."""
        cached = self._conductor
        if cached is not None:
            return cached
        u = self.modulus
        cond = u
        for f in divisors(u):
            if all(
                self(n) == 1
                for n in range(1, u + 1)
                if math.gcd(n, u) == 1 and n % f == 1 % f
            ):
                cond = f
                break
        object.__setattr__(self, "_conductor", cond)
        return cond

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def inverse(self) -> "DirichletCharacter":
        """The inverse (= conjugate) character."""
        return DirichletCharacter(
            self.modulus,
            tuple(-e % o for e, o in zip(self.exponents, self._group.orders)),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, exponents={self.exponents})"


def trivial_character(modulus: int = 1) -> DirichletCharacter:
    group = _unit_group(modulus)
    return DirichletCharacter(modulus, (0,) * len(group.orders))


def character_group(u: int) -> list[DirichletCharacter]:
    """All characters mod u, lexicographic on exponent tuples."""
    group = _unit_group(u)
    chars: list[DirichletCharacter] = []
    def build(idx: int, acc: tuple[int, ...]) -> None:
        if idx == len(group.orders):
            chars.append(DirichletCharacter(u, acc))
            return
        for e in range(group.orders[idx]):
            build(idx + 1, acc + (e,))
    build(0, ())
    return chars


@functools.cache
def _primitive(u: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in character_group(u) if chi.is_primitive())


def enumerate_primitive(u: int) -> list[DirichletCharacter]:
    """Primitive characters mod u in canonical (lexicographic) order.

    The characters are found once per modulus; each call returns a fresh
    list of the same character objects."""
    return list(_primitive(u))
