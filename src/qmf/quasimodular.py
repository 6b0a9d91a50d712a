"""Graded quasimodular bases for Gamma0(N) and exact decomposition.

A weight-2k assembly stacks, for every even weight 2j <= 2k, the Eisenstein
atoms of weight 2i differentiated up to the weight (r = j - i), a bare
D^(j-1) E2 line, and the analogous derivative stacks over cusp atoms: the
new part collects undilated newforms of every level dividing N, the old
part their proper dilations, plus the constants.  Decomposition solves the exact linear system against a
truncation deep enough to make the answer self-certifying: Sturm-style
padding plus an explicit column-rank check, with doubling escalation if
the rank check fails at the default depth.
"""
from __future__ import annotations

import functools

from .eisenstein import EisensteinAtom, eisenstein_basis, raw_e2_atom
from .errors import CatalogIncompleteError, RankDeficientError
from .exact import LinearSolver
from .newforms import (
    CuspAtom,
    catalog_state,
    cusp_basis,
    dim_cusp_new,
    newforms_for,
    sturm_bound,
)
from .qseries import InsufficientPrecisionError, QSeries
from .scalars import CycNumber, divisors, format_cyc

__all__ = [
    "BasisAtom",
    "Decomposition",
    "InsufficientPrecisionError",
    "PrecisionPolicy",
    "RankDeficientError",
    "assemble_basis",
    "decompose",
]

ALL_PARTS = ("eis", "new", "old")


class BasisAtom:
    """One basis vector of a graded assembly: D^r applied to a payload.

    part is "eis", "new", or "old"; the constant function 1 is the unique
    atom with payload None and belongs to the Eisenstein part.  Immutable,
    equal and hashed by its three fields.
    """

    __slots__ = ("part", "payload", "r")

    def __init__(self, part: str, payload: EisensteinAtom | CuspAtom | None, r: int):
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("BasisAtom is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, BasisAtom) and (
            (self.part, self.payload, self.r) == (other.part, other.payload, other.r))

    def __hash__(self) -> int:
        return hash((self.part, self.payload, self.r))

    @property
    def weight(self) -> int:
        if self.payload is None:
            return 0
        return self.payload.weight + 2 * self.r

    def expand(self, precision: int) -> QSeries:
        if self.payload is None:
            return QSeries.constant(1, precision)
        return self.payload.expand(precision).apply_D(self.r)

    def spec_text(self) -> str:
        if self.payload is None:
            return "1"
        inner = self.payload.spec_text()
        if isinstance(self.payload, EisensteinAtom) and self.r == 0:
            return inner
        return f"D^{self.r}({inner})"

    def __repr__(self) -> str:
        return f"BasisAtom({self.part}, {self.spec_text()})"


def constant_one_atom() -> BasisAtom:
    return BasisAtom("eis", None, 0)


def assemble_basis(
    N: int, maxweight: int, parts: tuple[str, ...] = ALL_PARTS
) -> list[BasisAtom]:
    """Canonically ordered atoms of the graded assembly up to maxweight.

    The order is weight ascending; within a weight, Eisenstein atoms
    (character atoms by weight, then the bare E2 derivative last), then new,
    then old; cusp parts follow the level/label/dilation order of the cusp
    bases.  Needs complete newform coverage when cusp parts are requested;
    the old part alone needs none at level N itself.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if maxweight < 0 or maxweight % 2:
        raise ValueError("max weight must be even and nonnegative")
    for part in parts:
        if part not in ALL_PARTS:
            raise ValueError(f"unknown part {part!r}")
    # cusp atoms of each weight k <= maxweight, derived only for the parts
    # asked for, so the old part alone never touches level N itself
    cusp = {
        part: {k: atoms_of(N, k) for k in range(2, maxweight + 1, 2)}
        for part, atoms_of in (("new", _new_atoms), ("old", _old_atoms))
        if part in parts
    }
    out: list[BasisAtom] = []
    if "eis" in parts:
        out.append(constant_one_atom())
    for weight in range(2, maxweight + 1, 2):
        j = weight // 2
        if "eis" in parts:
            for i in range(1, j + 1):
                for atom in eisenstein_basis(N, 2 * i):
                    out.append(BasisAtom("eis", atom, j - i))
            out.append(BasisAtom("eis", raw_e2_atom(), j - 1))
        for part, by_weight in cusp.items():
            for i in range(1, j + 1):
                for catom in by_weight[2 * i]:
                    out.append(BasisAtom(part, catom, j - i))
    return out


def _new_atoms(N: int, k: int) -> list[CuspAtom]:
    """The undilated newforms of every level dividing N, in cusp-basis
    order: the new part of S_k(Gamma0(N))."""
    return [catom for catom in cusp_basis(N, k) if catom.n == 1]


def _old_atoms(N: int, k: int) -> list[CuspAtom]:
    """The dilations g(n tau), n > 1, of the newforms g of levels L < N
    dividing N, in cusp-basis order: the old part of S_k(Gamma0(N))."""
    return [
        CuspAtom(rec, n)
        for L in divisors(N)[:-1]
        if dim_cusp_new(L, k)
        for rec in newforms_for(L, k)
        for n in divisors(N // L)[1:]
    ]


class PrecisionPolicy:
    """Coefficient depth needed for a decomposition to be trustworthy.
    Immutable, equal and hashed by its three fields."""

    __slots__ = ("level", "maxweight", "atom_count")

    def __init__(self, level: int, maxweight: int, atom_count: int):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "maxweight", maxweight)
        object.__setattr__(self, "atom_count", atom_count)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionPolicy is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PrecisionPolicy) and (
            (self.level, self.maxweight, self.atom_count)
            == (other.level, other.maxweight, other.atom_count))

    def __hash__(self) -> int:
        return hash((self.level, self.maxweight, self.atom_count))

    def __repr__(self) -> str:
        return (f"PrecisionPolicy(level={self.level!r}, maxweight={self.maxweight!r}, "
                f"atom_count={self.atom_count!r})")

    @property
    def p_req(self) -> int:
        # one Sturm unit per dilation class: atoms dilated by t live on the
        # t*Z support grid, so agreements between dilation classes can run
        # deeper than the classical bound before a separating row appears
        spread = len(divisors(self.level))
        return sturm_bound(self.maxweight, self.level) * spread + self.atom_count + 1

    ESCALATION_CAP = 8  # maximum total deepening factor over p_req


class Decomposition:
    """Exact coordinates of a series over a graded assembly.

    When residual is True the series was not in the span and coordinates
    are withheld.
    """

    def __init__(self, atoms, coords, residual, rows_used, escalations):
        self.atoms = atoms
        self.coords = coords
        self.residual = residual
        self.rows_used = rows_used
        self.escalations = escalations

    def items(self):
        if self.residual:
            return []
        return list(zip(self.atoms, self.coords))

    def part(self, name: str) -> dict[BasisAtom, CycNumber]:
        return {a: c for a, c in self.items() if a.part == name}

    def nonzero(self):
        return [(a, c) for a, c in self.items() if not c.is_zero()]

    def part_is_zero(self, name: str) -> bool:
        return all(c.is_zero() for a, c in self.items() if a.part == name)

    def coordinate(self, atom: BasisAtom) -> CycNumber:
        for a, c in self.items():
            if a == atom:
                return c
        raise KeyError(f"{atom!r} is not in this basis")

    def report_text(self) -> str:
        lines = []
        if not self.residual:
            for atom, coeff in self.nonzero():
                lines.append(f"{atom.part} {atom.spec_text()} : {format_cyc(coeff)}")
        lines.append("residual: none" if not self.residual else "residual: present")
        return "\n".join(lines)


# Bound on the cached assemblies: above the handful of spaces a session
# decomposes against, and small enough that the entries of superseded
# catalog states are evicted.
_BASIS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _basis_entry(
    N: int, maxweight: int, state: tuple[str, int]
) -> tuple[list[BasisAtom], int, dict[int, LinearSolver]]:
    """The assembly of (N, maxweight) under one catalog state, its
    PrecisionPolicy depth, and its solvers by depth, which decompose fills
    as it needs them."""
    atoms = assemble_basis(N, maxweight)
    return atoms, PrecisionPolicy(N, maxweight, len(atoms)).p_req, {}


def _basis_solver(atoms: list[BasisAtom], rows: int) -> LinearSolver:
    # a rational basis goes in as integer columns, each atom's numerators
    # over its denominator; derived newforms may need a field beyond the
    # level's character values (the 9.8 newforms have conductor 40), and
    # then the columns go in as CycNumbers and the solver works over the lcm
    series = [atom.expand(rows) for atom in atoms]
    if any(s.conductor != 1 for s in series):
        columns = [s.coefficients() for s in series]
        return LinearSolver([[col[n] for col in columns] for n in range(rows)])
    dens, nums = zip(*(s.numerators() for s in series))
    return LinearSolver([t for (t,) in nums], dens)


def decompose(
    f: QSeries, N: int, maxweight: int, initial_rows: int | None = None
) -> Decomposition:
    """Resolve f into exact eis/new/old coordinates at level N.

    f must carry at least PrecisionPolicy.p_req coefficients.  If the basis
    matrix is rank-deficient at the working depth, the depth doubles (up to
    the configured cap and the precision of f) before giving up; once every
    supplied coefficient is in use the precision error reports the depth a
    retry should carry.
    """
    atoms, p_req, solvers = _basis_entry(N, maxweight, catalog_state())
    if f.precision < p_req:
        raise InsufficientPrecisionError(p_req, f.precision, "input series")
    rows = p_req if initial_rows is None else max(2, initial_rows)
    if rows > f.precision:
        raise InsufficientPrecisionError(rows, f.precision, "input series")
    escalations = 0
    while True:
        solver = solvers.get(rows)
        if solver is None:
            solver = solvers.setdefault(rows, _basis_solver(atoms, rows))
        if solver.rank == len(atoms):
            break
        if rows >= p_req * PrecisionPolicy.ESCALATION_CAP:
            raise RankDeficientError(
                f"basis matrix for level {N}, max weight {maxweight} is "
                f"rank-deficient at depth {rows} (cap reached)"
            )
        if rows >= f.precision:
            # out of coefficients; tell the caller what a retry should carry
            raise InsufficientPrecisionError(rows * 2, f.precision, "input series")
        rows = min(rows * 2, f.precision)
        escalations += 1
    den, nums = f.numerators()
    if rows < f.precision:
        nums = [t[:rows] for t in nums]
    coords = solver.solve(nums, den, f.conductor)
    if coords is None:
        return Decomposition(atoms, None, True, rows, escalations)
    return Decomposition(atoms, coords, False, rows, escalations)
