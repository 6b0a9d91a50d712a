"""Graded quasimodular bases for Gamma0(N) and exact decomposition.

A weight-2k assembly stacks, for every even weight 2j <= 2k, the Eisenstein
atoms of weight 2i differentiated up to the weight (r = j - i), a bare
D^(j-1) E2 line, and the analogous derivative stacks over cusp atoms: the
new part collects undilated newforms of every level dividing N, the old
part their proper dilations, plus the constants.  Decomposition solves the exact linear system against a
truncation deep enough to make the answer self-certifying: Sturm-style
padding plus an explicit column-rank check, with doubling escalation if
the rank check fails at the default depth.  Every solve is rational: atoms
over Q(zeta_M), such as the quadratic eigenforms at 9.8 and 8.12, enter as
their power-basis coordinate series (_CoordinateBasis).
"""
from __future__ import annotations

import functools
import math

from ._record import Record
from .eisenstein import EisensteinAtom, eisenstein_basis, raw_e2_atom
from .errors import CatalogIncompleteError, RankDeficientError
from .exact import LinearSolver
from .newforms import CuspAtom, _dilations, catalog_state, cusp_basis, sturm_bound
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


class BasisAtom(Record):
    """One basis vector of a graded assembly: D^r applied to a payload.

    part is "eis", "new", or "old"; the constant function 1 is the unique
    atom with payload None and belongs to the Eisenstein part.
    """

    __slots__ = ("part", "payload", "r")

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
        out.append(BasisAtom("eis", None, 0))
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
    return [catom for catom in _dilations(N, k, divisors(N)[:-1]) if catom.n > 1]


class PrecisionPolicy(Record):
    """Coefficient depth needed for a decomposition to be trustworthy."""

    __slots__ = ("level", "maxweight", "atom_count")

    @property
    def p_req(self) -> int:
        # one Sturm unit per dilation class: atoms dilated by t live on the
        # t*Z support grid, so agreements between dilation classes can run
        # deeper than the classical bound before a separating row appears
        spread = len(divisors(self.level))
        return sturm_bound(self.maxweight, self.level) * spread + self.atom_count + 1

    ESCALATION_CAP = 8  # maximum total deepening factor over p_req


class Decomposition(Record):
    """Exact coordinates of a series over a graded assembly.

    When residual is True the series was not in the span and coordinates
    are withheld.
    """

    __slots__ = ("atoms", "coords", "residual", "rows_used", "escalations")

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
) -> tuple[tuple[BasisAtom, ...], int, dict[int, "_CoordinateBasis"]]:
    """The assembly of (N, maxweight) under one catalog state, its
    PrecisionPolicy depth, and its solvers by depth, which decompose fills
    as it needs them.  Every Decomposition of the space shares the atoms,
    so they are a tuple: no caller can reorder the cached basis."""
    atoms = tuple(assemble_basis(N, maxweight))
    return atoms, PrecisionPolicy(N, maxweight, len(atoms)).p_req, {}


class _CoordinateBasis:
    """The solver of a basis, by rational solves only.  The int-column
    solver takes the rational atoms, then the nonzero power-basis
    coordinate series of the cyclotomic atoms g_i; on its pivots g_i =
    sum_k B_ik (rational atom k) + sum_s A_is h_s, h_s the picked
    coordinate series.  The rank over K (the atoms' fields) is the rational
    atoms' rank plus that of A; back, the solver of the rows of A^T, maps a
    target's coordinates on the h_s to the g_i.  An all-rational basis has
    no g_i, so back is None and solve returns the int-column solve.  A
    rational atom that is a free column makes the basis rank-deficient over
    K whatever A holds, so then no atom is solved and no back-map built:
    rank is the upper bound (the rational atoms' rank plus the count of
    g_i), below ncols, which is all decompose reads, and solve is not
    called."""

    def __init__(self, series: list[QSeries]):
        self.ncols, self.conductor = len(series), math.lcm(*(s.conductor for s in series))
        self.rational = [k for k, s in enumerate(series) if s.conductor == 1]
        self.cyclotomic = [i for i, s in enumerate(series) if s.conductor != 1]
        pairs = [series[k].numerators() for k in self.rational]
        columns, scales = [t for _, (t,) in pairs], [den for den, _ in pairs]
        # one column per nonzero coordinate series up to a rational factor
        # (at 8.12, 110 series give 3): a multiple adds nothing to the span
        primitive = dict.fromkeys(_primitive(t) for i in self.cyclotomic
                                  for t in series[i].numerators()[1] if any(t))
        columns += primitive
        scales += [1] * len(primitive)
        self.solver = LinearSolver(columns, scales)
        free, n = set(self.solver.free_columns()), len(self.rational)
        lost = len(free.intersection(range(n)))
        if lost:
            self.rank = n - lost + len(self.cyclotomic)
            return
        self.picked = [s for s in range(n, len(columns)) if s not in free]
        self.relations, rows_of_a = [], []
        for i in self.cyclotomic:
            den, nums = series[i].numerators()
            coords = self.solver.solve(nums, den, series[i].conductor)
            self.relations.append(coords[:n])
            rows_of_a.append([coords[s] for s in self.picked])
        self.back, self.rank = None, n
        if rows_of_a:
            self.back = LinearSolver([list(row) for row in zip(*rows_of_a)])
            self.rank += self.back.rank

    def solve(self, target, scale: int, conductor: int) -> list[CycNumber] | None:
        # f = sum_k c_k (rational atom k) + sum_s c_s h_s; then x = back's
        # solution for the c_s on the g_i, and x_k = c_k - sum_i x_i B_ik
        coords = self.solver.solve(target, scale, conductor)
        if coords is None or self.back is None:
            return coords
        x = self.back.solve([coords[s] for s in self.picked])
        if x is None:
            return None
        L = math.lcm(self.conductor, conductor)
        out = [None] * self.ncols
        for i, xi in zip(self.cyclotomic, x):
            out[i] = xi.embed(L)
        for pos, k in enumerate(self.rational):
            out[k] = (coords[pos] - sum(xi * b[pos] for xi, b in zip(x, self.relations))).embed(L)
        return out


def _primitive(t) -> tuple[int, ...]:
    # the int sequence over its content, its first nonzero entry positive
    g = math.gcd(*t) if next(v for v in t if v) > 0 else -math.gcd(*t)
    return tuple(v // g for v in t)


def decompose(f: QSeries, N: int, maxweight: int) -> Decomposition:
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
    rows, escalations = p_req, 0
    while True:
        solver = solvers.get(rows)
        if solver is None:
            solver = solvers.setdefault(rows, _CoordinateBasis([a.expand(rows) for a in atoms]))
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
