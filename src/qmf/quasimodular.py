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

import threading
from dataclasses import dataclass

from .eisenstein import EisensteinAtom, eisenstein_basis, raw_e2_atom
from .errors import CatalogIncompleteError, RankDeficientError
from .exact import CycNumber, LinearSolver, divisors, format_cyc, primes_upto
from .newforms import (
    CuspAtom,
    catalog_generation,
    cusp_basis,
    dim_cusp,
    sturm_bound,
)
from .qseries import InsufficientPrecisionError, QSeries

__all__ = [
    "BasisAtom",
    "DClosureReport",
    "Decomposition",
    "InsufficientPrecisionError",
    "MembershipVerdict",
    "PrecisionPolicy",
    "RankDeficientError",
    "assemble_basis",
    "d_closure_check",
    "decompose",
    "omega_membership",
]

ALL_PARTS = ("eis", "new", "old")


@dataclass(frozen=True)
class BasisAtom:
    """One basis vector of a graded assembly: D^r applied to a payload.

    part is "eis", "new", or "old"; the constant function 1 is the unique
    atom with payload None and belongs to the Eisenstein part.
    """

    part: str
    payload: EisensteinAtom | CuspAtom | None
    r: int

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
    bases.  Needs complete newform coverage when cusp parts are requested.
    """
    if maxweight < 0 or maxweight % 2:
        raise ValueError("max weight must be even and nonnegative")
    for part in parts:
        if part not in ALL_PARTS:
            raise ValueError(f"unknown part {part!r}")
    want_cusp = "new" in parts or "old" in parts
    out: list[BasisAtom] = []
    if "eis" in parts:
        out.append(constant_one_atom())
    cusp_cache: dict[int, list[CuspAtom]] = {}
    for weight in range(2, maxweight + 1, 2):
        j = weight // 2
        new_block: list[BasisAtom] = []
        old_block: list[BasisAtom] = []
        if "eis" in parts:
            for i in range(1, j + 1):
                for atom in eisenstein_basis(N, 2 * i):
                    out.append(BasisAtom("eis", atom, j - i))
            out.append(BasisAtom("eis", raw_e2_atom(), j - 1))
        if want_cusp:
            for i in range(1, j + 1):
                if dim_cusp(N, 2 * i) == 0:
                    continue
                if 2 * i not in cusp_cache:
                    cusp_cache[2 * i] = cusp_basis(N, 2 * i)
                for catom in cusp_cache[2 * i]:
                    # undilated newforms of any dividing level make up the
                    # new part; the old part is exactly the n > 1 dilations
                    if catom.n == 1:
                        new_block.append(BasisAtom("new", catom, j - i))
                    else:
                        old_block.append(BasisAtom("old", catom, j - i))
        if "new" in parts:
            out.extend(new_block)
        if "old" in parts:
            out.extend(old_block)
    return out


@dataclass(frozen=True)
class PrecisionPolicy:
    """Coefficient depth needed for a decomposition to be trustworthy."""

    level: int
    maxweight: int
    atom_count: int

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


_solver_lock = threading.Lock()
# (level, max weight, catalog generation) -> (atoms, {depth: solver})
_solver_cache: dict[tuple[int, int, int], tuple[list[BasisAtom], dict[int, LinearSolver]]] = {}


def _cached(table: dict, key, build):
    """table[key], built outside the lock on a miss; the first build stored wins."""
    with _solver_lock:
        got = table.get(key)
    if got is None:
        got = build()
        with _solver_lock:
            got = table.setdefault(key, got)
    return got


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
    key = (N, maxweight, catalog_generation())
    atoms, solvers = _cached(_solver_cache, key, lambda: (assemble_basis(N, maxweight), {}))
    p_req = PrecisionPolicy(N, maxweight, len(atoms)).p_req
    if f.precision < p_req:
        raise InsufficientPrecisionError(p_req, f.precision, "input series")
    rows = p_req if initial_rows is None else max(2, initial_rows)
    if rows > f.precision:
        raise InsufficientPrecisionError(rows, f.precision, "input series")
    escalations = 0
    while True:
        solver = _cached(solvers, rows, lambda: _basis_solver(atoms, rows))
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
    coords = solver.solve([t[:rows] for t in nums], den, f.conductor)
    if coords is None:
        return Decomposition(atoms, None, True, rows, escalations)
    return Decomposition(atoms, coords, False, rows, escalations)


@dataclass
class DClosureReport:
    level: int
    maxweight: int
    ok: bool
    rows: list[tuple[BasisAtom, list[tuple[BasisAtom, CycNumber]]]]
    failures: list[str]


def d_closure_check(N: int, maxweight: int) -> DClosureReport:
    """Verify D maps the weight<=maxweight assembly into the maxweight+2 one.

    Decomposes the derivative of every atom in the bigger basis; any
    residual is a failure."""
    atoms = assemble_basis(N, maxweight)
    target_atoms = assemble_basis(N, maxweight + 2)
    policy = PrecisionPolicy(N, maxweight + 2, len(target_atoms))
    depth = policy.p_req
    rows = []
    failures = []
    for atom in atoms:
        image = atom.expand(depth).apply_D(1)
        dec = decompose(image, N, maxweight + 2)
        if dec.residual:
            failures.append(f"D({atom.spec_text()}) left the span")
            continue
        rows.append((atom, dec.nonzero()))
    return DClosureReport(N, maxweight, not failures, rows, failures)


@dataclass
class MembershipVerdict:
    level: int
    bound: int
    ok: bool
    violations: list[tuple[int, CycNumber]]

    def report_text(self) -> str:
        if self.ok:
            return f"omega-membership: true (primes to {self.bound}, level {self.level})"
        listed = " ".join(str(p) for p, _ in self.violations[:20])
        return (
            f"omega-membership: false ({len(self.violations)} violations; "
            f"first primes: {listed})"
        )


def omega_membership(f: QSeries, N: int, X: int) -> MembershipVerdict:
    """Does a_f(p) vanish for every prime p <= X not dividing N?"""
    if N < 1:
        raise ValueError("level must be positive")
    if f.precision <= X:
        raise InsufficientPrecisionError(X + 1, f.precision, "input series")
    violations = []
    for p in primes_upto(X):
        if N % p == 0:
            continue
        c = f.coefficient(p)
        if not c.is_zero():
            violations.append((p, c))
    return MembershipVerdict(N, X, not violations, violations)
