"""Newforms for Gamma0(L): catalog, derivation, ingestion, verification.

Dimension formulas for Gamma0(L) make newform availability checkable: the
number of weight-k newforms equals the new-subspace dimension obtained by
Moebius inversion over levels.  Seven classical eta products are built in;
every other desk-scale space is derived exactly on demand by spanning the
cusp space with products of known forms, then splitting it into Hecke
eigenlines.  The span is a rational basis (_span_cusp_space), so T_p is a
rational matrix.  Each piece splits by the kernels of g(T_p), one for each
rational factor g of its characteristic polynomial on the piece; only a
quadratic factor's eigenlines (T_p - lam')w, for w in its kernel and lam'
the other root, and their a(1) normalisation leave Q.
Spaces that cannot be derived stay unavailable and operations that need
them fail loudly.

All derived records keep a symbolic construction recipe, so they re-expand
exactly at any precision.  Ingested records are truncated coefficient
tables and cannot extend beyond their stated precision.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from fractions import Fraction
from pathlib import Path

from .eisenstein import eisenstein_basis
from .errors import CatalogIncompleteError, DerivationError
from .exact import LinearSolver, null_space
from .qseries import EtaProduct, QSeries, dump_qseries, load_qseries
from .scalars import CycNumber, divisors, euler_phi, factorize, primes_upto

__all__ = [
    "CatalogIncompleteError",
    "CuspAtom",
    "DerivationError",
    "HeckeReport",
    "NewformRecord",
    "catalog_lookup",
    "catalog_state",
    "cusp_basis",
    "cusp_count",
    "dim_cusp",
    "dim_cusp_new",
    "dim_eis",
    "dim_modular",
    "epsilon2",
    "epsilon3",
    "genus_gamma0",
    "index_gamma0",
    "ingest",
    "newforms_for",
    "sturm_bound",
    "verify_hecke",
]


# ---------------------------------------------------------------------------
# dimension bookkeeping for Gamma0(N)

def index_gamma0(N: int) -> int:
    out = N
    for p in factorize(N):
        out = out // p * (p + 1)
    return out


def epsilon2(N: int) -> int:
    """Number of elliptic points of order 2 on X_0(N)."""
    if N % 4 == 0:
        return 0
    out = 1
    for p in factorize(N):
        if p == 2:
            continue
        if p % 4 == 1:
            out *= 2
        else:
            return 0
    return out


def epsilon3(N: int) -> int:
    """Number of elliptic points of order 3 on X_0(N)."""
    if N % 9 == 0:
        return 0
    out = 1
    for p in factorize(N):
        if p == 3:
            continue
        if p % 3 == 1:
            out *= 2
        else:
            return 0
    return out


def cusp_count(N: int) -> int:
    return sum(euler_phi(math.gcd(d, N // d)) for d in divisors(N))


def genus_gamma0(N: int) -> int:
    """Genus of X_0(N), in integers: 12g = 12 + index - 3 e2 - 4 e3 - 6 cusps."""
    twelve_g = 12 + index_gamma0(N) - 3 * epsilon2(N) - 4 * epsilon3(N) - 6 * cusp_count(N)
    assert twelve_g % 12 == 0
    return twelve_g // 12


@functools.cache
def dim_cusp(N: int, k: int) -> int:
    """dim S_k(Gamma0(N)) for even k >= 0."""
    if k < 0 or k % 2:
        raise ValueError("weight must be even and nonnegative")
    if k == 0:
        return 0
    g = genus_gamma0(N)
    if k == 2:
        return g
    return (
        (k - 1) * (g - 1)
        + (k // 4) * epsilon2(N)
        + (k // 3) * epsilon3(N)
        + (k // 2 - 1) * cusp_count(N)
    )


def dim_eis(N: int, k: int) -> int:
    if k < 0 or k % 2:
        raise ValueError("weight must be even and nonnegative")
    if k == 0:
        return 1
    eps = cusp_count(N)
    return eps - 1 if k == 2 else eps


def dim_modular(N: int, k: int) -> int:
    return dim_cusp(N, k) + dim_eis(N, k)


def _beta(n: int) -> int:
    # Dirichlet inverse of the divisor-count function, multiplicative
    out = 1
    for _, e in factorize(n).items():
        if e == 1:
            out *= -2
        elif e == 2:
            out *= 1
        else:
            return 0
    return out


@functools.cache
def dim_cusp_new(N: int, k: int) -> int:
    """Dimension of the new subspace of S_k(Gamma0(N)), which equals the
    number of weight-k newforms of exact level N."""
    return sum(_beta(N // d) * dim_cusp(d, k) for d in divisors(N))


def sturm_bound(k: int, N: int) -> int:
    """Number of initial coefficients that pin down a weight-k form on
    Gamma0(N): agreement below this exponent forces equality."""
    return k * index_gamma0(N) // 12 + 1


# ---------------------------------------------------------------------------
# expandable expression nodes (construction recipes for derived forms)

class _Expr:
    """Re-expandable series expression; memoizes its widest expansion."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: QSeries | None = None

    def expand(self, precision: int) -> QSeries:
        memo = self._memo
        if memo is not None and memo.precision >= precision:
            return memo.truncate(precision)
        out = self._compute(precision)
        self._memo = out
        return out

    def _compute(self, precision: int) -> QSeries:
        raise NotImplementedError


class _Leaf(_Expr):
    __slots__ = ("payload",)

    def __init__(self, payload):
        super().__init__()
        self.payload = payload

    def _compute(self, precision: int) -> QSeries:
        return self.payload.expand(precision)


class _Table(_Expr):
    """A finite coefficient table; it cannot expand past its precision."""

    __slots__ = ("name",)

    def __init__(self, series: QSeries, name: str):
        super().__init__()
        self._memo = series
        self.name = name

    @property
    def precision(self) -> int:
        return self._memo.precision

    def _compute(self, precision: int) -> QSeries:
        raise ValueError(
            f"ingested newform {self.name} holds {self.precision} "
            f"coefficients; cannot expand to {precision}"
        )


class _Product(_Expr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__()
        self.parts = tuple(parts)

    def _compute(self, precision: int) -> QSeries:
        out = None
        for part in self.parts:
            series = part.expand(precision)
            out = series if out is None else out * series
        return out


class _Linear(_Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple((c, e) for c, e in terms)

    def _compute(self, precision: int) -> QSeries:
        out = QSeries.zero(precision)
        for c, expr in self.terms:
            if c:
                out = out + expr.expand(precision).scale(c)
        return out


class _Coordinate(_Expr):
    """Power-basis coordinate `index` of an expression over
    Q(zeta_conductor): a rational series."""

    __slots__ = ("inner", "conductor", "index")

    def __init__(self, inner, conductor: int, index: int):
        super().__init__()
        self.inner, self.conductor, self.index = inner, conductor, index

    def _compute(self, precision: int) -> QSeries:
        den, nums = self.inner.expand(precision).embed(self.conductor).numerators()
        return QSeries._make(precision, 1, den, [nums[self.index]])


def hecke_image(f: QSeries, p: int, weight: int, precision: int) -> QSeries:
    """T_p f to the requested precision; needs f to precision p*(precision-1)+1."""
    need = p * (precision - 1) + 1
    if f.precision < need:
        raise ValueError(f"T_{p} to precision {precision} needs input precision {need}")
    pk = p ** (weight - 1)
    den, nums = f.numerators()
    out = []
    for t in nums:
        # a(pn) for every n, plus p^(k-1) a(n/p) where p | n
        row = list(t[:need:p])
        for n in range(0, precision, p):
            row[n] += pk * t[n // p]
        out.append(row)
    return QSeries._make(precision, f.conductor, den, out)


class _HeckeImage(_Expr):
    __slots__ = ("inner", "p", "weight")

    def __init__(self, inner, p: int, weight: int):
        super().__init__()
        self.inner = inner
        self.p = p
        self.weight = weight

    def _compute(self, precision: int) -> QSeries:
        base = self.inner.expand(self.p * (precision - 1) + 1)
        return hecke_image(base, self.p, self.weight, precision)


# ---------------------------------------------------------------------------
# newform records

class NewformRecord:
    """A normalized Hecke eigenform of exact level `level` and even weight.

    source is the _Expr that expands it: a _Leaf of an EtaProduct (closed
    form), a derived recipe, or a _Table (ingested).
    """

    __slots__ = ("level", "weight", "label", "source")

    def __init__(self, level: int, weight: int, label: str, source):
        self.level = level
        self.weight = weight
        self.label = label
        self.source = source

    def expand(self, precision: int) -> QSeries:
        return self.source.expand(precision)

    def a(self, n: int) -> CycNumber:
        return self.expand(n + 1).coefficient(n)

    def name(self) -> str:
        return f"{self.level}.{self.weight}.{self.label}"

    def spec_text(self) -> str:
        return f"newform[{self.level},{self.weight},{self.label}]"

    def source_text(self) -> str:
        if isinstance(self.source, _Table):
            return "ingested"
        if isinstance(self.source, _Leaf):
            return self.source.payload.spec_text()
        return "derived"

    def __repr__(self) -> str:
        return f"NewformRecord({self.name()}, {self.source_text()})"


class CuspAtom:
    """g(n tau) for a newform g of level L, giving a basis vector of the
    weight-k cusp space at any level N with n*L | N.  Immutable, equal and
    hashed by its two fields."""

    __slots__ = ("record", "n")

    def __init__(self, record: NewformRecord, n: int):
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("CuspAtom is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CuspAtom) and (self.record, self.n) == (other.record, other.n)

    def __hash__(self) -> int:
        return hash((self.record, self.n))

    def __repr__(self) -> str:
        return f"CuspAtom(record={self.record!r}, n={self.n!r})"

    @property
    def weight(self) -> int:
        return self.record.weight

    def expand(self, precision: int) -> QSeries:
        if self.n == 1:
            return self.record.expand(precision)
        base = self.record.expand((precision - 1) // self.n + 1)
        return base.dilate(self.n, precision)

    def spec_text(self) -> str:
        inner = self.record.spec_text()
        return inner if self.n == 1 else f"dilate[{self.n}]({inner})"


# ---------------------------------------------------------------------------
# built-in catalog

_BUILTIN_ETA: dict[tuple[int, int], list[tuple[str, list[tuple[int, int]]]]] = {
    (1, 12): [("delta", [(1, 24)])],
    (2, 8): [("a", [(1, 8), (2, 8)])],
    (3, 6): [("a", [(1, 6), (3, 6)])],
    (4, 6): [("a", [(2, 12)])],
    (5, 4): [("a", [(1, 4), (5, 4)])],
    (6, 4): [("a", [(1, 2), (2, 2), (3, 2), (6, 2)])],
    (11, 2): [("a", [(1, 2), (11, 2)])],
}

_registry_lock = threading.RLock()
_ingest_count = 0  # bumped by ingest and reset_caches


def catalog_state() -> tuple[str, int]:
    """The cache directory, resolved, and the ingest count: everything built
    from the catalog holds for one state, so caches key off it.  realpath
    is what Path.resolve() does, without building a Path on every call."""
    return os.path.realpath(_cache_path()), _ingest_count


@functools.cache
def _builtin_records(level: int, weight: int) -> tuple[NewformRecord, ...]:
    return tuple(
        NewformRecord(level, weight, label, _Leaf(EtaProduct(factors)))
        for label, factors in _BUILTIN_ETA.get((level, weight), [])
    )


def cache_dir() -> Path:
    return Path(_cache_path())


def _cache_path() -> str:
    return os.environ.get("QMF_CACHE_DIR", ".qmf-cache")


@functools.cache
def _ingested(root: str) -> dict[tuple[int, int], dict[str, NewformRecord]]:
    """Records of the .qs files in one cache directory, read once."""
    store: dict[tuple[int, int], dict[str, NewformRecord]] = {}
    if Path(root).is_dir():
        for path in sorted(Path(root).glob("*.qs")):
            try:
                rec = _record_from_file(path)
            except (ValueError, OSError):
                continue
            store.setdefault((rec.level, rec.weight), {})[rec.label] = rec
    return store


def _record_from_file(path: Path) -> NewformRecord:
    with open(path, "r", encoding="utf-8") as handle:
        series, headers = load_qseries(handle)
    for field in ("level", "weight", "label"):
        if field not in headers:
            raise ValueError(f"{path}: newform file lacks {field} header")
    level, weight = int(headers["level"]), int(headers["weight"])
    label = str(headers["label"])
    return NewformRecord(level, weight, label, _Table(series, f"{level}.{weight}.{label}"))


def catalog_lookup(level: int, weight: int) -> list[NewformRecord]:
    """All known newform records for the space, sorted by label.

    The complete catalog when newforms_for has it; otherwise the built-in
    and ingested records alone, so it never raises on derivation failure.
    """
    try:
        return newforms_for(level, weight)
    except CatalogIncompleteError:
        merged = _known_records(level, weight, catalog_state()[0])
        return [merged[label] for label in sorted(merged)]


def _known_records(level: int, weight: int, root: str) -> dict[str, NewformRecord]:
    """Built-in records and those ingested into root, by label; a built-in
    label wins."""
    merged = {r.label: r for r in _builtin_records(level, weight)}
    with _registry_lock:
        for label, rec in _ingested(root).get((level, weight), {}).items():
            merged.setdefault(label, rec)
    return merged


def newforms_for(level: int, weight: int) -> list[NewformRecord]:
    """Complete list of weight-`weight` newforms of exact level `level`.

    Raises CatalogIncompleteError when records cannot be completed to the
    dimension of the new subspace.
    """
    if level < 1:
        raise ValueError("level must be positive")
    with _registry_lock:
        outcome = _catalog(level, weight, catalog_state())
    if isinstance(outcome, str):
        raise CatalogIncompleteError(level, weight, outcome)
    return list(outcome)


@functools.cache
def _catalog(
    level: int, weight: int, state: tuple[str, int]
) -> tuple[NewformRecord, ...] | str:
    """The newform records of a space under one catalog state, sorted by
    label, or the message saying why they are not all known; both are
    cached, so a failing space is derived once per state.

    The known records are derived to completion when too few; two records
    are one form when they agree below the Sturm bound, and the result must
    hold each of the dim_cusp_new forms exactly once.
    """
    expected = dim_cusp_new(level, weight)
    records = _known_records(level, weight, state[0])
    bound = sturm_bound(weight, level)
    try:
        forms = {label: rec.expand(bound) for label, rec in records.items()}
    except ValueError as err:
        # an ingested table shorter than the Sturm bound
        return str(err)
    if len(records) < expected:
        try:
            derived = _derive_space(level, weight)
        except (DerivationError, CatalogIncompleteError) as err:
            return str(err)
        for rec in derived:
            form = rec.expand(bound)
            if form in forms.values():
                continue
            if rec.label in records:
                return (
                    f"label {rec.label} of {level}.{weight} holds another"
                    f" form than the derived {rec.name()}"
                )
            records[rec.label] = rec
            forms[rec.label] = form
    if len(records) != expected:
        return f"{len(records)} of {expected} newforms known"
    out = tuple(records[label] for label in sorted(records))
    for first, second in itertools.combinations(out, 2):
        if forms[first.label] == forms[second.label]:
            return f"{first.name()} and {second.name()} are the same form"
    return out


def cusp_basis(N: int, k: int) -> list[CuspAtom]:
    """Basis of S_k(Gamma0(N)) as dilated newforms g(n tau), n*L | N.

    Requires complete newform coverage for every level dividing N at this
    weight; raises CatalogIncompleteError otherwise.
    """
    atoms: list[CuspAtom] = []
    for L in divisors(N):
        if dim_cusp_new(L, k) == 0:
            continue
        for rec in newforms_for(L, k):
            for n in divisors(N // L):
                atoms.append(CuspAtom(rec, n))
    assert len(atoms) == dim_cusp(N, k)
    return atoms


# ---------------------------------------------------------------------------
# exact derivation of newform spaces

def _derive_space(level: int, weight: int) -> list[NewformRecord]:
    """Derive all weight-`weight` newforms of exact level `level`."""
    dim_new = dim_cusp_new(level, weight)
    if dim_new == 0:
        return []
    if weight == 2:
        # weight-2 cusp forms are never products of lower-weight forms
        raise DerivationError("no product construction reaches weight 2")

    dim_total = dim_cusp(level, weight)
    R = sturm_bound(weight, level)
    basis_exprs, coord_solver = _span_cusp_space(level, weight, dim_total, R)
    eigen = _split_eigenlines(level, weight, basis_exprs, coord_solver, R)
    if len(eigen) != dim_new:
        raise DerivationError(
            f"found {len(eigen)} eigenlines, expected {dim_new} newforms"
        )

    records = []
    for expr, series in eigen:
        a1 = series.coefficient(1)
        if a1.is_zero():
            raise DerivationError("eigenline has vanishing leading coefficient")
        inv = a1.inverse()
        # scale the rational basis, not the eigenline's series, by inv:
        # a product of two cyclotomic series costs phi(M)^2 series products
        normalized = _Linear([(c * inv, e) for c, e in expr.terms])
        rec = NewformRecord(level, weight, "?", normalized)
        records.append(rec)
    # deterministic labels: sort by coefficient tuples
    def coeff_key(rec: NewformRecord):
        f = rec.expand(R + 1)
        return tuple(f.coefficient(n).sort_key() for n in range(1, R + 1))

    records.sort(key=coeff_key)
    for i, rec in enumerate(records):
        rec.label = _index_label(i)
    for rec in records:
        report = verify_hecke(rec, max(R + 10, 40))
        if not report.ok:
            raise DerivationError(
                f"derived eigenline fails Hecke verification: {report.failure}"
            )
    return records


def _index_label(i: int) -> str:
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def _span_cusp_space(level: int, weight: int, dim_total: int, R: int):
    """Linearly independent rational expressions spanning
    S_weight(Gamma0(level)), and the solver of their expansions to q^R.

    Candidates, in order: dilated lower-level newforms, products of known
    cusp forms with modular forms of complementary weight, and Eisenstein
    products pushed into the cusp space by a Hecke eigenvalue annihilator.
    A candidate over Q(zeta_M) offers its power-basis coordinate series:
    each is a cusp form, as S_weight(Gamma0(level)) has a rational basis
    and power-basis coordinates are unique.  A series is picked when the
    solver of those picked before certifies it outside their span.
    """
    rows_precision = R + 1
    picked_exprs: list[_Expr] = []
    columns: list[tuple[int, ...]] = []
    scales: list[int] = []
    solver = None

    def try_add(expr: _Expr) -> None:
        nonlocal solver
        series = expr.expand(rows_precision)
        den, nums = series.numerators()
        for j, col in enumerate(nums):
            if len(picked_exprs) >= dim_total:
                return
            if not any(col):
                continue
            if solver is not None and solver.solve([col], den) is not None:
                continue  # in the span of the columns picked so far
            picked_exprs.append(
                expr if series.conductor == 1 else _Coordinate(expr, series.conductor, j))
            columns.append(col)
            scales.append(den)
            solver = LinearSolver(columns, scales)

    # 1. oldforms: dilations of lower-level newforms
    for L in divisors(level)[:-1]:
        if dim_cusp_new(L, weight) == 0:
            continue
        for rec in newforms_for(L, weight):
            for n in divisors(level // L):
                try_add(_Leaf(CuspAtom(rec, n)))

    # 2. known cusp forms times modular forms of complementary weight
    for w in range(weight - 2, 1, -2):
        if len(picked_exprs) >= dim_total:
            break
        if dim_cusp(level, w) == 0:
            continue
        try:
            cusp_atoms = cusp_basis(level, w)
        except CatalogIncompleteError:
            continue
        multipliers: list[_Expr] = [
            _Leaf(atom) for atom in eisenstein_basis(level, weight - w)
        ]
        if dim_cusp(level, weight - w):
            try:
                multipliers.extend(
                    _Leaf(atom) for atom in cusp_basis(level, weight - w)
                )
            except CatalogIncompleteError:
                pass
        for c_atom in cusp_atoms:
            for mult in multipliers:
                if len(picked_exprs) >= dim_total:
                    break
                try_add(_Product((_Leaf(c_atom), mult)))

    # 3. Eisenstein products, projected into the cusp space
    if len(picked_exprs) < dim_total:
        projector_ps = [p for p in primes_upto(50) if level % p][:1]
        for w in range(2, weight - 1, 2):
            if len(picked_exprs) >= dim_total:
                break
            left = eisenstein_basis(level, w)
            right = eisenstein_basis(level, weight - w)
            for a in left:
                for b in right:
                    if len(picked_exprs) >= dim_total:
                        break
                    expr: _Expr = _Product((_Leaf(a), _Leaf(b)))
                    for p in projector_ps:
                        expr = _eisenstein_annihilator(expr, level, weight, p)
                    try_add(expr)

    if len(picked_exprs) < dim_total:
        raise DerivationError(
            f"spanned only {len(picked_exprs)} of {dim_total} cusp dimensions"
        )
    return picked_exprs, solver


def _eisenstein_annihilator(expr: _Expr, level: int, weight: int, p: int) -> _Expr:
    """Compose (T_p - lambda) over the distinct Eisenstein eigenvalues at
    this level and weight; the result of applying it to any modular form of
    the level lies in the cusp space."""
    lambdas = []
    for atom in eisenstein_basis(level, weight):
        chi = atom.chi
        lam = chi.inverse()(p) + chi(p) * p ** (weight - 1)
        if all(lam != seen for seen in lambdas):
            lambdas.append(lam)
    out = expr
    for lam in lambdas:
        out = _Linear([(1, _HeckeImage(out, p, weight)), (-lam, out)])
    return out


def _split_eigenlines(level, weight, basis_exprs, coord_solver, R):
    """Split span(basis) into T_p eigenlines; return the 1-dimensional
    pieces as (expression, series to q^R) pairs.  The basis is rational and
    coord_solver factorizes its expansions to q^R, one int column per basis
    element, so every T_p matrix and every piece is rational."""
    rows_precision = R + 1
    expected = dim_cusp_new(level, weight)
    split_primes = [p for p in primes_upto(max(30, R)) if level % p]
    dim = len(basis_exprs)
    lines, pieces = [], [[[int(i == j) for j in range(dim)] for i in range(dim)]]
    for p in split_primes:
        lines += [piece[0] for piece in pieces if len(piece) == 1]
        pieces = [piece for piece in pieces if len(piece) > 1]
        # dilation spans of one old newform stay glued under every T_p with
        # p coprime to the level, so each 1-dimensional piece is new; stop
        # once all expected new lines have separated or nothing is left
        if len(lines) >= expected or not pieces:
            break
        tp_cols = _hecke_matrix(basis_exprs, coord_solver, p, weight, rows_precision)
        pieces = _refine_pieces(pieces, tp_cols, p, weight)
    else:
        lines += [piece[0] for piece in pieces if len(piece) == 1]
    if len(lines) != expected:
        raise DerivationError(
            f"eigenline splitting found {len(lines)} lines, expected {expected}"
        )
    out = []
    for coords in lines:
        expr = _Linear([(c, e) for c, e in zip(coords, basis_exprs) if c])
        # truncates the basis memos that _hecke_matrix filled
        out.append((expr, expr.expand(rows_precision)))
    return out


def _hecke_matrix(basis_exprs, coord_solver, p, weight, rows_precision):
    """Columns of T_p on the basis: column j holds the rational coordinates
    of T_p(basis_j), solved from its integer numerators."""
    cols = []
    need = p * (rows_precision - 1) + 1
    for expr in basis_exprs:
        image = hecke_image(expr.expand(need), p, weight, rows_precision)
        den, nums = image.numerators()
        coords = coord_solver.solve(nums, den)
        if coords is None:
            raise DerivationError(f"T_{p} image left the candidate span")
        cols.append([c.as_rational() for c in coords])
    return cols


def _refine_pieces(pieces, tp_cols, p, weight):
    """Split each piece (a list of at least two rational coordinate
    vectors) by T_p."""
    out = []
    for piece in pieces:
        # restrict T_p to the piece: T * S = S * A
        columns, scales = zip(*map(_integer_form, piece))
        span_solver = LinearSolver(columns, scales)
        a_cols = []
        for v in piece:
            nums, scale = _integer_form(_vec_combination(tp_cols, v))
            col = span_solver.solve([nums], scale)
            if col is None:
                raise DerivationError("piece is not Hecke stable")
            a_cols.append([c.as_rational() for c in col])
        A = [list(row) for row in zip(*a_cols)]
        for sub in _eigen_split_matrix(A, p, weight):
            out.append([_vec_combination(piece, v) for v in sub])
    return out


def _integer_form(values) -> tuple[list[int], int]:
    """(nums, scale) of a rational vector: scale is the lcm of the
    denominators and nums[i] == values[i] * scale."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _vec_combination(vectors, coeffs):
    out = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(vec):
                if x:
                    out[i] += c * x
    return out


def _char_poly(B):
    """The characteristic polynomial of the integer matrix B by the trace
    recurrence, as ints listed from the constant term up; its coefficients
    are integers, so each division by k is exact."""
    n = len(B)
    coeffs = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        M = _mat_mul(B, M)
        c = coeffs[n - k] = -sum(M[i][i] for i in range(n)) // k
        for i in range(n):
            M[i][i] += c
    return coeffs


def _mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def _poly_eval_int(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _monotone_breaks(poly: list[int], lo: int, hi: int) -> list[int]:
    """Integer cut points lo = c0 < ... < cm = hi such that the integer
    polynomial is monotone between consecutive cuts, except on gaps of
    width 1.

    Works down the derivative chain: sign changes of the derivative are
    bisected to unit intervals, whose endpoints become cuts."""
    cuts = {lo, hi}
    if len(poly) <= 2:
        return sorted(cuts)
    deriv = [poly[i] * i for i in range(1, len(poly))]
    dbreaks = _monotone_breaks(deriv, lo, hi)
    cuts.update(c for c in dbreaks if lo < c < hi)
    for x, y in _sign_changes(deriv, dbreaks):
        cuts.update((x, y))
    return sorted(cuts)


def _sign_changes(poly: list[int], breaks: list[int]) -> list[tuple[int, int]]:
    """Bisect the integer polynomial between consecutive breaks: a root m,
    at a break or met while bisecting, gives (m, m), and a strict sign
    change across a gap wider than 1 gives the unit interval holding it."""
    vals = [_poly_eval_int(poly, c) for c in breaks]
    out = [(c, c) for c, v in zip(breaks, vals) if v == 0]
    for a, b, fa, fb in zip(breaks, breaks[1:], vals, vals[1:]):
        if b - a <= 1 or fa == 0 or fb == 0 or (fa < 0) == (fb < 0):
            continue
        x, y, fx = a, b, fa
        while y - x > 1:
            m = (x + y) // 2
            fm = _poly_eval_int(poly, m)
            if fm == 0:
                x = y = m
            elif (fm < 0) == (fx < 0):
                x, fx = m, fm
            else:
                y = m
        out.append((x, y))
    return out


def _integer_roots(poly: list[int], bound: int) -> list[int]:
    """All integers r with |r| <= bound and poly(r) == 0, found exactly by
    bisection on monotone segments; O(deg^2 log bound) evaluations."""
    found = _sign_changes(poly, _monotone_breaks(poly, -bound - 1, bound + 1))
    return sorted({x for x, y in found if x == y and -bound <= x <= bound})


def _eigen_split_matrix(A, p, weight):
    """Split the space acted on by the small matrix A into the kernels of
    g(A), one for each rational factor g of the characteristic polynomial.

    The factors are x - r for each integer eigenvalue r inside the
    coefficient bound |a_p| <= 2 p^((k-1)/2), then the leftover, if any.  A
    leftover quadratic splits its kernel into two eigenlines; a leftover of
    degree >= 3 stays one piece for later primes.  Returns the coordinate
    bases of the pieces.

    A is rational.  With d the lcm of its denominators and B = dA, the
    characteristic polynomial of A with its denominators cleared is
    d^n det(x - A) = det(dx - B), and d^deg(g) g(B/d) is an integer matrix
    with the kernel of g(A), so all of it runs in integers."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    B = [[x.numerator * (d // x.denominator) for x in row] for row in A]
    poly = [c * d**i for i, c in enumerate(_char_poly(B))]
    window = 2 * math.isqrt(p ** (weight - 1)) + 2
    factors = []
    for cand in _integer_roots(poly, window):
        mult = 0
        while len(poly) > 1 and _poly_eval_int(poly, cand) == 0:
            poly = _deflate(poly, cand)
            mult += 1
        factors.append(([-cand, 1], mult))
    if len(poly) > 1:
        factors.append((poly, 1))
    pieces = []
    for g, mult in factors:
        deg = len(g) - 1
        kern = null_space(_poly_matrix_eval([c * d ** (deg - i) for i, c in enumerate(g)], B))
        if len(kern) != mult * deg:
            raise DerivationError("factor kernel has wrong dimension (not semisimple?)")
        if deg == 2:
            monic = [Fraction(c, g[-1]) for c in g]
            pieces.extend([v] for v in _quadratic_eigenlines(A, monic, kern[0]))
        else:
            pieces.append(kern)
    return pieces


def _quadratic_eigenlines(A, g, w):
    """The eigenvectors (A - lam')w, one per root lam of the monic quadratic
    g, where lam' is the other root and w lies in the kernel of g(A).  Each
    is checked to be nonzero with A v == lam v."""
    b, c0 = g[1], g[0]
    disc = b * b - 4 * c0
    if disc <= 0:
        raise DerivationError("non-real quadratic eigenvalue factor")
    sq = _sqrt_cyclotomic(disc)
    half = Fraction(1, 2)
    lam, conj = (sq - b) * half, (-sq - b) * half
    cols = list(zip(*A))
    aw = _vec_combination(cols, w)
    lines = []
    for root, other in ((lam, conj), (conj, lam)):
        v = [x - other * y for x, y in zip(aw, w)]
        # root * v as root * Aw - (lam lam') w, lam lam' = c0, so that no
        # product has two irrational factors
        root_v = [root * x - c0 * y for x, y in zip(aw, w)]
        if not any(v) or _vec_combination(cols, v) != root_v:
            raise DerivationError("quadratic factor kernel holds no eigenline")
        lines.append(v)
    return lines


def _deflate(poly: list[int], root: int) -> list[int]:
    out = [0] * (len(poly) - 1)
    acc = 0
    for i in range(len(poly) - 1, 0, -1):
        acc = poly[i] + acc * root
        out[i - 1] = acc
    return out


def _poly_matrix_eval(poly, A):
    """g(A) by Horner's rule for g = poly, listed from the constant term
    up; degree d costs d - 1 matrix products."""
    out = None
    for c in reversed(poly[:-1]):
        out = [[poly[-1] * x for x in row] for row in A] if out is None else _mat_mul(A, out)
        for i in range(len(A)):
            out[i][i] += c
    return out


def _jacobi_symbol(a: int, m: int) -> int:
    # m odd positive; standard via factorization at desk scale
    out = 1
    for p, e in factorize(m).items():
        leg = pow(a % p, (p - 1) // 2, p)
        if leg == p - 1:
            leg = -1
        if leg == 0:
            return 0
        if e % 2:
            out *= leg
    return out


def _sqrt_cyclotomic(value: Fraction) -> CycNumber:
    """Exact square root of a positive rational inside a cyclotomic field,
    built from quadratic resolvent sums; the result squares back to value."""
    if value <= 0:
        raise DerivationError("cyclotomic square root needs a positive rational")
    num, den = value.numerator, value.denominator
    # sqrt(n/d) = sqrt(n*d)/d
    target = num * den
    square = 1
    rest = 1
    for prime, e in factorize(target).items():
        square *= prime ** (e // 2)
        if e % 2:
            rest *= prime
    if rest == 1:
        out = CycNumber.from_rational(Fraction(square, den))
        assert out * out == value
        return out
    if rest > 150:
        # the Gauss-sum embedding would need conductor ~rest; every later
        # product of such numbers costs phi(rest)^2 int products and every
        # inverse solves a phi(rest)-square system, which is past the
        # exact-arithmetic budget
        raise DerivationError(
            f"eigenvalue field Q(sqrt({rest})) is too large for exact"
            " cyclotomic representation"
        )
    odd = rest // 2 if rest % 2 == 0 else rest
    acc = CycNumber.from_rational(1)
    if rest % 2 == 0:
        z8 = CycNumber.root_of_unity(8)
        acc = acc * (z8 + z8**7)  # sqrt(2)
    if odd > 1:
        M = odd
        gauss = CycNumber.zero()
        for aa in range(1, M):
            sym = _jacobi_symbol(aa, M)
            if sym:
                term = CycNumber.root_of_unity(M, aa)
                gauss = gauss + (term if sym > 0 else -term)
        if M % 4 == 1:
            acc = acc * gauss
        else:
            # gauss = i*sqrt(M); divide out i, as 1/i = zeta_4^3
            acc = acc * gauss * CycNumber.root_of_unity(4, 3)
    out = acc * Fraction(square, den)
    assert out * out == value, "square-root construction failed self-check"
    return out


# ---------------------------------------------------------------------------
# verification

class HeckeReport:
    """The outcome of verify_hecke: how many checks ran, and the first
    failure, if any.  Equal by its fields, so unhashable."""

    __slots__ = ("record", "precision", "ok", "multiplicative_checks",
                 "prime_power_checks", "failure")

    def __init__(self, record: str, precision: int, ok: bool, multiplicative_checks: int,
                 prime_power_checks: int, failure: str | None = None):
        self.record = record
        self.precision = precision
        self.ok = ok
        self.multiplicative_checks = multiplicative_checks
        self.prime_power_checks = prime_power_checks
        self.failure = failure

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeReport) and self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"HeckeReport({shown})"


def verify_hecke(rec: NewformRecord, precision: int) -> HeckeReport:
    """Check a(1)=1, multiplicativity on coprime pairs, and the p-power
    recurrence a(p^(r+1)) = a(p) a(p^r) - p^(k-1) a(p^(r-1)) for p not
    dividing the level, for all indices below `precision`."""
    f = rec.expand(precision)
    k, L = rec.weight, rec.level
    name = rec.name()
    if not f.coefficient(0).is_zero():
        return HeckeReport(name, precision, False, 0, 0, "a(0) != 0")
    if f.coefficient(1) != 1:
        return HeckeReport(name, precision, False, 0, 0, "a(1) != 1")
    mult_checks = 0
    for m in range(2, precision):
        if m * 2 >= precision:
            break
        for n in range(m + 1, (precision - 1) // m + 1):
            if math.gcd(m, n) == 1:
                mult_checks += 1
                if f.coefficient(m * n) != f.coefficient(m) * f.coefficient(n):
                    return HeckeReport(
                        name, precision, False, mult_checks, 0,
                        f"a({m*n}) != a({m})a({n})",
                    )
    power_checks = 0
    for p in primes_upto(precision - 1):
        if L % p == 0:
            continue
        pk = p ** (k - 1)
        q = p * p
        while q < precision:
            power_checks += 1
            lhs = f.coefficient(q)
            rhs = f.coefficient(p) * f.coefficient(q // p) - pk * f.coefficient(q // (p * p))
            if lhs != rhs:
                return HeckeReport(
                    name, precision, False, mult_checks, power_checks,
                    f"a({q}) breaks the T_{p} recurrence",
                )
            q *= p
    return HeckeReport(name, precision, True, mult_checks, power_checks)


def ingest(path: str | os.PathLike) -> NewformRecord:
    """Validate a q-series file as a newform record and cache it.

    Requirements: level/weight/label headers, a(0) = 0, a(1) = 1, precision
    at least the pinning bound for the space, all Hecke checks passing
    within the stated precision, and Deligne's bound a(p)^2 <= 4 p^(k-1)
    at every prime p not dividing the level below the precision where a(p)
    is rational (an Eisenstein series passes the Hecke checks and fails
    this).  The verified series is re-serialized into the cache directory
    as level.weight.label.qs.
    """
    global _ingest_count
    path = Path(path)
    rec = _record_from_file(path)
    L, k = rec.level, rec.weight
    if k < 2 or k % 2:
        raise ValueError(f"newform weight must be even and >= 2, got {k}")
    precision = rec.source.precision
    needed = sturm_bound(k, L)
    if precision < needed:
        raise ValueError(
            f"precision {precision} is below the pinning bound "
            f"{needed} for level {L}, weight {k}"
        )
    report = verify_hecke(rec, precision)
    if not report.ok:
        raise ValueError(f"Hecke verification failed: {report.failure}")
    series = rec.expand(precision)
    for p in primes_upto(precision - 1):
        a_p = series.coefficient(p)
        if L % p and a_p.is_rational() and a_p.as_rational() ** 2 > 4 * p ** (k - 1):
            raise ValueError(
                f"a({p}) = {a_p.as_rational()} breaks Deligne's bound a(p)^2 <= 4 p^{k - 1}"
            )
    root = cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    target = root / f"{L}.{k}.{rec.label}.qs"
    with open(target, "w", encoding="utf-8") as handle:
        dump_qseries(series, handle, level=L, weight=k, label=rec.label)
    with _registry_lock:
        # a directory not read yet loads every file on disk, not only this one
        _ingested(os.path.realpath(root)).setdefault((L, k), {})[rec.label] = rec
        _ingest_count += 1
    return rec


def reset_caches() -> None:
    """Drop the catalog and ingested registries (mainly for tests)."""
    global _ingest_count
    with _registry_lock:
        _catalog.cache_clear()
        _ingested.cache_clear()
        _ingest_count += 1
