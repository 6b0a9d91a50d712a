"""Newforms for Gamma0(L): dimension formulas, catalog, ingestion,
verification.

Dimension formulas for Gamma0(L) make newform availability checkable: the
number of weight-k newforms equals the new-subspace dimension obtained by
Moebius inversion over levels.  Seven classical eta products are built in
and ingested files add more; a space that they leave short is derived
exactly on demand (`derive`, imported only then).  Spaces that cannot be
derived stay unavailable and operations that need them fail loudly.

All derived records keep a symbolic construction recipe, so they re-expand
exactly at any precision.  Ingested records are truncated coefficient
tables and cannot extend beyond their stated precision.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from pathlib import Path

from ._record import Record
from .errors import CatalogIncompleteError, DerivationError
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
    """Re-expandable series expression; memoizes its widest expansion.
    Expressions built alike are equal, so a record equals its copies."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: QSeries | None = None

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(type(self))  # its coefficients and tables are unhashable

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

    __slots__ = ("series", "name")

    def __init__(self, series: QSeries, name: str):
        super().__init__()
        self._memo = self.series = series
        self.name = name

    def _compute(self, precision: int) -> QSeries:
        raise ValueError(
            f"ingested newform {self.name} holds {self.series.precision} "
            f"coefficients; cannot expand to {precision}"
        )


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


# ---------------------------------------------------------------------------
# newform records

class NewformRecord(Record):
    """A normalized Hecke eigenform of exact level `level` and even weight.

    source is the _Expr that expands it: a _Leaf of an EtaProduct (closed
    form), a derived recipe, or a _Table (ingested).
    """

    __slots__ = ("level", "weight", "label", "source")

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


class CuspAtom(Record):
    """g(n tau) for a newform g of level L, giving a basis vector of the
    weight-k cusp space at any level N with n*L | N."""

    __slots__ = ("record", "n")

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
_ingest_count = 0  # bumped by an ingest that changes the catalog, and by reset_caches


def catalog_state() -> tuple[str, int]:
    """The cache directory, resolved, and the count of ingests that changed
    the catalog: everything built from the catalog holds for one state, so
    caches key off it.  realpath is what Path.resolve() does, without
    building a Path on every call."""
    return os.path.realpath(_cache_path()), _ingest_count


@functools.cache
def _builtin_records(level: int, weight: int) -> tuple[NewformRecord, ...]:
    return tuple(
        NewformRecord(level, weight, label, _Leaf(EtaProduct(factors)))
        for label, factors in _BUILTIN_ETA.get((level, weight), [])
    )


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
        from .derive import _derive_space

        try:
            derived = _derive_space(level, weight)
        except (DerivationError, CatalogIncompleteError, ValueError) as err:
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
# verification

class HeckeReport(Record):
    """The outcome of verify_hecke: how many checks ran, and the first
    failure, if any."""

    __slots__ = ("record", "precision", "ok", "multiplicative_checks",
                 "prime_power_checks", "failure")

    def __init__(self, record: str, precision: int, ok: bool, multiplicative_checks: int,
                 prime_power_checks: int, failure: str | None = None):
        super().__init__(record, precision, ok, multiplicative_checks, prime_power_checks, failure)


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

    Requirements: level/weight/label headers, a label that is a letter
    followed by letters and digits (the form grammar's newform[L,k,label]),
    a(0) = 0, a(1) = 1, precision at least the pinning bound for the space,
    all Hecke checks passing within the stated precision, and Deligne's
    bound a(p)^2 <= 4 p^(k-1) at every prime p not dividing the level below
    the precision where a(p) is rational (an Eisenstein series passes the
    Hecke checks and fails this).  So that an ingest never breaks the
    catalog of its space, the series must not agree below the pinning bound
    with a built-in or ingested record under another label, and a new label
    needs fewer such records than the space has newforms.  The verified
    series is re-serialized into the cache directory as
    level.weight.label.qs.
    """
    global _ingest_count
    path = Path(path)
    rec = _record_from_file(path)
    L, k = rec.level, rec.weight
    if not (rec.label.isascii() and rec.label.isalnum() and rec.label[0].isalpha()):
        raise ValueError(f"newform label {rec.label!r} is not a letter followed by letters and digits")
    if k < 2 or k % 2:
        raise ValueError(f"newform weight must be even and >= 2, got {k}")
    precision = rec.source.series.precision
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
    root = Path(_cache_path())
    target = root / f"{L}.{k}.{rec.label}.qs"
    with _registry_lock:
        # a directory not read yet loads every file on disk before this one
        merged = _known_records(L, k, os.path.realpath(root))
        form = series.truncate(needed)
        for other in merged.values():
            if other.label != rec.label and other.expand(needed) == form:
                raise ValueError(
                    f"{rec.name()} is {other.name()}: they agree below the pinning bound {needed}")
        expected = dim_cusp_new(L, k)
        if rec.label not in merged and len(merged) >= expected:
            raise ValueError(
                f"{L}.{k} has {expected} newforms, all known; a new label {rec.label}"
                f" would make {len(merged) + 1}")
        root.mkdir(parents=True, exist_ok=True)
        known = _ingested(os.path.realpath(root)).setdefault((L, k), {})
        old = known.get(rec.label)
        with open(target, "w", encoding="utf-8") as handle:
            dump_qseries(series, handle, level=L, weight=k, label=rec.label)
        known[rec.label] = rec
        # a built-in label hides the record; one that held this series stays
        if old != rec and all(r.label != rec.label for r in _builtin_records(L, k)):
            _ingest_count += 1
            _catalog.cache_clear()
    return rec


def reset_caches() -> None:
    """Drop the catalog and ingested registries (mainly for tests)."""
    global _ingest_count
    with _registry_lock:
        _catalog.cache_clear()
        _ingested.cache_clear()
        _ingest_count += 1
