"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the modules in
``src/qmf`` from outside, without editing them.  Each wrapped call becomes a
span ``[name, start_ns, end_ns, parent_index, op]``; spans stay in memory and
are written out once, when the traced process ends.  Count hooks run after a
call returns and add work counts computed from argument sizes.

A wrapped name is patched in its defining module and in every ``qmf``
module that imported it with ``from ... import ...`` (``cli`` holds its own
``macmahon``, ``quasimodular`` its own ``cusp_basis``), and a method is
patched under every alias in its class (``__radd__ = __add__``).

Per-scalar hot paths (``CycNumber.__mul__``, ``Fraction`` arithmetic,
``QSeries.__init__``) are never wrapped: their call counts are in the
millions and a wrapper would dominate what it measures.  A target that no
longer exists is skipped and listed under ``missing``; its metrics read 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# Span names, one per wrapped target.  Per-layer metric names are built from
# these (``<span>_s``, ``<span>_calls``, ``<span>_self_s``).
FACTOR = "exact.factor"
SOLVE = "exact.solve"
CYC_INVERSE = "exact.cyc_inverse"
ETA_EXPAND = "qseries.eta_expand"
MUL = "qseries.mul"
ADD = "qseries.add"
SCALE = "qseries.scale"
APPLY_D = "qseries.apply_D"
DILATE = "qseries.dilate"
LOAD = "qseries.load"
DUMP = "qseries.dump"
EIS_BASIS = "eisenstein.basis"
ATOM_EXPAND = "eisenstein.atom_expand"
ENUM_PRIMITIVE = "characters.enumerate_primitive"
LOOKUP = "newforms.lookup"
CUSP_BASIS = "newforms.cusp_basis"
RECORD_EXPAND = "newforms.record_expand"
VERIFY_HECKE = "newforms.verify_hecke"
HECKE_IMAGE = "newforms.hecke_image"
ASSEMBLE = "quasimodular.assemble"
DECOMPOSE = "quasimodular.decompose"
MACMAHON = "detect.macmahon"
VERDICT = "detect.verdict"
CENSUS = "detect.census"
CLI_MAIN = "cli.main"
EVAL_FORM = "cli.eval_form"


class Recorder:
    """Spans and counters of one traced process (single-threaded use)."""

    def __init__(self):
        self.spans: list[list] = []
        self.sums: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.marks: dict[str, set] = {}
        self.op = None
        self._stack: list[int] = []

    def add(self, name: str, amount: int) -> None:
        self.sums[name] = self.sums.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, value - 1):
            self.peaks[name] = value

    def mark(self, name: str, key) -> None:
        self.marks.setdefault(name, set()).add(key)

    def wrap(self, name, fn, hook=None, when=None):
        """Return fn wrapped in a span; hook(recorder, args, result) counts,
        and when(args) false calls straight through without a span."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    # a changed signature must not break the traced program
                    self.add("trace.hook_errors", 1)
            return result

        return wrapper

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {
            "spans": self.spans,
            "sums": self.sums,
            "peaks": self.peaks,
            "marks": {k: len(v) for k, v in self.marks.items()},
        }
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- count hooks (computed from argument sizes, never from internals) -------

def _factor_hook(rec, args, result):
    solver, rows = args[0], args[1]  # wraps __init__, so the solver is args[0]
    ncols = len(rows[0]) if rows else 0
    rec.add(FACTOR + "_calls", 1)
    rec.add(FACTOR + "_cells", len(rows) * ncols)
    conductor = max((c.conductor for row in rows for c in row), default=1)
    rec.peak(FACTOR + "_conductor_max", conductor)
    if solver.rank == ncols:
        rec.add(FACTOR + "_full_rank", 1)


def _counting(name):
    def hook(rec, args, result):
        rec.add(name + "_calls", 1)
    return hook


def _eta_hook(rec, args, result):
    product, precision = args[0], args[1]
    rec.add(ETA_EXPAND + "_coeffs", precision * len(product.factors))


def _is_series_product(args):
    return type(args[1]).__name__ == "QSeries"


def _mul_hook(rec, args, result):
    p = min(args[0].precision, args[1].precision)
    rec.add(MUL + "_calls", 1)
    rec.add(MUL + "_terms", p * (p + 1) // 2)


def _lookup_hook(rec, args, records):
    if any(r.source_text() == "derived" for r in records):
        rec.mark("newforms.derived_spaces", (args[0], args[1]))


def _decompose_hook(rec, args, dec):
    rec.add(DECOMPOSE + "_calls", 1)
    rec.peak("quasimodular.basis_atoms", len(dec.atoms))
    rec.peak("quasimodular.rows_used", dec.rows_used)
    rec.add("quasimodular.escalations", dec.escalations)


def _census_hook(rec, args, report):
    rec.peak("detect.census_eligible", report.eligible_count)


# (module, attribute path, span name, hook, when)
TARGETS = [
    ("qmf.exact", "LinearSolver.__init__", FACTOR, _factor_hook, None),
    ("qmf.exact", "LinearSolver.solve", SOLVE, _counting(SOLVE), None),
    ("qmf.exact", "CycNumber.inverse", CYC_INVERSE, _counting(CYC_INVERSE), None),
    ("qmf.qseries", "EtaProduct.expand", ETA_EXPAND, _eta_hook, None),
    ("qmf.qseries", "QSeries.__mul__", MUL, _mul_hook, _is_series_product),
    ("qmf.qseries", "QSeries.__add__", ADD, _counting(ADD), None),
    ("qmf.qseries", "QSeries.__sub__", ADD, _counting(ADD), None),
    ("qmf.qseries", "QSeries.scale", SCALE, None, None),
    ("qmf.qseries", "QSeries.apply_D", APPLY_D, None, None),
    ("qmf.qseries", "QSeries.dilate", DILATE, None, None),
    ("qmf.qseries", "load_qseries", LOAD, None, None),
    ("qmf.qseries", "dump_qseries", DUMP, None, None),
    ("qmf.eisenstein", "eisenstein_basis", EIS_BASIS, None, None),
    ("qmf.eisenstein", "EisensteinAtom.expand", ATOM_EXPAND,
     _counting(ATOM_EXPAND), None),
    ("qmf.characters", "enumerate_primitive", ENUM_PRIMITIVE, None, None),
    ("qmf.newforms", "newforms_for", LOOKUP, _lookup_hook, None),
    ("qmf.newforms", "cusp_basis", CUSP_BASIS, None, None),
    ("qmf.newforms", "NewformRecord.expand", RECORD_EXPAND,
     _counting(RECORD_EXPAND), None),
    ("qmf.newforms", "verify_hecke", VERIFY_HECKE, None, None),
    ("qmf.newforms", "hecke_image", HECKE_IMAGE, None, None),
    ("qmf.quasimodular", "assemble_basis", ASSEMBLE, _counting(ASSEMBLE), None),
    ("qmf.quasimodular", "decompose", DECOMPOSE, _decompose_hook, None),
    ("qmf.detect", "macmahon", MACMAHON, None, None),
    ("qmf.detect", "prime_detect_verdict", VERDICT, None, None),
    ("qmf.detect", "census", CENSUS, _census_hook, None),
    ("qmf.cli", "main", CLI_MAIN, None, None),
    ("qmf.cli", "eval_form", EVAL_FORM, None, None),
]

# lru_cache objects whose cache_info() gives the hit ratios
CACHES = {
    "eisenstein.expand_cache": ("qmf.eisenstein", "_expand_atom"),
    "eisenstein.e2_cache": ("qmf.eisenstein", "e2_series"),
}


def install(rec: Recorder) -> list[str]:
    """Import every qmf module and wrap each target; returns missing targets."""
    import importlib

    for name in {t[0] for t in TARGETS}:
        importlib.import_module(name)
    modules = [m for n, m in sys.modules.items() if n == "qmf" or n.startswith("qmf.")]
    missing = []
    for module_name, path, span, hook, when in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = rec.wrap(span, original, hook, when)
        homes = [owner] if isinstance(owner, type) else modules
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    setattr(home, key, wrapped)
    return missing


def cache_counts() -> dict[str, list[int]]:
    """[hits, misses] of each tracked lru_cache in this process."""
    out = {}
    for name, (module_name, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(module_name), attr, None), "cache_info", None)
        if info is not None:
            got = info()
            out[name] = [got.hits, got.misses]
    return out


# -- analysis ------------------------------------------------------------------

def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, [])]
        out.append(end - start - _covered(k for k in kids if k[1] > k[0]))
    return out


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: inclusive ns (union, so recursion is not double
    counted), self ns and span count."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    intervals: dict[str, list] = {}
    for (name, start, end, parent, op), own in zip(spans, selfs):
        entry = by_name.setdefault(name, {"incl_ns": 0, "self_ns": 0, "count": 0})
        entry["self_ns"] += own
        entry["count"] += 1
        intervals.setdefault(name, []).append((start, end))
    for name, entry in by_name.items():
        entry["incl_ns"] = _covered(intervals[name])
    return by_name


def reuse_counts(spans) -> tuple[int, int]:
    """(decompose calls, decompose calls that ran a factorisation)."""
    factoring = set()
    for name, start, end, parent, op in spans:
        if name != FACTOR:
            continue
        while parent >= 0:
            if spans[parent][0] == DECOMPOSE:
                factoring.add(parent)
            parent = spans[parent][3]
    total = sum(1 for s in spans if s[0] == DECOMPOSE)
    return total, len(factoring)
