"""The qmf benchmark: three seeded workloads, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out RECORD.json]

Run it from the repository root.  Workloads (see BENCHMARK.json for why):

  cli-decompose  `qmf expand` of a seeded rational combination of 8 fixed
                 level-6 weight<=8 basis atoms to the policy depth 92, then
                 `qmf decompose --level 6 --maxweight 8` of that file
  cli-scan       `qmf census --form "c*Delta" --xmax 20000`, `qmf detect`
                 of c' times the README MacMahon combination, and
                 `qmf macmahon --a 3 --nmax 1000`
  session        SESSION_WORKERS library processes in turn: each warms 5
                 solvers (its set-up), then runs a closed loop of seeded
                 decompose calls through `import qmf`

Every workload is a closed loop with one client: one operation at a time
from one process.  The CLI workloads run `python -m qmf.cli` as cold
subprocesses with PYTHONPATH=src; their operation is one pass over the
workload's commands (the user's task), and cmd.<command>_s in the report
gives each command's share.  The session's operation is one decompose
call.  The seed changes only coefficients and scalars, never which
commands, spaces or layers run; operation i of a seed always gets the same
inputs.  Operations repeat until --seconds of operation time have passed
(and at least MIN_PASSES passes or SESSION_MIN_OPS calls), so the gated
op_p95_s is a quantile over many operations (see END_TO_END_UNITS).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload once
untraced and once with the span recorder (tracer.py) wrapped around the
public functions of every module in src/qmf, and prints the per-layer
metrics; trace.overhead_ratio is traced wall over untraced wall.  Every
output is checked; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PY = sys.executable

RUN_BUDGET_S = 170.0  # a run must end within 180 s
# no new operation starts after this much of the budget, so the last one ends in time
OPS_CUTOFF_S = 100.0

# gated end-to-end metrics, printed in the JSON result
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p95_s": "s",
    "peak_rss_mb": "MB",
}
# Why the gated latency is the 95th percentile: on a shared host other tenants
# slow the program by up to 1.8x, in phases that last from seconds to
# minutes, so single operations come out bimodal and the share of slow ones
# changes from run to run.  In ten-run sets of cli-decompose and cli-scan on
# 2 vCPUs the quartile spread of the per-run p95 was 0.07-0.19 of its median,
# against 0.14-0.44 for the median and 0.09-0.30 for the 10th percentile:
# slow phases reached into every run, fast ones did not.  The median is
# still reported.

# CLI set-up: interpreter start plus importing the command-line module.  A few
# starts open the run and one follows every pass, so the samples span the run.
SETUP_STARTS_FIRST = 5
# session: worker processes, one after another; each warms the solvers (its
# set-up is one setup_s sample) and then makes its share of the calls
SESSION_WORKERS = 4

# at least this many operations, however long they take
MIN_PASSES = 5
SESSION_MIN_OPS = 200  # p95 needs at least 10 samples beyond it
TRACE_SESSION_OPS = 300

DECOMPOSE_LEVEL, DECOMPOSE_WEIGHT, DECOMPOSE_DEPTH = 6, 8, 92
# fixed so the seed cannot change the layer mix: Eisenstein atoms with and
# without derivatives and twists, a built-in newform, a derived level-6
# weight-8 newform, and two oldforms
DECOMPOSE_ATOMS = [
    "E2",
    "D^1(E2twist[3])",
    "E[6,1.1,2]",
    "D^2(E[4,1.1,6])",
    "D^1(newform[6,4,a])",
    "D^0(newform[6,8,a])",
    "D^0(dilate[3](newform[2,8,a]))",
    "D^1(dilate[2](newform[3,6,a]))",
]
DETECT_FORM = "(D^2)(U[1]) - 3*(D^1)(U[1]) + 2*U[1] - 8*U[2]"
DETECT_X = 1000
MACMAHON_A, MACMAHON_NMAX, MACMAHON_BRUTE = 3, 1000, 60
CENSUS_DELTA = "0.05"


# ---------------------------------------------------------------------------
# child processes


class Child:
    __slots__ = ("rc", "wall", "stdout", "stderr", "started")


class Runner:
    """Starts one child at a time, times it, and reaps it with its rusage."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # fixed string hashing: set and dict orders are the same in every run
        self.env["PYTHONHASHSEED"] = "0"
        # an empty ingestion cache: no stray .qs files change the catalog
        self.env["QMF_CACHE_DIR"] = str(workdir / "qmf-cache")

    def run(self, argv: list[str]) -> Child:
        self.count += 1
        out_path = self.workdir / f"child{self.count}.out"
        err_path = self.workdir / f"child{self.count}.err"
        child = Child()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child.started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(0.1, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            child.wall = time.perf_counter() - child.started
        proc.returncode = child.rc = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        child.stdout = out_path.read_text()
        child.stderr = err_path.read_text()
        return child

    def qmf(self, args: list[str], traced: str | None = None, op: int = 0) -> Child:
        if traced is None:
            return self.run([PY, "-m", "qmf.cli", *args])
        return self.run([PY, str(BENCH / "traced_cli.py"), traced, str(op), "--", *args])


def failure_reason(child: Child) -> str | None:
    if child.rc == 0:
        return None
    tail = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return f"exit code {child.rc}: {tail[0][:160]}"


# ---------------------------------------------------------------------------
# CLI workloads


def rational_text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def nonzero_fraction(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(1, top) * rng.choice((-1, 1)), rng.randint(1, top))


def op_rng(seed: int, op: int) -> random.Random:
    """The inputs of operation `op` under `seed`: the same on every run."""
    return random.Random(seed * 1_000_003 + op)


def decompose_commands(seed: int, op: int, workdir: Path):
    rng = op_rng(seed, op)
    want = {atom: nonzero_fraction(rng, 9) for atom in DECOMPOSE_ATOMS}
    form = " + ".join(f"{rational_text(c)}*{atom}" for atom, c in want.items())
    series = str(workdir / "combination.qs")

    def check_expand(child):
        head = Path(series).read_text().splitlines()[:3] if child.rc == 0 else []
        if head != ["# qseries v1", "conductor: 1", f"precision: {DECOMPOSE_DEPTH}"]:
            return f"series file header {head!r}"
        return None

    return [
        ("expand", ["expand", f"--form={form}", "--prec", str(DECOMPOSE_DEPTH), "--out", series],
         check_expand),
        ("decompose", ["decompose", "--series", series, "--level", str(DECOMPOSE_LEVEL),
                       "--maxweight", str(DECOMPOSE_WEIGHT)],
         lambda child: checks.check_decompose_report(child.stdout, want)),
    ]


def scan_commands(seed: int, op: int, workdir: Path):
    rng = op_rng(seed, op)
    c_census, c_detect = nonzero_fraction(rng, 97), nonzero_fraction(rng, 97)
    x = checks.CENSUS_X
    return [
        ("census", ["census", f"--form={rational_text(c_census)}*Delta", "--level", "1",
                    "--xmax", str(x), "--delta", CENSUS_DELTA],
         lambda child: checks.check_census_report(child.stdout, x, 1, CENSUS_DELTA)),
        ("detect", ["detect", f"--form={rational_text(c_detect)}*({DETECT_FORM})",
                    "--level", "1", "--xmax", str(DETECT_X)],
         lambda child: checks.check_detect_report(child.stdout, DETECT_X, 1)),
        ("macmahon", ["macmahon", "--a", str(MACMAHON_A), "--nmax", str(MACMAHON_NMAX)],
         lambda child: checks.check_macmahon_row(
             child.stdout, MACMAHON_A, MACMAHON_BRUTE,
             f"macmahon_a{MACMAHON_A}_n{MACMAHON_NMAX}.txt")),
    ]


CLI_WORKLOADS = {
    "cli-decompose": decompose_commands,
    "cli-scan": scan_commands,
}


def run_pass(runner, commands, tally, traced=False):
    """One pass over the commands; returns [(command, wall)] and span files."""
    walls, span_files = [], []
    for op, (name, args, check) in enumerate(commands):
        spans = None
        if traced:
            spans = str(runner.workdir / f"spans{op}.json")
            span_files.append(spans)
        child = runner.qmf(args, spans, op)
        tally.record(name, failure_reason(child) or check(child))
        walls.append((name, child.wall))
    return walls, span_files


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(latencies: list[float], setup: list[float], peak_rss_kb: int,
                    record: dict) -> dict:
    """The gated metrics; totals and the other quantiles go to the report lines."""
    wall = sum(latencies)
    record["samples"] = len(latencies)
    record["report"] = {
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "op_p50_s": statistics.median(latencies),
        "setup_samples": len(setup),
    }
    return {
        "setup_s": statistics.median(setup),
        "op_p95_s": quantile(latencies, 95),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def setup_start(runner, tally, setup):
    child = runner.run([PY, "-c", "import qmf.cli"])
    if tally.record("setup start", failure_reason(child)):
        setup.append(child.wall)


def run_cli(workload, seed, seconds, trace, runner, tally, record, t0):
    make_commands = CLI_WORKLOADS[workload]
    if trace:
        commands = make_commands(seed, 0, runner.workdir)
        walls, _ = run_pass(runner, commands, tally)
        traced_walls, span_files = run_pass(runner, commands, tally, traced=True)
        traces = [json.loads(Path(p).read_text()) for p in span_files if Path(p).exists()]
        if workload == "cli-scan":
            eligible = max((t["peaks"].get("detect.census_eligible", 0) for t in traces),
                           default=None)
            tally.record("census eligible count", checks.check_census_eligible(eligible))
        untraced = sum(w for _, w in walls)
        traced = sum(w for _, w in traced_walls)
        return layer_report(traces, traced / untraced, record)

    setup: list[float] = []
    for _ in range(SETUP_STARTS_FIRST):
        setup_start(runner, tally, setup)
    pass_walls: list[float] = []
    per_command: dict[str, list[float]] = {}
    op = 0
    while (op < MIN_PASSES or sum(pass_walls) < seconds) \
            and time.perf_counter() - t0 < OPS_CUTOFF_S:
        walls, _ = run_pass(runner, make_commands(seed, op, runner.workdir), tally)
        op += 1
        pass_walls.append(sum(w for _, w in walls))
        in_pass: dict[str, float] = {}
        for name, wall in walls:
            in_pass[name] = in_pass.get(name, 0.0) + wall
        for name, wall in in_pass.items():
            per_command.setdefault(f"cmd.{name}_s", []).append(wall)
        setup_start(runner, tally, setup)
    if not setup:
        return None
    metrics = latency_metrics(pass_walls, setup, runner.peak_rss_kb, record)
    # a command's time in one pass, median over passes
    record["report"].update({k: statistics.median(v) for k, v in per_command.items()})
    return metrics


# ---------------------------------------------------------------------------
# session workload


def session_worker(runner, seed, part, ops, seconds=0.0, cutoff=OPS_CUTOFF_S,
                   trace_path=None):
    argv = [PY, str(BENCH / "session_worker.py"), "--seed", str(seed), "--part", str(part),
            "--ops", str(ops), "--seconds", str(seconds), "--cutoff", str(cutoff)]
    if trace_path:
        argv += ["--trace", trace_path]
    child = runner.run(argv)
    lines = child.stdout.splitlines()
    ready = None
    if lines and lines[0].startswith("ready "):
        ready = float(lines[0].split()[1]) - child.started
    result = None
    if child.rc == 0 and len(lines) > 1:
        result = json.loads(lines[-1])
    return child, ready, result


def absorb(tally, child, result, what):
    reason = failure_reason(child)
    if reason is not None or result is None:
        tally.record(what, reason or "no result line")
        return False
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.reasons.extend(result["reasons"][:10])
    return True


def run_session(seed, seconds, trace, runner, tally, record, t0):
    if trace:
        # a fixed number of calls, so the traced and untraced workers do the same work
        child, _, plain = session_worker(runner, seed, 0, TRACE_SESSION_OPS)
        absorb(tally, child, plain, "session worker")
        spans = str(runner.workdir / "session_spans.json")
        child, _, traced = session_worker(runner, seed, 0, TRACE_SESSION_OPS, trace_path=spans)
        ok = absorb(tally, child, traced, "traced session worker")
        traces = [json.loads(Path(spans).read_text())] if ok else []
        ratio = sum(traced["latencies"]) / sum(plain["latencies"]) if ok and plain else 0.0
        return layer_report(traces, ratio, record, op_phase_only=True)

    # the calls are split over SESSION_WORKERS fresh processes in turn, so the
    # set-up samples are spread over the run
    setup, latencies = [], []
    for part in range(SESSION_WORKERS):
        cutoff = OPS_CUTOFF_S - (time.perf_counter() - t0)
        child, ready, result = session_worker(
            runner, seed, part, -(-SESSION_MIN_OPS // SESSION_WORKERS),
            seconds / SESSION_WORKERS, cutoff)
        if absorb(tally, child, result, "session worker") and ready is not None:
            setup.append(ready)
            latencies += result["latencies"]
    if not setup:
        return None
    return latency_metrics(latencies, setup, runner.peak_rss_kb, record)


# ---------------------------------------------------------------------------
# per-layer metrics from the traced processes

def layer_report(traces, overhead_ratio, record, op_phase_only=False) -> dict:
    """Per-layer metrics summed over the traced processes."""
    summary: dict[str, dict] = {}
    dominant: dict[str, int] = {}
    sums: dict[str, int] = {}
    peaks: dict[str, int] = {}
    marks: dict[str, int] = {}
    caches: dict[str, list[int]] = {}
    decompose_calls = factoring_calls = 0
    missing = set()
    for t in traces:
        spans = t["spans"]
        for name, entry in tracer.summarize(spans).items():
            acc = summary.setdefault(name, {"incl_ns": 0, "self_ns": 0, "count": 0})
            for key in acc:
                acc[key] += entry[key]
        # rank layers by self time; the session ranks its op phase only
        for span, own in zip(spans, tracer.self_times(spans)):
            if not op_phase_only or span[4] >= 0:
                dominant[span[0]] = dominant.get(span[0], 0) + own
        calls, factoring = tracer.reuse_counts(spans)
        decompose_calls += calls
        factoring_calls += factoring
        for key, value in t["sums"].items():
            sums[key] = sums.get(key, 0) + value
        for key, value in t["peaks"].items():
            peaks[key] = max(peaks.get(key, value), value)
        for key, value in t["marks"].items():
            marks[key] = marks.get(key, 0) + value
        for key, (hits, misses) in t["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
        missing.update(t["missing"])

    def incl(name):
        return summary.get(name, {}).get("incl_ns", 0) / 1e9

    def own(name):
        return summary.get(name, {}).get("self_ns", 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        hits, misses = caches.get(name, [0, 0])
        return ratio(hits, hits + misses)

    T = tracer
    m = {
        "exact.factor_s": incl(T.FACTOR),
        "exact.factor_calls": sums.get("exact.factor_calls", 0),
        "exact.factor_cells": sums.get("exact.factor_cells", 0),
        "exact.factor_conductor_max": peaks.get("exact.factor_conductor_max", 0),
        "exact.solve_s": incl(T.SOLVE),
        "exact.solve_calls": sums.get("exact.solve_calls", 0),
        "exact.cyc_inverse_s": incl(T.CYC_INVERSE),
        "exact.cyc_inverse_calls": sums.get("exact.cyc_inverse_calls", 0),
        "qseries.eta_expand_s": incl(T.ETA_EXPAND),
        "qseries.eta_coeffs": sums.get("qseries.eta_expand_coeffs", 0),
        "qseries.mul_s": incl(T.MUL),
        "qseries.mul_calls": sums.get("qseries.mul_calls", 0),
        "qseries.mul_terms": sums.get("qseries.mul_terms", 0),
        "qseries.add_s": incl(T.ADD),
        "qseries.add_calls": sums.get("qseries.add_calls", 0),
        "qseries.scale_s": incl(T.SCALE),
        "qseries.apply_D_s": incl(T.APPLY_D),
        "qseries.dilate_s": incl(T.DILATE),
        "qseries.load_s": incl(T.LOAD),
        "qseries.dump_s": incl(T.DUMP),
        "eisenstein.basis_s": incl(T.EIS_BASIS),
        "eisenstein.atom_expand_s": incl(T.ATOM_EXPAND),
        "eisenstein.atom_expand_calls": sums.get("eisenstein.atom_expand_calls", 0),
        "eisenstein.expand_cache_hit_ratio": hit_ratio("eisenstein.expand_cache"),
        "eisenstein.e2_cache_hit_ratio": hit_ratio("eisenstein.e2_cache"),
        "characters.enumerate_primitive_s": incl(T.ENUM_PRIMITIVE),
        "newforms.lookup_s": incl(T.LOOKUP),
        "newforms.lookup_self_s": own(T.LOOKUP),
        "newforms.derived_spaces": marks.get("newforms.derived_spaces", 0),
        "newforms.cusp_basis_s": incl(T.CUSP_BASIS),
        "newforms.record_expand_s": incl(T.RECORD_EXPAND),
        "newforms.record_expand_calls": sums.get("newforms.record_expand_calls", 0),
        "newforms.verify_hecke_s": incl(T.VERIFY_HECKE),
        "newforms.hecke_image_s": incl(T.HECKE_IMAGE),
        "quasimodular.assemble_s": incl(T.ASSEMBLE),
        "quasimodular.assemble_calls": sums.get("quasimodular.assemble_calls", 0),
        "quasimodular.decompose_s": incl(T.DECOMPOSE),
        "quasimodular.decompose_self_s": own(T.DECOMPOSE),
        "quasimodular.basis_atoms": peaks.get("quasimodular.basis_atoms", 0),
        "quasimodular.rows_used": peaks.get("quasimodular.rows_used", 0),
        "quasimodular.escalations": sums.get("quasimodular.escalations", 0),
        "quasimodular.factor_useful_ratio": ratio(
            sums.get("exact.factor_full_rank", 0), sums.get("exact.factor_calls", 0)),
        "quasimodular.solver_reuse_ratio": ratio(
            decompose_calls - factoring_calls, decompose_calls),
        "detect.macmahon_s": incl(T.MACMAHON),
        "detect.verdict_s": incl(T.VERDICT),
        "detect.census_s": incl(T.CENSUS),
        "cli.main_s": incl(T.CLI_MAIN),
        "cli.eval_form_s": incl(T.EVAL_FORM),
        "cli.self_s": own(T.CLI_MAIN) + own(T.EVAL_FORM),
        "trace.overhead_ratio": overhead_ratio,
    }
    total_self = sum(dominant.values()) or 1
    ranked = sorted(dominant.items(), key=lambda kv: -kv[1])[:5]
    record["dominant"] = [
        [SELF_METRIC.get(name, name + "_s"), ns / 1e9, ns / total_self] for name, ns in ranked
    ]
    record["missing_targets"] = sorted(missing)
    record["hook_errors"] = sums.get("trace.hook_errors", 0)
    return m


# span names whose _s metric is inclusive; their own time has a _self_s metric
SELF_METRIC = {
    tracer.LOOKUP: "newforms.lookup_self_s",
    tracer.DECOMPOSE: "quasimodular.decompose_self_s",
    tracer.CLI_MAIN: "cli.self_s",
    tracer.EVAL_FORM: "cli.self_s",
}


# work counts derived from argument sizes, not counted inside the program
COMPUTED = {"exact.factor_cells", "qseries.eta_coeffs", "qseries.mul_terms"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# run conditions and reporting


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def conditions(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# every end-to-end metric; those in END_TO_END_UNITS are also in the JSON result
REPORT_METRICS = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "ratio"),
    ("cmd.expand_s", "s"), ("cmd.decompose_s", "s"), ("cmd.census_s", "s"),
    ("cmd.detect_s", "s"), ("cmd.macmahon_s", "s"),
    ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p95_s", "s"),
]


def print_report(record, tally):
    c = record["conditions"]
    print(f"# qmf bench: workload={c['workload']} seed={c['seed']} seconds={c['seconds']} "
          f"trace={c['trace']}")
    print(f"# machine: nproc={c['nproc']} cpu={c['cpu']!r} python={c['python']} "
          f"commit={c['commit']}")
    print(f"# checks: {tally.attempted} attempted, {tally.failed} failed")
    for reason in tally.reasons:
        print(f"#   FAIL {reason}")
    metrics = record.get("metrics") or {}
    if c["trace"]:
        for name, share_s, share in record.get("dominant", []):
            print(f"# layer by self time: {name:36s} {share_s:10.4f} s  {100 * share:5.1f}%")
        for name in record.get("missing_targets", []):
            print(f"# trace target missing: {name}")
        if record.get("hook_errors"):
            print(f"# count hooks that failed: {record['hook_errors']}")
        for name, value in metrics.items():
            note = "  (computed from argument sizes)" if name in COMPUTED else ""
            print(f"{name:40s} {value:14.6g} {layer_unit(name)}{note}")
        return
    report = record.get("report", {})
    values = dict(metrics, **report)
    values["fail_ratio"] = tally.fail_ratio
    for name, unit in REPORT_METRICS:
        value = values.get(name)
        shown = "n/a (not in this workload)" if value is None else f"{value:.6g}"
        extra = ""
        if name == "fail_ratio":
            extra = f"  ({tally.failed} of {tally.attempted})"
        elif name == "setup_s" and value is not None:
            extra = f"  (median of {report['setup_samples']})"
        elif name == "op_p50_s" and value is not None:
            extra = f"  (n={record['samples']})"
        elif name == "op_p95_s" and value is not None:
            beyond = record["samples"] - 1 - int(0.95 * (record["samples"] - 1))
            extra = f"  (n={record['samples']}, {beyond} beyond p95)"
        print(f"{name:16s} {shown:>28s} {unit}{extra}")


def main() -> int:
    ap = argparse.ArgumentParser(description="qmf benchmark")
    ap.add_argument("--workload", required=True, choices=[*CLI_WORKLOADS, "session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (conditions, samples) here")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qmf" / "cli.py").is_file():
        print(f"error: no qmf sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "qmf-cache").mkdir(exist_ok=True)
    runner = Runner(workdir, start + RUN_BUDGET_S)
    tally = checks.Tally()
    record = {"conditions": conditions(args)}
    try:
        if args.workload == "session":
            metrics = run_session(args.seed, args.seconds, args.trace, runner, tally, record,
                                  start)
        else:
            metrics = run_cli(args.workload, args.seed, args.seconds, args.trace,
                              runner, tally, record, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["metrics"] = metrics
    record["elapsed_s"] = time.perf_counter() - start
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["reasons"] = tally.reasons
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, tally)
    if metrics is None:
        print("error: the workload produced no measurements", file=sys.stderr)
        return 1
    units = (lambda n: layer_unit(n)) if args.trace else END_TO_END_UNITS.get
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
