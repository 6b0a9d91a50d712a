"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload cli-scan --seeds 1-10 [--trace 0]
                            [--seconds 15] [--out bench/baseline/NAME.json]

For every metric it prints the median, the quartiles and the spread
(third quartile minus first, over the median, as
statistics.quantiles(values, n=4) gives them).  --out writes the medians,
quartiles, every run's record and the run conditions to a JSON file; a
before/after comparison runs this on both commits with the same settings.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    records = []
    for seed in seed_list(args.seeds):
        tmp = ROOT / ".bench_work" / f"spread-{args.workload}-{seed}.json"
        tmp.parent.mkdir(exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(tmp)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(tmp.read_text())
        tmp.unlink()
        records.append(record)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
        print(f"seed {seed}: rc={proc.returncode} correct={last['correct']} "
              f"elapsed={record['elapsed_s']:.1f}s {shown}", flush=True)

    summary = {}
    # the gated metrics, then the report-only numbers (ungated) for comparison
    names = [*records[0]["metrics"], *(k for k in records[0].get("report", {})
                                       if k != "setup_samples")]
    for name in names:
        values = [r["metrics"].get(name, r.get("report", {}).get(name)) for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}")
    elapsed = [r["elapsed_s"] for r in records]
    print(f"run length: median {statistics.median(elapsed):.1f}s max {max(elapsed):.1f}s")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "conditions": records[0]["conditions"], "summary": summary, "runs": records},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
