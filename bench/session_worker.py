"""The `session` workload's one long-lived process.

Set-up imports qmf and warms the decomposition solvers of SPACES (the
factorisation moves into set-up).  Then it runs a closed loop of --ops
decompose calls, one at a time, on seeded random rational combinations of
basis atoms, checks each result exactly, and prints one JSON line.  It makes
at least --ops calls and goes on until they have taken --seconds in all; no
call starts once --cutoff seconds have passed since the process started.
The inputs depend on --seed and --part only: the benchmark splits a run's
calls over several workers, each with its own part.

    python3 bench/session_worker.py --seed 1 --part 0 --ops 50 [--seconds 5]
                                    [--cutoff 100] [--trace spans.json]

The first stdout line is `ready <perf_counter>` once set-up is done; the
caller takes set-up time from its own clock at spawn (perf_counter is the
system-wide monotonic clock on Linux).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import checks
import tracer

# (level, max weight) of the warmed spaces; ops visit them round robin, so
# the seed changes the atoms and coefficients of an op, never the spaces
SPACES = [(1, 12), (2, 12), (3, 10), (4, 8), (6, 8)]
ATOMS_PER_OP = 8


def make_inputs(seed: int, part: int, sizes: list[int]):
    """Per op, without end: (space index, [(atom index, nonzero Fraction)])."""
    rng = random.Random(seed * 1_000_003 + part)
    i = 0
    while True:
        space = i % len(SPACES)
        picked = rng.sample(range(sizes[space]), min(ATOMS_PER_OP, sizes[space]))
        terms = []
        for j in picked:
            num = rng.randint(1, 9) * rng.choice((-1, 1))
            terms.append((j, Fraction(num, rng.randint(1, 4))))
        yield space, terms
        i += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cutoff", type=float, default=100.0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--trace")
    args = ap.parse_args()
    t0 = time.perf_counter()

    rec = None
    if args.trace:
        rec = tracer.Recorder()
        rec.op = -1  # set-up spans
        missing = tracer.install(rec)

    from qmf.quasimodular import PrecisionPolicy, assemble_basis, decompose
    from qmf.qseries import QSeries

    warmed = []
    for N, maxweight in SPACES:
        atoms = assemble_basis(N, maxweight)
        depth = PrecisionPolicy(N, maxweight, len(atoms)).p_req
        expansions = [a.expand(depth) for a in atoms]
        decompose(expansions[-1], N, maxweight)
        warmed.append((N, maxweight, depth, [a.spec_text() for a in atoms], expansions))
    print(f"ready {time.perf_counter()!r}", flush=True)

    inputs = make_inputs(args.seed, args.part, [len(w[3]) for w in warmed])
    tally = checks.Tally()
    latencies = []
    busy = 0.0
    for i, (space, terms) in enumerate(inputs):
        if (i >= args.ops and busy >= args.seconds) or time.perf_counter() - t0 > args.cutoff:
            break
        N, maxweight, depth, specs, expansions = warmed[space]
        if rec is not None:
            rec.op = i
        start = time.perf_counter()
        combo = QSeries.zero(depth)
        for j, c in terms:
            combo = combo + expansions[j].scale(c)
        dec = decompose(combo, N, maxweight)
        latencies.append(time.perf_counter() - start)
        busy += latencies[-1]
        want = {specs[j]: c for j, c in terms}
        items = [
            (a.spec_text(), c.as_rational() if c.is_rational() else None)
            for a, c in dec.items()
        ]
        tally.record(f"op {i} level {N}", checks.check_coordinates(items, want, dec.residual))
    result = {
        "latencies": latencies,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
    }
    if rec is not None:
        rec.dump(args.trace, {"missing": missing, "caches": tracer.cache_counts()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
