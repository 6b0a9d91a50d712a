"""Run one `qmf` command in a fresh process with the span recorder installed.

    python3 bench/traced_cli.py SPANS.json OP -- qmf-arguments...

Wrappers go in before `qmf.cli.main(argv)` runs, so caches start cold just
as in the untimed `python -m qmf.cli` run.  Spans are written to SPANS.json
when the command ends; the exit code is the command's.
"""
from __future__ import annotations

import sys

import tracer


def main() -> int:
    out_path, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: traced_cli.py SPANS.json OP -- ARGS...", file=sys.stderr)
        return 1
    rec = tracer.Recorder()
    rec.op = int(op)
    missing = tracer.install(rec)
    import qmf.cli

    try:
        code = qmf.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(out_path, {"missing": missing, "caches": tracer.cache_counts()})
    return code


if __name__ == "__main__":
    sys.exit(main())
