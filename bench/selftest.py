"""Self-test of the benchmark harness (stdlib unittest).

    python3 bench/selftest.py

Checks the self-time arithmetic of tracer.py on synthetic nested calls,
that wrappers reach names copied by `from ... import ...`, and that a
deliberately wrong output is counted as a failure instead of passing.
"""
from __future__ import annotations

import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_nested_call(self):
        rec = tracer.Recorder()
        rec.op = 7

        def busy(n):
            return sum(i * i for i in range(n))

        inner = rec.wrap("inner", busy)

        def body():
            busy(20000)
            inner(20000)
            inner(30000)
            return busy(10000)

        outer = rec.wrap("outer", body)
        outer()
        (name, start, end, parent, op), k1, k2 = rec.spans
        self.assertEqual((name, parent, op), ("outer", -1, 7))
        self.assertEqual((k1[3], k2[3]), (0, 0))
        selfs = tracer.self_times(rec.spans)
        children = (k1[2] - k1[1]) + (k2[2] - k2[1])
        self.assertEqual(selfs[0], end - start - children)
        self.assertEqual(selfs[1:], [k1[2] - k1[1], k2[2] - k2[1]])
        self.assertGreater(selfs[0], 0)

    def test_overlapping_children_are_counted_once(self):
        spans = [["a", 0, 100, -1, 0], ["b", 10, 30, 0, 0], ["c", 20, 50, 0, 0],
                 ["d", 90, 120, 0, 0]]
        self.assertEqual(tracer.self_times(spans)[0], 100 - 40 - 10)

    def test_recursion_is_not_double_counted(self):
        spans = [["f", 0, 100, -1, 0], ["f", 10, 60, 0, 0], ["g", 20, 30, 1, 0]]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["f"]["incl_ns"], 100)
        self.assertEqual(summary["f"]["self_ns"], 50 + 40)
        self.assertEqual(summary["f"]["count"], 2)

    def test_reuse_counts(self):
        spans = [[tracer.DECOMPOSE, 0, 10, -1, 0], ["x", 1, 9, 0, 0],
                 [tracer.FACTOR, 2, 8, 1, 0], [tracer.DECOMPOSE, 20, 30, -1, 1]]
        self.assertEqual(tracer.reuse_counts(spans), (2, 1))


class Install(unittest.TestCase):
    def test_wrappers_reach_imported_copies(self):
        import qmf.cli
        import qmf.detect
        import qmf.exact
        import qmf.newforms
        import qmf.quasimodular

        before = qmf.detect.macmahon
        rec = tracer.Recorder()
        try:
            self.assertEqual(tracer.install(rec), [])
            self.assertIs(qmf.cli.macmahon, qmf.detect.macmahon)
            self.assertIsNot(qmf.cli.macmahon, before)
            self.assertIs(qmf.quasimodular.cusp_basis, qmf.newforms.cusp_basis)
            self.assertIs(qmf.qseries.QSeries.__radd__, qmf.qseries.QSeries.__add__)
            rows = [[qmf.exact.CycNumber.from_rational(v) for v in row]
                    for row in ((1, 2), (3, 4), (5, 6))]
            solver = qmf.exact.LinearSolver(rows)
            self.assertEqual(solver.rank, 2)
            self.assertEqual(rec.sums[tracer.FACTOR + "_full_rank"], 1)
            self.assertEqual(rec.sums[tracer.FACTOR + "_cells"], 6)
            rec.spans.clear()
            table = qmf.cli.macmahon(2, 8)
            self.assertEqual(table.values, (0, 0, 0, 1, 3, 9, 15, 30))
            self.assertEqual([s[0] for s in rec.spans], [tracer.MACMAHON])
        finally:
            for mod in list(sys.modules):
                if mod == "qmf" or mod.startswith("qmf."):
                    del sys.modules[mod]


class FakeRunner:
    """Stands in for run.Runner: every command exits 0 with canned stdout."""

    def __init__(self, workdir: Path, stdout: dict[str, str]):
        self.workdir = workdir
        self.stdout = stdout

    def qmf(self, args, traced=None, op=0):
        child = run.Child()
        child.rc, child.wall, child.stderr = 0, 1.0, ""
        child.stdout = self.stdout.get(args[0], "")
        return child


class WrongOutputsFail(unittest.TestCase):
    def test_wrong_decompose_output_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            commands = run.decompose_commands(5, 0, workdir)
            (workdir / "combination.qs").write_text(
                f"# qseries v1\nconductor: 1\nprecision: {run.DECOMPOSE_DEPTH}\n")
            # the seeded coordinates, read back from the expand command's form
            form = commands[0][1][1].removeprefix("--form=")
            seeded = [(atom, Fraction(c)) for c, atom in
                      (term.split("*", 1) for term in form.split(" + "))]

            def report(coords):
                return "".join(f"eis {a} : {c}\n" for a, c in coords) + "residual: none\n"

            right = report(seeded)
            wrong = report([(seeded[0][0], 2 * seeded[0][1])] + seeded[1:])
            for stdout, failed in ((right, 0), (wrong, 1)):
                tally = checks.Tally()
                runner = FakeRunner(workdir, {"decompose": stdout})
                walls, _ = run.run_pass(runner, commands, tally)
                self.assertEqual([name for name, _ in walls], ["expand", "decompose"])
                self.assertEqual((tally.attempted, tally.failed), (2, failed))

    def test_wrong_coordinate_is_a_failure(self):
        want = {"E2": Fraction(1, 2), "D^0(newform[6,12,b])": Fraction(-3)}
        good = "eis E2 : 1/2\nnew D^0(newform[6,12,b]) : -3\nresidual: none\n"
        wrong = "eis E2 : 1/2\nnew D^0(newform[6,12,b]) : 3\nresidual: none\n"
        tally = checks.Tally()
        tally.record("good", checks.check_decompose_report(good, want))
        tally.record("wrong", checks.check_decompose_report(wrong, want))
        tally.record("residual", checks.check_decompose_report("residual: present\n", want))
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertAlmostEqual(tally.fail_ratio, 2 / 3)

    def test_library_coordinates(self):
        want = {"E2": Fraction(2)}
        self.assertIsNone(checks.check_coordinates([("E2", 2), ("1", 0)], want, False))
        self.assertIsNotNone(checks.check_coordinates([("E2", 2), ("1", 1)], want, False))
        self.assertIsNotNone(checks.check_coordinates([("1", 0)], want, False))
        self.assertIsNotNone(checks.check_coordinates([], want, True))

    def test_census_and_detect(self):
        good = ("X=100000 N=1 delta=0.05\nzeros: 0\nzero_list:\n"
                "nonzero_density: 1\nbound: 8358.117966\n")
        self.assertIsNone(checks.check_census_report(good, 100000, 1, "0.05"))
        bad = good.replace("zeros: 0\nzero_list:", "zeros: 1\nzero_list: 2")
        self.assertIsNotNone(checks.check_census_report(bad, 100000, 1, "0.05"))
        self.assertEqual(checks.prime_count(100000), 9592)
        self.assertIsNotNone(checks.check_census_eligible(9591, 100000))
        self.assertIsNone(checks.check_census_eligible(9592, 100000))
        self.assertIsNotNone(checks.check_census_eligible(None))
        self.assertIsNone(checks.check_detect_report(
            "prime-detecting (n <= 2000, level 1)\n", 2000, 1))
        self.assertIsNotNone(checks.check_detect_report(
            "not prime-detecting (n <= 2000, level 1)\n", 2000, 1))

    def test_macmahon_brute_force_and_golden(self):
        self.assertEqual(checks.brute_macmahon(2, 8), [0, 0, 0, 1, 3, 9, 15, 30])
        golden = (checks.GOLDEN / "macmahon_a3_n1000.txt").read_text()
        self.assertIsNone(checks.check_macmahon_row(golden, 3, 40, "macmahon_a3_n1000.txt"))
        first, rest = golden.split(" ", 1)
        n, v = first.split(":")
        tampered = f"{n}:{int(v) + 1} {rest}"
        self.assertIsNotNone(checks.check_macmahon_row(tampered, 3, 40, "macmahon_a3_n1000.txt"))
        late = golden.replace(" 999:", " 999:1")
        self.assertIsNotNone(checks.check_macmahon_row(late, 3, 40, "macmahon_a3_n1000.txt"))


if __name__ == "__main__":
    unittest.main()
