"""Command-line surface: parsing, outputs, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import qmf
import qmf.cli
from qmf.cli import FormSpecError, eval_form, main
from qmf.newforms import reset_caches
from qmf.qseries import load_qseries


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- listing


def test_basis_listing(capsys):
    rc, out, _ = run(capsys, "basis", "--level", "6", "--maxweight", "2",
                     "--part", "eis")
    assert rc == 0
    assert out.splitlines() == ["1", "E2twist[2]", "E2twist[3]",
                                "E2twist[6]", "E2"]


def test_basis_new_part(capsys):
    rc, out, _ = run(capsys, "basis", "--level", "1", "--maxweight", "12",
                     "--part", "new")
    assert rc == 0
    assert out.splitlines() == ["D^0(newform[1,12,delta])"]


def test_basis_old_part_empty(capsys):
    rc, out, _ = run(capsys, "basis", "--level", "1", "--maxweight", "2",
                     "--part", "old")
    assert rc == 0
    assert out == ""


def test_basis_old_part_needs_no_newform_of_the_level(capsys):
    # no newform table exists for 13.4, and the old part does not need one
    rc, out, err = run(capsys, "basis", "--level", "13", "--maxweight", "12",
                       "--part", "old")
    assert (rc, err) == (0, "")
    assert out == "D^0(dilate[13](newform[1,12,delta]))\n"


def test_basis_with_expansions(capsys):
    rc, out, _ = run(capsys, "basis", "--level", "1", "--maxweight", "2",
                     "--prec", "8")
    assert rc == 0
    blocks = ["# qseries v1" + chunk
              for chunk in out.split("# qseries v1")[1:]]
    assert len(blocks) == 2
    one, headers = load_qseries(blocks[0])
    assert headers["label"] == "1"
    assert one.coefficient(0).as_rational() == 1
    e2, headers = load_qseries(blocks[1])
    assert headers["label"] == "E2"
    assert headers["weight"] == 2
    assert e2.coefficient(3).as_rational() == -96


# ------------------------------------------------------------------ expand


def test_expand_macmahon_table(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "U[2]", "--prec", "6")
    assert rc == 0
    assert out == (
        "# qseries v1\nconductor: 1\nprecision: 6\n3: 1\n4: 3\n5: 9\n"
    )


def test_expand_delta(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "Delta", "--prec", "3")
    assert rc == 0
    assert out == (
        "# qseries v1\nconductor: 1\nprecision: 3\nmaxweight: 12\n"
        "1: 1\n2: -24\n"
    )


def test_expand_writes_file(tmp_path, capsys):
    target = tmp_path / "e2.qs"
    rc, out, _ = run(capsys, "expand", "--form", "E2", "--prec", "4",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    series, headers = load_qseries(target.read_text())
    assert headers["maxweight"] == 2
    assert series.coefficient(2).as_rational() == -72


def test_expand_equivalent_spellings(capsys):
    rc1, out1, _ = run(capsys, "expand", "--form", "D^2(U[1])",
                       "--prec", "9")
    rc2, out2, _ = run(capsys, "expand", "--form", "(D^2)(U[1])",
                       "--prec", "9")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_expand_fractions_cancel(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "1/2*E2 - 1/2*E2",
                     "--prec", "5")
    assert rc == 0
    # all-zero body: headers only
    assert out == "# qseries v1\nconductor: 1\nprecision: 5\nmaxweight: 2\n"


def test_eval_form_weights():
    _, w = eval_form("(D^3+1)G[2,1] - (D^1+1)G[4,1]", 10)
    assert w == 8
    _, w = eval_form("U[2]", 10)
    assert w is None
    series, w = eval_form("dilate[2](Delta)", 30)
    assert w == 12
    assert series.coefficient(2).as_rational() == 1
    series, w = eval_form("eta[1^8,2^8]", 10)
    assert w == 8
    assert series.coefficient(1).as_rational() == 1
    series, w = eval_form("E[4,5.2,1]", 10)
    assert w == 4


# --------------------------------------------------------------- decompose


def test_decompose_scaled_e2(tmp_path, capsys):
    path = tmp_path / "f.qs"
    run(capsys, "expand", "--form", "5*E2", "--prec", "10",
        "--out", str(path))
    rc, out, _ = run(capsys, "decompose", "--series", str(path),
                     "--level", "1")
    assert rc == 0
    assert out == "eis E2 : 5\nresidual: none\n"


def test_decompose_eisenstein_family(tmp_path, capsys):
    path = tmp_path / "f13.qs"
    run(capsys, "expand", "--form", "(D^3+1)G[2,1] - (D^1+1)G[4,1]",
        "--prec", "40", "--out", str(path))
    rc, out, _ = run(capsys, "decompose", "--series", str(path),
                     "--level", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "residual: none"
    # a pure Eisenstein decomposition: no new or old lines
    assert all(line.startswith("eis ") for line in lines[:-1])
    assert "eis D^3(E2) : -1/24" in lines


def test_decompose_residual_exit_code(tmp_path, capsys):
    path = tmp_path / "delta.qs"
    run(capsys, "expand", "--form", "Delta", "--prec", "40",
        "--out", str(path))
    rc, out, _ = run(capsys, "decompose", "--series", str(path),
                     "--level", "1", "--maxweight", "10")
    assert rc == 2
    assert out == "residual: present\n"


def test_decompose_needs_maxweight(tmp_path, capsys):
    path = tmp_path / "u.qs"
    run(capsys, "expand", "--form", "U[2]", "--prec", "30",
        "--out", str(path))
    rc, _, err = run(capsys, "decompose", "--series", str(path),
                     "--level", "1")
    assert rc == 1
    assert "maxweight" in err


def test_decompose_insufficient_precision(tmp_path, capsys):
    path = tmp_path / "short.qs"
    run(capsys, "expand", "--form", "Delta", "--prec", "10",
        "--out", str(path))
    rc, _, err = run(capsys, "decompose", "--series", str(path),
                     "--level", "1", "--maxweight", "12")
    assert rc == 1
    assert err.startswith("insufficient precision: need ")


# ----------------------------------------------------------------- verdicts


def test_detect_macmahon_combination(capsys):
    rc, out, _ = run(capsys, "detect", "--form",
                     "(D^2)(U[1]) - 3*(D^1)(U[1]) + 2*U[1] - 8*U[2]",
                     "--level", "1", "--xmax", "300")
    assert rc == 0
    assert out == "prime-detecting (n <= 300, level 1)\n"


def test_detect_macmahon_combination_to_1000(capsys):
    rc, out, _ = run(capsys, "detect", "--form",
                     "(D^2)(U[1]) - 3*(D^1)(U[1]) + 2*U[1] - 8*U[2]",
                     "--level", "1", "--xmax", "1000")
    assert rc == 0
    assert out == "prime-detecting (n <= 1000, level 1)\n"


def test_detect_failure_exit_code(capsys):
    rc, out, _ = run(capsys, "detect", "--form", "Delta", "--level", "1",
                     "--xmax", "100")
    assert rc == 2
    assert out.startswith("not prime-detecting")


def test_detect_lists_zeros_off_the_eligible_primes(capsys):
    rc, out, err = run(capsys, "detect", "--form", "0", "--level", "6",
                       "--xmax", "12")
    assert (rc, err) == (2, "")
    assert out == (
        "not prime-detecting (n <= 12, level 6)\n"
        "zero at 8 indices that are composite or divide the level: "
        "2 3 4 6 8 9 10 12\n"
    )
    rc, out, err = run(capsys, "detect", "--form", "dilate[2](Delta)",
                       "--level", "2", "--xmax", "12")
    assert (rc, err) == (2, "")
    assert out.splitlines()[1] == (
        "zero at 1 indices that are composite or divide the level: 9"
    )


def test_census_report(capsys):
    rc, out, _ = run(capsys, "census", "--form", "dilate[2](Delta)",
                     "--level", "2", "--xmax", "150", "--delta", "0.05")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "X=150 N=2 delta=0.05"
    assert lines[1] == "zeros: 34"
    assert lines[2].startswith("zero_list: 3 5 7 11")
    assert lines[3] == "nonzero_density: 0"
    assert lines[5].startswith("note: nonvanishing hypothesis unmet")


def test_macmahon_row(capsys):
    rc, out, _ = run(capsys, "macmahon", "--a", "2", "--nmax", "6")
    assert rc == 0
    assert out == "3:1 4:3 5:9\n"


def test_macmahon_row_matches_bench_golden(capsys):
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "macmahon_a3_n1000.txt"
    rc, out, err = run(capsys, "macmahon", "--a", "3", "--nmax", "1000")
    assert (rc, err) == (0, "")
    assert out == golden.read_text()


def test_macmahon_chain_longer_than_precision_prints_empty_row(capsys):
    rc, out, err = run(capsys, "macmahon", "--a", "1000000", "--nmax", "100")
    assert (rc, out, err) == (0, "\n", "")


# ----------------------------------------------------------------- newforms


def test_newforms_listing(capsys):
    rc, out, _ = run(capsys, "newforms", "--level", "1", "--weight", "12")
    assert rc == 0
    assert out == "1.12.delta eta[1^24]\n"


def test_newforms_expansion(capsys):
    rc, out, _ = run(capsys, "newforms", "--level", "2", "--weight", "8",
                     "--prec", "5")
    assert rc == 0
    series, headers = load_qseries(out)
    assert headers["label"] == "a"
    assert headers["level"] == 2
    assert series.coefficient(2).as_rational() == -8


def test_newforms_catalog_incomplete(capsys):
    rc, _, err = run(capsys, "newforms", "--level", "26", "--weight", "2")
    assert rc == 1
    assert "level 26" in err and "weight 2" in err


def test_newforms_ingest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        path = tmp_path / "form.qs"
        rc, out, _ = run(capsys, "newforms", "--level", "11", "--weight", "2",
                         "--prec", "40")
        assert rc == 0
        path.write_text(out)
        rc, out, _ = run(capsys, "newforms", "--ingest", str(path))
        assert rc == 0
        assert out == "ingested 11.2.a\n"
    finally:
        monkeypatch.delenv("QMF_CACHE_DIR")
        reset_caches()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("level,weight", [(8, 12), (9, 12), (10, 8), (14, 6)])
def test_newforms_expansion_matches_golden(capsys, level, weight):
    # 8.12 holds a conductor-109 pair split off a rational T_p and 9.12 a
    # conductor-280 pair; 10.8 and 14.6 span with cyclotomic candidates (the
    # 5.8 and 7.6 newforms) and derive over Q, so their rational forms
    # print at conductor 1
    golden = GOLDEN / f"newforms_{level}_{weight}_prec30.txt"
    rc, out, err = run(capsys, "newforms", "--level", str(level),
                       "--weight", str(weight), "--prec", "30")
    assert (rc, err) == (0, "")
    assert out.encode() == golden.read_bytes()


def golden_series(name):
    """(label, series) of each record in a golden file."""
    blocks = (GOLDEN / name).read_text().split("# qseries v1\n")[1:]
    loaded = [load_qseries("# qseries v1\n" + block) for block in blocks]
    return [(headers["label"], series) for series, headers in loaded]


@pytest.mark.parametrize("level,weight,conductor", [(10, 8, 76), (14, 6, 57)])
def test_rational_goldens_hold_the_forms_printed_over_cyclotomic_fields(level, weight, conductor):
    # the *_zeta<M>.txt files keep the output of the derivation over
    # Q(zeta_M); the goldens at conductor 1 hold the same forms
    new = golden_series(f"newforms_{level}_{weight}_prec30.txt")
    old = golden_series(f"newforms_{level}_{weight}_prec30_zeta{conductor}.txt")
    assert [s.conductor for _, s in new] == [1] * len(new)
    assert [s.conductor for _, s in old] == [conductor] * len(old)
    assert new == old


def test_newforms_ingest_refuses_an_eisenstein_series(tmp_path, capsys, monkeypatch):
    # sum sigma_7(n) q^n breaks Deligne's bound at p = 3
    from qmf.detect import g_series
    from qmf.qseries import dumps_qseries

    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        path = tmp_path / "eis.qs"
        path.write_text(dumps_qseries(g_series(8, 1, 40), level=2, weight=8, label="z"))
        rc, out, err = run(capsys, "newforms", "--ingest", str(path))
        assert (rc, out) == (1, "")
        assert len(err.splitlines()) == 1 and "Deligne" in err
        assert not (tmp_path / "cache").exists()
    finally:
        monkeypatch.delenv("QMF_CACHE_DIR")
        reset_caches()


def test_newforms_7_10_fails_in_one_line(tmp_path):
    # 7.10's eigenline split finds 0 of its 5 lines, so the derivation
    # fails; a cold process reports it in one line, exit 1, no traceback
    env = dict(os.environ, QMF_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(qmf.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qmf.cli", "newforms", "--level", "7", "--weight", "10",
         "--prec", "30"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "catalog incomplete: no newform table for level 7, weight 10\n"


def test_expand_form_corpus_is_unchanged(capsys):
    # exit code, stdout and stderr of `qmf expand --prec 4` for scalars,
    # derivative polynomials, their products and sums with series, and
    # their misuse, recorded when scalars were a parse value of their own
    corpus = json.loads((GOLDEN / "expand_forms_prec4.json").read_text())
    for form, want in corpus.items():
        got = run(capsys, "expand", f"--form={form}", "--prec", "4")
        assert list(got) == want, form


CORRUPT_QS = (
    "# qseries v1\nconductor: 1\nprecision: 5\n"
    "level: 1\nweight: 12\nlabel: z\n1: 1/0\n"
)


def test_corrupt_cache_file_is_skipped(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    bad = cache / "1.12.z.qs"
    bad.write_text(CORRUPT_QS)
    monkeypatch.setenv("QMF_CACHE_DIR", str(cache))
    rc, out, err = run(capsys, "newforms", "--level", "1", "--weight", "12")
    assert (rc, out, err) == (0, "1.12.delta eta[1^24]\n", "")
    for argv in (
        ("decompose", "--series", str(bad), "--level", "1"),
        ("newforms", "--ingest", str(bad)),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == "error: unparseable line in q-series file: '1: 1/0'\n"


# ------------------------------------------------------------------- errors


def test_parse_error_positions(capsys):
    rc, _, err = run(capsys, "expand", "--form", "E2 + @", "--prec", "5")
    assert rc == 1
    assert err == "parse error at position 5: stray character '@'\n"
    rc, _, err = run(capsys, "expand", "--form", "nosuch[3]", "--prec", "5")
    assert rc == 1
    assert "unknown atom 'nosuch'" in err


def test_eisenstein_character_modulus_must_be_positive(capsys):
    rc, out, err = run(capsys, "expand", "--form", "E[4,0.1,1]", "--prec", "5")
    assert (rc, out) == (1, "")
    assert err == "parse error at position 0: character modulus must be positive\n"


def test_parse_misuse_errors(capsys):
    for form in (
        "E2 E2",            # series product
        "D^2",              # bare operator
        "E2 + D^1",         # operator added to series
        "1/0",              # zero denominator
        "newform[1,12,tau]",  # unknown label
        "E[4,5.9,1]",       # character index out of range
        "E[2,1.1,1]",       # excluded weight-2 pair
        "eta[1^-24]",       # negative leading exponent
        "E2 )",             # trailing input
    ):
        rc, _, err = run(capsys, "expand", "--form", form, "--prec", "8")
        assert rc == 1, form
        assert err.startswith(("parse error", "error:")), form


def test_nonpositive_level_gets_no_verdict(tmp_path, capsys):
    series = tmp_path / "e2.qs"
    run(capsys, "expand", "--form", "E2", "--prec", "10", "--out", str(series))
    for argv in (
        ("detect", "--form", "E2", "--level", "0", "--xmax", "20"),
        ("detect", "--form", "E2", "--level", "-3", "--xmax", "20"),
        ("census", "--form", "Delta", "--level", "0", "--xmax", "200",
         "--delta", "0.05"),
        ("newforms", "--level", "0", "--weight", "4"),
        ("newforms", "--level", "-5", "--weight", "4"),
        ("basis", "--level", "0", "--maxweight", "4"),
        ("basis", "--level", "-3", "--maxweight", "4"),
        ("decompose", "--series", str(series), "--level", "0"),
        ("decompose", "--series", str(series), "--level", "-2"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert err == "error: level must be positive\n"


def test_scan_bounds_are_checked_before_the_form_expands(capsys):
    for argv, line in (
        (("census", "--form", "Delta", "--level", "1", "--xmax", "0",
          "--delta", "0.05"), "error: census bound X must be at least 100\n"),
        (("detect", "--form", "Delta", "--level", "1", "--xmax", "1"),
         "error: detect bound X must be at least 2\n"),
        # the form is never parsed, so its error does not show
        (("census", "--form", "E[", "--level", "1", "--xmax", "200",
          "--delta", "0"), "error: delta must be positive\n"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", line), argv


@pytest.mark.parametrize("level,weight", [(2, 10), (1, 12)])
def test_newforms_zero_precision_is_an_error(capsys, level, weight):
    # 2.10 is derived and 1.12 built in; neither prints a precision-0 table
    rc, out, err = run(capsys, "newforms", "--level", str(level),
                       "--weight", str(weight), "--prec", "0")
    assert (rc, out, err) == (1, "", "error: precision must be at least 1\n")


@pytest.mark.parametrize("prec", ["0", "1"])
def test_expand_low_precision_is_not_a_parse_error(capsys, prec):
    # the precision is not part of the form, so no parse position is given
    rc, out, err = run(capsys, "expand", "--form", "Delta", "--prec", prec)
    assert (rc, out, err) == (1, "", "error: precision must be at least 2\n")


def test_census_huge_delta_bound_underflows_to_zero(capsys):
    for delta in ("100", "1000", "1e400"):
        rc, out, err = run(capsys, "census", "--form", "Delta", "--level", "1",
                           "--xmax", "100", "--delta", delta)
        assert (rc, err) == (0, ""), delta
        assert out.splitlines()[0] == f"X=100 N=1 delta={delta}"
        assert out.splitlines()[-1] == "bound: 0.000000"


def test_zero_dilation_is_a_parse_error(capsys):
    rc, out, err = run(capsys, "expand", "--form", "E[4,1.1,0]", "--prec", "10")
    assert rc == 1
    assert out == ""
    assert err == "parse error at position 0: dilation t must be at least 1\n"


def test_usage_errors(capsys):
    rc, _, err = run(capsys)
    assert rc == 1
    rc, _, err = run(capsys, "basis", "--level", "6")
    assert rc == 1
    rc, _, err = run(capsys, "basis", "--level", "x", "--maxweight", "2")
    assert rc == 1


def test_missing_series_file(capsys):
    rc, _, err = run(capsys, "decompose", "--series", "/nonexistent/f.qs",
                     "--level", "1", "--maxweight", "2")
    assert rc == 1
    assert "error:" in err


def test_deep_nesting_is_a_parse_error(capsys):
    for form in ("(" * 3000 + "E2" + ")" * 3000, "-" * 3000 + "E2",
                 "dilate[2](" * 200 + "E2" + ")" * 200):
        rc, out, err = run(capsys, "expand", f"--form={form}", "--prec", "3")
        assert rc == 1
        assert out == ""
        assert err.startswith("parse error at position ")
        assert "nests deeper than 100 levels" in err
        assert len(err.splitlines()) == 1
    # the cap leaves ordinary nesting alone
    rc, out, _ = run(capsys, "expand", "--form", "(" * 90 + "E2" + ")" * 90,
                     "--prec", "3")
    assert rc == 0


def test_derivative_order_cap(capsys):
    rc, out, err = run(capsys, "expand", "--form", "D^99999(E2)", "--prec", "3")
    assert rc == 1
    assert out == ""
    assert err == "parse error at position 0: derivative order 99999 is above the cap 100\n"
    rc, out, _ = run(capsys, "expand", "--form", "D^100(E2)", "--prec", "3")
    assert rc == 0
    assert f"2: {-72 * 2**100}" in out


@pytest.mark.parametrize("argv", [
    ["expand", "--form", "E2", "--prec", "100000000"],
    ["basis", "--level", "1", "--maxweight", "2", "--prec", "1000001"],
    ["newforms", "--level", "1", "--weight", "12", "--prec", "1000001"],
    ["macmahon", "--a", "3", "--nmax", "100000000"],
    ["detect", "--form", "Delta", "--level", "1", "--xmax", "1000001"],
    ["census", "--form", "Delta", "--level", "1", "--xmax", "1000000000", "--delta", "0.05"],
])
def test_absurd_precision_fails_in_one_line_before_expanding(capsys, monkeypatch, argv):
    import qmf.cli
    import qmf.detect

    def refuse(*args):
        raise AssertionError("expanded past the precision cap")

    for name in ("eval_form", "dumps_qseries"):
        monkeypatch.setattr(qmf.cli, name, refuse)
    # macmahon imports the table from detect when it runs
    monkeypatch.setattr(qmf.detect, "macmahon", refuse)
    rc, out, err = run(capsys, *argv)
    option, value = argv[-4:-2] if argv[0] == "census" else argv[-2:]
    assert (rc, out) == (1, "")
    assert err == f"error: {option} {value} is above the cap {qmf.cli.MAX_PRECISION}\n"


def capped_file(tmp_path, headers):
    # a series file whose declared precision is one above the cap, with
    # a(6) != a(2)a(3), so no Hecke check could pass it either
    path = tmp_path / "capped.qs"
    path.write_text(f"# qseries v1\nconductor: 1\nprecision: {qmf.cli.MAX_PRECISION + 1}\n"
                    f"{headers}1: 1\n2: 1\n3: 1\n")
    return path


def test_decompose_refuses_a_file_precision_above_the_cap(tmp_path, capsys):
    import qmf.qseries

    assert qmf.cli.MAX_PRECISION is qmf.qseries.MAX_PRECISION
    path = capped_file(tmp_path, "maxweight: 12\n")
    rc, out, err = run(capsys, "decompose", "--series", str(path), "--level", "1")
    assert (rc, out) == (1, "")
    assert err == (f"error: q-series file declares precision {qmf.cli.MAX_PRECISION + 1}; "
                   f"it is above the cap {qmf.cli.MAX_PRECISION}\n")


def test_ingest_refuses_a_file_precision_above_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    reset_caches()
    try:
        path = capped_file(tmp_path, "level: 1\nweight: 12\nlabel: x\n")
        rc, out, err = run(capsys, "newforms", "--ingest", str(path))
        assert (rc, out) == (1, "")
        assert err == (f"error: q-series file declares precision {qmf.cli.MAX_PRECISION + 1}; "
                       f"it is above the cap {qmf.cli.MAX_PRECISION}\n")
        assert not (tmp_path / "cache").exists()
    finally:
        monkeypatch.delenv("QMF_CACHE_DIR")
        reset_caches()


def test_a_form_tabulates_each_macmahon_chain_length_once():
    # the README prime test names U[1] three times and U[2] once: two sieves
    import qmf.detect

    qmf.detect.macmahon.cache_clear()
    form = "(D^2)(U[1]) - 3*(D^1)(U[1]) + 2*U[1] - 8*U[2]"
    with mock.patch.object(qmf.detect, "_divisor_sums", wraps=qmf.detect._divisor_sums) as sieves:
        series, _ = eval_form(form, 301)
        assert eval_form(form, 301)[0] == series
    assert sieves.call_count == 2
    assert qmf.detect.macmahon.cache_info().maxsize == qmf.detect._MACMAHON_CACHE_SIZE


def test_internal_error_is_one_line(capsys, monkeypatch):
    import qmf.cli

    def broken(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(qmf.cli, "cmd_macmahon", broken)
    rc, out, err = run(capsys, "macmahon", "--a", "2", "--nmax", "8")
    assert rc == 1
    assert out == ""
    assert err == "internal error: RuntimeError: simulated defect\n"


def test_moved_exceptions_keep_their_old_import_paths():
    import qmf.errors
    import qmf.newforms
    import qmf.qseries
    import qmf.quasimodular

    assert qmf.quasimodular.InsufficientPrecisionError is qmf.qseries.InsufficientPrecisionError
    assert qmf.quasimodular.RankDeficientError is qmf.errors.RankDeficientError
    assert qmf.quasimodular.CatalogIncompleteError is qmf.errors.CatalogIncompleteError
    assert qmf.newforms.CatalogIncompleteError is qmf.errors.CatalogIncompleteError
    assert qmf.newforms.DerivationError is qmf.errors.DerivationError
    # cli imports detect only when a command runs, and still serves its name
    import qmf.detect

    assert qmf.cli.macmahon is qmf.detect.macmahon
    with pytest.raises(AttributeError):
        qmf.cli.census


def test_insufficient_precision_error_line_is_unchanged(tmp_path, capsys):
    path = tmp_path / "short.qs"
    run(capsys, "expand", "--form", "Delta", "--prec", "10", "--out", str(path))
    rc, out, err = run(capsys, "decompose", "--series", str(path),
                       "--level", "1", "--maxweight", "12")
    assert (rc, out, err) == (1, "", "insufficient precision: need 26 coefficients, have 10\n")


def test_catalog_incomplete_error_line_is_unchanged(capsys):
    rc, out, err = run(capsys, "newforms", "--level", "26", "--weight", "2")
    assert (rc, out, err) == (1, "", "catalog incomplete: no newform table for level 26, weight 2\n")


@pytest.mark.parametrize("old_home, name", [
    ("qmf.newforms", "DerivationError"),
    ("qmf.quasimodular", "RankDeficientError"),
])
def test_derivation_and_rank_error_lines_are_unchanged(capsys, monkeypatch, old_home, name):
    # no small input reaches these two, so a command raises them directly
    import importlib

    import qmf.cli

    exc = getattr(importlib.import_module(old_home), name)("simulated failure")

    def broken(args):
        raise exc

    monkeypatch.setattr(qmf.cli, "cmd_macmahon", broken)
    rc, out, err = run(capsys, "macmahon", "--a", "2", "--nmax", "8")
    assert (rc, out, err) == (1, "", "error: simulated failure\n")


_HEAVY_MODULES = ("qmf.newforms", "qmf.quasimodular", "qmf.eisenstein",
                  "qmf.characters", "qmf.exact", "qmf.detect", "dataclasses")


def heavy_modules_loaded(tmp_path, *commands):
    """Which of _HEAVY_MODULES a fresh interpreter holds after importing
    qmf.cli and running each command through main."""
    script = (
        "import sys\n"
        "import qmf.cli\n"
        f"for argv in {commands!r}:\n"
        "    assert qmf.cli.main(list(argv)) in (0, 2), argv\n"
        f"print('loaded:', *(m for m in {_HEAVY_MODULES!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, QMF_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(qmf.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, check=True, timeout=120)
    *_, last = proc.stdout.splitlines()
    marker, *loaded = last.split()
    assert marker == "loaded:"
    return loaded


def test_scan_commands_load_only_the_layers_they_run(tmp_path):
    # a cold import loads neither the eliminator in exact nor detect, and
    # the scan commands load detect alone
    assert heavy_modules_loaded(tmp_path) == []
    assert heavy_modules_loaded(
        tmp_path,
        ("census", "--form=-37/41*Delta", "--level", "1", "--xmax", "300",
         "--delta", "0.05"),
        ("detect", "--form", "(D^2)(U[1]) - 3*(D^1)(U[1]) + 2*U[1] - 8*U[2]",
         "--level", "1", "--xmax", "100"),
        ("macmahon", "--a", "3", "--nmax", "100"),
    ) == ["qmf.detect"]


def test_newform_expansion_does_not_load_decomposition(tmp_path):
    loaded = heavy_modules_loaded(
        tmp_path, ("expand", "--form", "newform[11,2,a]", "--prec", "20"))
    assert "qmf.newforms" in loaded
    assert "qmf.quasimodular" not in loaded
    assert "dataclasses" not in loaded


def test_expand_and_decompose_do_not_load_dataclasses(tmp_path):
    # the atoms, the precision policy and the Hecke report are plain slots
    # classes: importing dataclasses would cost every cold command about 7 ms
    series = tmp_path / "f.qs"
    loaded = heavy_modules_loaded(
        tmp_path,
        ("expand", "--form", "E2 + dilate[2](Delta)", "--prec", "92", "--out", str(series)),
        ("decompose", "--series", str(series), "--level", "2", "--maxweight", "12"),
    )
    assert "qmf.quasimodular" in loaded
    assert "dataclasses" not in loaded
    # nor detect, which no atom of the form names
    assert "qmf.detect" not in loaded


def test_decompose_level9_newform_outside_ambient_field(tmp_path, capsys):
    # the 9.8 newforms have conductor 40, the level-9 characters only 6
    path = tmp_path / "f.qs"
    rc, _, _ = run(capsys, "expand", "--form", "newform[9,8,b]", "--prec", "120",
                   "--out", str(path))
    assert rc == 0
    assert "conductor: 40" in path.read_text()
    rc, out, err = run(capsys, "decompose", "--series", str(path),
                       "--level", "9", "--maxweight", "8")
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[-1] == "residual: none"
    assert lines[:-1] == ["new D^0(newform[9,8,b]) : 1" + " 0" * 15]


def test_decompose_escalation_out_of_coefficients(tmp_path, capsys):
    # the 9.8 basis has rank 53 of 55 at its 83 default rows, so decompose
    # must deepen, and the series carries no more than those 83
    path = tmp_path / "f.qs"
    rc, _, _ = run(capsys, "expand", "--form", "newform[9,8,b]", "--prec", "83",
                   "--out", str(path))
    assert rc == 0
    rc, out, err = run(capsys, "decompose", "--series", str(path),
                       "--level", "9", "--maxweight", "8")
    assert (rc, out, err) == (
        1, "", "insufficient precision: need 166 coefficients, have 83\n"
    )


def test_nested_derivative_chain_cap(capsys):
    # forty nested D^100 used to end in Python's int-to-string limit
    form = "D^100(" * 40 + "E2" + ")" * 40
    rc, out, err = run(capsys, "expand", f"--form={form}", "--prec", "200")
    assert rc == 1
    assert out == ""
    assert err == (
        "parse error at position 228: total derivative order 200 along one "
        "nested chain is above the cap 100\n"
    )
    rc, _, err = run(capsys, "expand", "--form", "D^60(3*dilate[2](D^41(E2)) + E2)",
                     "--prec", "4")
    assert rc == 1
    assert "total derivative order 101" in err
    # orders add along a chain, not across a sum
    for form in ("D^60(dilate[2](D^40(E2)))", "D^50(D^50(E2)) + D^100(E2)"):
        rc, out, _ = run(capsys, "expand", "--form", form, "--prec", "4")
        assert rc == 0
        assert out.startswith("# qseries v1\n")


# the eight basis atoms of the level-6 weight-8 decompose benchmark
BENCH_COMBINATION = {
    "eis E2": "2",
    "eis D^1(E2twist[3])": "-3",
    "eis E[6,1.1,2]": "5/2",
    "new D^1(newform[6,4,a])": "7",
    "eis D^2(E[4,1.1,6])": "-1/3",
    "new D^0(newform[6,8,a])": "-4/5",
    "old D^1(dilate[2](newform[3,6,a]))": "-9/7",
    "old D^0(dilate[3](newform[2,8,a]))": "6",
}


def test_decompose_level6_weight8_combination(tmp_path, capsys):
    form = " + ".join(f"({c})*{spec.split(' ', 1)[1]}"
                      for spec, c in BENCH_COMBINATION.items())
    path = tmp_path / "f.qs"
    rc, _, err = run(capsys, "expand", f"--form={form}", "--prec", "92",
                     "--out", str(path))
    assert rc == 0, err
    rc, out, err = run(capsys, "decompose", "--series", str(path),
                       "--level", "6", "--maxweight", "8")
    assert (rc, err) == (0, "")
    assert out == "".join(f"{spec} : {c}\n" for spec, c in BENCH_COMBINATION.items()) + (
        "residual: none\n"
    )
    # q^91 lies outside the pivot rows of the 92 x 55 basis matrix: its
    # coordinates solve the pivot rows exactly and this row decides
    lines = path.read_text().splitlines()
    index = lines.index(next(line for line in lines if line.startswith("91: ")))
    value = Fraction(lines[index].split(": ")[1])
    lines[index] = f"91: {value + 1}"
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "decompose", "--series", str(path),
                     "--level", "6", "--maxweight", "8")
    assert (rc, out) == (2, "residual: present\n")
