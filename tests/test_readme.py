"""The README's `$ qmf ...` examples, run in order through cli.main.

Each command runs in one temporary directory, so a `--out f.qs` example
feeds the `decompose` after it; its stdout must equal the lines shown
under it in the README, and its exit code must be 0.
"""
import shlex
from pathlib import Path

from qmf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ qmf "


def readme_examples():
    """(argv, expected stdout) for each `$ qmf` line inside a code block."""
    examples = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith(PROMPT):
            current = (shlex.split(line[len(PROMPT):]), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv, "".join(f"{x}\n" for x in shown)) for argv, shown in examples]


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QMF_CACHE_DIR", str(tmp_path / "cache"))
    examples = readme_examples()
    assert len(examples) >= 8
    for argv, want in examples:
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, ""), argv
        assert captured.out == want, argv
