"""The invariant linter: fixture violations, suppression, clean tree.

The fixtures are linted in place: every rule applies to every file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, main

REPO = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).parent / "fixtures" / "lint_fixture"


def test_fixture_triggers_every_rule():
    findings = lint_paths([FIXTURE])
    assert {f.code for f in findings} == set(RULES)


@pytest.mark.parametrize("rel, codes", [
    ("bad_alloc.py", {"R001"}),
    ("tensor/optimizers.py", {"R001"}),
    ("cluster/evaluator.py", {"R007"}),
    ("cluster/locks_cycle.py", {"R008"}),
    ("cluster/racy.py", {"R007"}),
])
def test_each_fixture_file_yields_exactly_its_rules(rel, codes):
    findings = lint_paths([FIXTURE / "repro" / rel])
    assert {f.code for f in findings} == codes


def test_r001_flags_each_marked_hot_path_line():
    """A literal ``np.array``, ``np.float64`` and ``"float64"`` are each
    flagged on their own line, by their own branch; the ``np.array``
    with a dtype is clean."""
    path = FIXTURE / "repro" / "tensor" / "optimizers.py"
    lines = path.read_text().splitlines()
    findings = lint_paths([path])
    assert [f.line for f in findings] == [
        i for i, line in enumerate(lines, start=1)
        if line.endswith("# R001")]
    assert len({f.message for f in findings}) == len(findings) == 3


def test_suppression_comment_silences_finding():
    assert lint_paths([FIXTURE / "repro" / "suppressed.py"]) == []


def test_findings_carry_location_and_message():
    finding, = lint_paths([FIXTURE / "repro" / "bad_alloc.py"])
    assert finding.line == 7
    assert "dtype" in finding.message
    assert str(finding).startswith(finding.path)


def test_main_exit_codes(capsys):
    assert main([str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert all(code in out for code in RULES)
    assert main([str(FIXTURE / "repro" / "suppressed.py")]) == 0


def test_main_prints_one_line_per_finding(capsys):
    """Each finding is one ``path:line:col: code message`` line on
    stdout."""
    path = FIXTURE / "repro" / "bad_alloc.py"
    assert main([str(path)]) == 1
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{path.as_posix()}:7:11: R001 ")
    assert "dtype" in line


def test_main_prints_nothing_for_a_clean_file(capsys):
    assert main([str(FIXTURE / "repro" / "suppressed.py")]) == 0
    assert capsys.readouterr().out == ""


def test_src_tree_is_clean():
    findings = lint_paths([REPO / "src" / "repro"])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_module_cli_entrypoint():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint",
         str(REPO / "src" / "repro")],
        env=env, capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
