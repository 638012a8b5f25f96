"""The invariant linter: fixture violations, suppression, clean tree.

Fixtures are copied to a tmp dir before linting because rule scoping is
path-based — under ``tests/`` the linter skips the lock rules."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, main

REPO = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).parent / "fixtures" / "lint_fixture"


@pytest.fixture()
def fixture_tree(tmp_path):
    dst = tmp_path / "fixture"
    shutil.copytree(FIXTURE, dst)
    return dst


def test_fixture_triggers_every_rule(fixture_tree):
    findings = lint_paths([fixture_tree])
    assert {f.code for f in findings} == set(RULES)


@pytest.mark.parametrize("rel, codes", [
    ("bad_alloc.py", {"R001"}),
    ("tensor/optimizers.py", {"R003"}),
    # the stale declaration is both an assertion mismatch (R004) and a
    # genuine unguarded shared write (R007)
    ("cluster/evaluator.py", {"R004", "R007"}),
    ("cluster/locks_cycle.py", {"R008"}),
    ("cluster/racy.py", {"R007"}),
])
def test_each_fixture_file_yields_exactly_its_rules(fixture_tree, rel, codes):
    findings = lint_paths([fixture_tree / "repro" / rel])
    assert {f.code for f in findings} == codes


def test_r003_flags_gathers_without_out(fixture_tree):
    path = fixture_tree / "repro" / "tensor" / "optimizers.py"
    lines = path.read_text().splitlines()
    flagged = [lines[f.line - 1] for f in lint_paths([path])
               if "concatenate" in f.message]
    # the gather into out= is clean; only the marked one is flagged
    assert flagged == [line for line in lines if line.endswith("# R003")]


def test_suppression_comment_silences_finding(fixture_tree):
    assert lint_paths([fixture_tree / "repro" / "suppressed.py"]) == []


def test_findings_carry_location_and_message(fixture_tree):
    finding, = lint_paths([fixture_tree / "repro" / "bad_alloc.py"])
    assert finding.line == 7
    assert "dtype" in finding.message
    assert str(finding).startswith(finding.path)


def test_main_exit_codes(fixture_tree, capsys):
    assert main([str(fixture_tree)]) == 1
    assert "R003" in capsys.readouterr().out
    assert main([str(fixture_tree / "repro" / "suppressed.py")]) == 0


def test_format_json(fixture_tree, capsys):
    assert main(["--format", "json",
                 str(fixture_tree / "repro" / "bad_alloc.py")]) == 1
    records = json.loads(capsys.readouterr().out)
    assert records == [{
        "path": (fixture_tree / "repro" / "bad_alloc.py").as_posix(),
        "line": 7, "col": 11, "code": "R001",
        "message": records[0]["message"],
    }]
    assert "dtype" in records[0]["message"]


def test_format_json_empty_is_valid(fixture_tree, capsys):
    assert main(["--format", "json",
                 str(fixture_tree / "repro" / "suppressed.py")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


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
