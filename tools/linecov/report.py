"""Split ``src/repro``'s executable lines by who runs them.

    python tools/linecov/report.py SRC_DIR TESTS_OUT OTHERS_OUT

``TESTS_OUT`` and ``OTHERS_OUT`` are ``LINECOV_OUT`` directories written
by ``sitecustomize.py``: one for the test suite, one for everything
else.  A module's executable lines come from its code objects
(``co_lines()``).  Prints, per module, the lines nothing runs and the
lines only the tests run, then the totals.
"""

import json
import sys
from pathlib import Path


def executable_lines(path: Path) -> set:
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    # the module code object owns def/class/import lines, not docstrings
    return lines - {0}


def hits(out_dir: Path) -> dict:
    seen: dict = {}
    for dump in out_dir.glob("*.json"):
        for name, lines in json.loads(dump.read_text()).items():
            seen.setdefault(str(Path(name).resolve()), set()).update(lines)
    return seen


def spans(lines) -> str:
    out, lines = [], sorted(lines)
    i = 0
    while i < len(lines):
        j = i
        while j + 1 < len(lines) and lines[j + 1] == lines[j] + 1:
            j += 1
        out.append(str(lines[i]) if i == j else f"{lines[i]}-{lines[j]}")
        i = j + 1
    return ", ".join(out)


def main(src: str, tests_out: str, others_out: str) -> None:
    by_tests, by_others = hits(Path(tests_out)), hits(Path(others_out))
    total = never = only_tests = 0
    for path in sorted(Path(src).resolve().rglob("*.py")):
        lines = executable_lines(path)
        t = by_tests.get(str(path), set()) & lines
        o = by_others.get(str(path), set()) & lines
        nothing, tests_only = lines - t - o, t - o
        total += len(lines)
        never += len(nothing)
        only_tests += len(tests_only)
        if nothing or tests_only:
            print(f"{path.relative_to(Path(src).resolve())}: "
                  f"{len(lines)} lines")
            if nothing:
                print(f"  run by nothing: {spans(nothing)}")
            if tests_only:
                print(f"  only tests: {spans(tests_only)}")
    print(f"total: {total} executable, {never} run by nothing, "
          f"{only_tests} run only by tests")


if __name__ == "__main__":
    main(*sys.argv[1:4])
