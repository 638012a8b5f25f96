"""Custom invariant linter: ``python -m repro.analysis.lint <paths>``.

AST-based (stdlib ``ast`` only, no third-party dependencies) checks for
this repository's hard-won invariants — conventions that profiling and
debugging paid for, now machine-enforced:

========  ============================================================
 Rule      Invariant
========  ============================================================
 R001      No float64-promoting NumPy allocations: ``np.zeros`` /
           ``np.ones`` / ``np.empty`` / ``np.full`` (and ``np.array``
           of a literal) must pass an explicit ``dtype``; inside
           ``repro/tensor`` hot paths, float64 dtypes themselves are
           banned.
 R002      ``repro/tensor/reference_ops.py`` is frozen — its content
           hash must match the pinned SHA-256 (the perf-equivalence
           baseline must never drift).
 R003      Optimizer ``step`` bodies must not allocate: no
           ``np.copy``/fresh-array/``.astype``/``.copy`` calls and no
           ``np.concatenate``/``np.stack`` without ``out=`` — all
           updates go through ``out=`` ufuncs and reused scratch
           buffers.
 R004      A module's ``_GUARDED_ATTRS`` declaration is an *assertion*
           the whole-program concurrency inference must reproduce: an
           attribute declared but not inferred lock-guarded, or
           inferred guarded-and-written but missing from the
           declaration, is a finding (see
           :mod:`repro.analysis.concurrency`).
 R005      ``repro.tensor.reference_ops`` may only be imported from
           tests and benchmarks — production code must never fall back
           to the slow frozen kernels.
 R006      No ``np.copy(...)``/``.copy()`` in the supernet transfer
           path (``repro/transfer/supernet.py``): the backend's entire
           claim is zero-copy view re-binding, so copying a superweight
           view silently severs entanglement — writes land in a private
           array instead of shared storage.  In-place ``np.copyto``
           (re-init/scrub *into* the store) is the sanctioned tool.
 R007      Shared mutable state (inferred: touched by thread-escaping
           code, accessed under the owning class's lock, or declared
           in ``_GUARDED_ATTRS``) may only be written while holding
           that lock — lexically or via entry-lock propagation.
 R008      Every lock is a leaf: no lock may be acquired while
           another is held, lexically or through the resolved call
           graph (re-entering an ``RLock`` excepted).  The graph
           follows ``self.attr.m()`` only for pinned types, and no
           collaborator of a lock owner is pinned, so a nesting across
           components (``SearchService`` calling its evaluator, store
           or a session's driver) is not seen; the CI ``lockcheck``
           job (tier-1 under ``REPRO_LOCKCHECK=1``) catches it.
========  ============================================================

Rules R004, R007 and R008 come from the whole-program analyzer in
:mod:`repro.analysis.concurrency`, which runs over every non-test file
in the linted set at once (guard inference needs the cross-module call
graph).  R001-R003, R005 and R006 are single-file checks.

Suppression: append ``# lint: ignore[R001]`` (or a comma-separated
list, or bare ``# lint: ignore``) to the offending line.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import concurrency

#: SHA-256 pin of the frozen legacy kernels (R002).
REFERENCE_OPS_SHA256 = (
    "d6761e40e6219f77248d26e2fd5dceab3cb7486367c5905f7132ad59839fe1cb"
)

#: NumPy calls that allocate fresh float64 arrays when dtype is omitted.
_BARE_ALLOCATORS = frozenset({"zeros", "ones", "empty", "full"})
#: Additional allocators banned inside optimizer ``step`` bodies (R003).
_STEP_ALLOCATORS = _BARE_ALLOCATORS | {
    "array", "copy", "zeros_like", "ones_like", "empty_like", "full_like",
}
#: NumPy gathers that allocate inside optimizer ``step`` bodies (R003)
#: unless they write into a preallocated ``out=`` buffer.
_STEP_GATHERS = frozenset({"concatenate", "stack"})
_NUMPY_NAMES = frozenset({"np", "numpy"})

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?")

RULES = {
    "R001": "dtype-unspecified / float64-promoting NumPy allocation",
    "R002": "frozen reference_ops.py content drifted from its pin",
    "R003": "allocation inside an optimizer step body",
    "R004": "_GUARDED_ATTRS declaration disagrees with the inference",
    "R005": "reference_ops imported outside tests/benchmarks",
    "R006": "superweight view copied in the supernet transfer path",
    "R007": "shared mutable state written outside the owning lock (inferred)",
    "R008": "lock acquired while another is held (every lock is a leaf)",
}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _is_numpy_attr(node: ast.AST, names: Iterable[str]) -> Optional[str]:
    """Return the attribute name when ``node`` is ``np.<attr>`` /
    ``numpy.<attr>`` with ``attr`` in ``names``."""
    if (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in _NUMPY_NAMES):
        return node.attr
    return None


def _has_dtype_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "dtype" for kw in call.keywords)


def _is_literal_payload(node: ast.AST) -> bool:
    """First argument shapes for which ``np.array`` defaults to float64
    (literals and comprehensions of Python floats); ``np.array`` over an
    existing ndarray preserves its dtype and is fine."""
    return isinstance(node, (ast.List, ast.Tuple, ast.Constant,
                             ast.ListComp, ast.GeneratorExp))


# ----------------------------------------------------------------------
# per-rule visitors
# ----------------------------------------------------------------------
class _R001Visitor(ast.NodeVisitor):
    """Bare allocators everywhere; float64 dtypes in tensor hot paths."""

    def __init__(self, in_tensor_hot_path: bool):
        self.in_tensor_hot_path = in_tensor_hot_path
        self.findings: list[tuple[int, int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        name = _is_numpy_attr(node.func, _BARE_ALLOCATORS | {"array"})
        if name in _BARE_ALLOCATORS and not _has_dtype_kwarg(node):
            self.findings.append((
                node.lineno, node.col_offset,
                f"np.{name} without dtype allocates float64; pass "
                f"dtype=np.float32 (or an explicit dtype)"))
        elif (name == "array" and not _has_dtype_kwarg(node)
              and node.args and _is_literal_payload(node.args[0])):
            self.findings.append((
                node.lineno, node.col_offset,
                "np.array of a literal without dtype builds a float64 "
                "array; pass an explicit dtype"))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.in_tensor_hot_path and _is_numpy_attr(node, {"float64"}):
            self.findings.append((
                node.lineno, node.col_offset,
                "float64 is banned in repro.tensor hot paths (dtype "
                "discipline; see DESIGN.md)"))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.in_tensor_hot_path and node.value == "float64":
            self.findings.append((
                node.lineno, node.col_offset,
                "'float64' literal in a repro.tensor hot path"))


class _R003Visitor(ast.NodeVisitor):
    """Allocating calls inside functions named ``step``."""

    def __init__(self):
        self.findings: list[tuple[int, int, str]] = []
        self._in_step = 0

    def _visit_func(self, node) -> None:
        is_step = node.name == "step"
        self._in_step += is_step
        self.generic_visit(node)
        self._in_step -= is_step

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_step:
            name = _is_numpy_attr(node.func, _STEP_ALLOCATORS)
            if name is not None:
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"np.{name} allocates inside an optimizer step; use "
                    f"out= ufuncs and reused scratch buffers"))
            elif (_is_numpy_attr(node.func, _STEP_GATHERS) is not None
                  and not any(kw.arg == "out" for kw in node.keywords)):
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"np.{node.func.attr} without out= allocates inside an "
                    f"optimizer step; gather into a preallocated buffer"))
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("copy", "astype")):
                self.findings.append((
                    node.lineno, node.col_offset,
                    f".{node.func.attr}() allocates inside an optimizer "
                    f"step; use out= ufuncs and reused scratch buffers"))
        self.generic_visit(node)


class _R006Visitor(ast.NodeVisitor):
    """``np.copy(...)`` and ``<expr>.copy()`` calls — both materialise a
    private array where the supernet path must hand out live views."""

    def __init__(self):
        self.findings: list[tuple[int, int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if _is_numpy_attr(node.func, {"copy"}):
            self.findings.append((
                node.lineno, node.col_offset,
                "np.copy materialises a private array in the zero-copy "
                "supernet path — bind views and mutate in place "
                "(np.copyto) instead"))
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr == "copy":
            self.findings.append((
                node.lineno, node.col_offset,
                ".copy() severs view entanglement in the supernet "
                "transfer path — training writes would land in a "
                "private array, not the shared store"))
        self.generic_visit(node)


class _R005Visitor(ast.NodeVisitor):
    """Any import path reaching ``reference_ops``."""

    def __init__(self):
        self.findings: list[tuple[int, int, str]] = []

    def _flag(self, node: ast.AST) -> None:
        self.findings.append((
            node.lineno, node.col_offset,
            "reference_ops (frozen slow kernels) may only be imported "
            "from tests/ and benchmarks/"))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[-1] == "reference_ops":
                self._flag(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module.split(".")[-1] == "reference_ops":
            self._flag(node)
        elif any(alias.name == "reference_ops" for alias in node.names):
            self._flag(node)


# ----------------------------------------------------------------------
# file-level orchestration
# ----------------------------------------------------------------------
def _suppressed_lines(source: str) -> dict[int, Optional[frozenset]]:
    """line -> set of suppressed codes (None = suppress everything)."""
    out: dict[int, Optional[frozenset]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(line)
        if not m:
            continue
        codes = m.group(1)
        out[i] = (frozenset(c.strip().upper() for c in codes.split(","))
                  if codes else None)
    return out


def _is_test_path(path: Path) -> bool:
    posix = path.as_posix()
    return ("/tests/" in posix or "/benchmarks/" in posix
            or path.name.startswith("test_")
            or path.name == "conftest.py")


def lint_file(path: Path) -> list[Finding]:
    """Single-file findings (R001-R003, R005-R006), suppressions applied.

    The whole-program rules (R004, R007, R008) are added by
    :func:`lint_paths`, which sees the full file set at once."""
    posix = path.as_posix()
    in_tests = _is_test_path(path)
    in_tensor = "repro/tensor/" in posix
    is_reference = in_tensor and path.name == "reference_ops.py"

    raw: list[tuple[str, int, int, str]] = []  # (code, line, col, message)

    if is_reference:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != REFERENCE_OPS_SHA256:
            raw.append((
                "R002", 1, 0,
                f"reference_ops.py content hash {digest[:12]}... does not "
                f"match the pin {REFERENCE_OPS_SHA256[:12]}... — the frozen "
                f"kernels must not change (update the pin only with a "
                f"re-validated perf baseline)"))
        # frozen file: R001/R003 intentionally not applied
        return [Finding(posix, line, col, code, msg)
                for code, line, col, msg in raw]

    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError) as exc:
        return [Finding(posix, getattr(exc, "lineno", 1) or 1, 0, "R000",
                        f"could not parse: {exc}")]

    r001 = _R001Visitor(in_tensor_hot_path=in_tensor)
    r001.visit(tree)
    raw.extend(("R001", *f) for f in r001.findings)

    if path.name == "optimizers.py" and "repro/tensor/" in posix:
        r003 = _R003Visitor()
        r003.visit(tree)
        raw.extend(("R003", *f) for f in r003.findings)

    if not in_tests:
        r005 = _R005Visitor()
        r005.visit(tree)
        raw.extend(("R005", *f) for f in r005.findings)

    if "repro/transfer/" in posix and path.name == "supernet.py":
        r006 = _R006Visitor()
        r006.visit(tree)
        raw.extend(("R006", *f) for f in r006.findings)

    suppressed = _suppressed_lines(source)
    findings = []
    for code, line, col, msg in raw:
        codes = suppressed.get(line, frozenset())
        if codes is None or code in codes:
            continue
        findings.append(Finding(posix, line, col, code, msg))
    return findings


def _concurrency_findings(files: Sequence) -> list[Finding]:
    """R004, R007 and R008 from the whole-program concurrency analyzer, run
    over every parseable non-test file in the linted set."""
    sources: dict[str, str] = {}
    for f in files:
        if _is_test_path(f):
            continue
        try:
            source = f.read_text()
            ast.parse(source, filename=str(f))
        except (OSError, SyntaxError, UnicodeDecodeError):
            continue                    # lint_file already reports R000
        sources[f.as_posix()] = source
    if not sources:
        return []
    model = concurrency.analyze_sources(sources)
    suppressed = {path: _suppressed_lines(src)
                  for path, src in sources.items()}
    out: list[Finding] = []
    for af in model.findings():
        codes = suppressed.get(af.path, {}).get(af.line, frozenset())
        if codes is None or af.code in codes:
            continue
        out.append(Finding(af.path, af.line, af.col, af.code, af.message))
    return out


def lint_paths(paths: Sequence) -> list[Finding]:
    """Lint files and directory trees; returns sorted findings."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))
    findings.extend(_concurrency_findings(files))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repository invariant linter (rules R001-R008).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format: human-readable lines "
                             "(default) or a JSON array of "
                             "{path,line,col,code,message} records")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, desc in sorted(RULES.items()):
            print(f"{code}  {desc}")
        return 0

    findings = lint_paths(args.paths)
    if args.fmt == "json":
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
