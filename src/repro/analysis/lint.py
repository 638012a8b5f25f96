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
 R002      Retired: the frozen reference kernels moved to ``tests/``,
           where the kernel-equivalence suite pins their SHA-256.
 R003      Retired: it guarded one optimizer ``step``, Adam's, whose
           zero allocations a ``tracemalloc`` test now measures.
 R004      Retired: a declared set of guarded attributes only
           restated what R007 infers from the writes under the lock.
 R005      Retired with R002: ``src/`` cannot import a test module.
 R006      Retired, with the zero-copy transfer path it guarded.
 R007      In a class that owns a lock, an attribute read or written
           under that lock is shared: every write to it outside
           ``__init__`` must hold the lock lexically
           (``with self._lock:``).  This inference is the only record
           of what a lock guards.
 R008      Every lock is a leaf: no lock is acquired while one is held
           (re-entering the same lock included), by lexical ``with``
           nesting or by a call made under a lock to a function of
           the same module that acquires one (``self.m()`` to a method
           of the same class, or a bare ``f()``).
========  ============================================================

Every rule reads one file at a time.  A lock is what a
``threading.Lock()``, ``threading.RLock()`` or ``make_lock(...)`` call
assigns to ``self.<attr>`` or to a module global; no name convention
is needed.  R007 and R008 see only the module they lint, so a
nesting across modules (a service calling its evaluator under its own
lock) is left to the runtime sanitizer, :mod:`repro.analysis.lockcheck`,
under which the CI ``lockcheck`` job runs the whole tier-1 suite.

Suppression: append ``# lint: ignore[R001]`` (or a comma-separated
list, or bare ``# lint: ignore``) to the offending line.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: NumPy calls that allocate fresh float64 arrays when dtype is omitted.
_BARE_ALLOCATORS = frozenset({"zeros", "ones", "empty", "full"})
_NUMPY_NAMES = frozenset({"np", "numpy"})

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9,\s]+)\])?")

RULES = {
    "R001": "dtype-unspecified / float64-promoting NumPy allocation",
    "R007": "shared attribute written outside the owning lock",
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


# ----------------------------------------------------------------------
# lock discipline (R007, R008), one module at a time
# ----------------------------------------------------------------------
#: Calls that build a lock: ``threading.Lock()``, ``threading.RLock()``
#: and the repo's factory ``make_lock(name)``.
_LOCK_CTORS = frozenset({"Lock", "RLock", "make_lock"})
#: Container-mutating method calls treated as writes to the receiver.
_MUTATORS = frozenset({
    "pop", "popitem", "append", "appendleft", "popleft", "add", "remove",
    "discard", "clear", "update", "setdefault", "extend", "insert",
    "move_to_end",
})


def _builds_lock(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name in _LOCK_CTORS


def _self_attr(node: ast.AST) -> Optional[str]:
    """The ``X`` of ``self.X`` or ``self.X[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@dataclass
class LockFacts:
    """The locks one module builds, and its R007/R008 findings."""

    locks: set                      # "Class.attr" or "module.name"
    findings: list                  # (code, line, col, message)


class _LockVisitor(ast.NodeVisitor):
    """One pass over a module's functions and methods that tracks the
    locks held lexically through ``with`` blocks.  A nested ``def`` or
    ``lambda`` runs later, so it starts with no lock held."""

    def __init__(self, module_locks: dict, class_locks: dict,
                 methods: dict, functions: set):
        self.module_locks = module_locks    # global name -> lock name
        self.class_locks = class_locks      # class -> {attr: lock name}
        self.methods = methods              # class -> method names
        self.functions = functions          # module-level function names
        self.cls: Optional[str] = None
        self.scope: Optional[tuple] = None  # (class or None, name)
        self.in_init = False
        self.held: list[str] = []
        self.acquires: dict[tuple, set] = {}   # scope -> locks it takes
        self.nested: list[tuple] = []       # (lock, held, line, col)
        self.calls: list[tuple] = []        # (scope, callee, held, line, col)
        self.writes: list[tuple] = []       # (cls, attr, verb, ok, line, col)
        self.shared: dict[str, set] = {}    # cls -> attrs touched under lock

    def scan(self, cls: Optional[str],
             fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cls, self.scope = cls, (cls, fn.name)
        self.in_init, self.held = fn.name == "__init__", []
        self.acquires.setdefault(self.scope, set())
        for stmt in fn.body:
            self.visit(stmt)

    def _lock(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.module_locks.get(node.id)
        if isinstance(node, ast.Attribute) and self.cls is not None:
            return self.class_locks[self.cls].get(_self_attr(node))
        return None

    def _under_own_lock(self) -> bool:
        return self.cls is not None and any(
            lock in self.held for lock in self.class_locks[self.cls].values())

    def visit_With(self, node: ast.With) -> None:
        depth = len(self.held)
        for item in node.items:
            self.visit(item.context_expr)
            lock = self._lock(item.context_expr)
            if lock is None:
                continue
            if self.held:
                self.nested.append((lock, tuple(self.held), node.lineno,
                                    node.col_offset))
            if self.scope is not None:
                self.acquires[self.scope].add(lock)
            self.held.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[depth:]

    visit_AsyncWith = visit_With

    def _nested_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                      | ast.Lambda) -> None:
        saved = self.scope, self.in_init, self.held
        self.scope, self.in_init, self.held = None, False, []
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        self.scope, self.in_init, self.held = saved

    visit_FunctionDef = visit_AsyncFunctionDef = _nested_scope
    visit_Lambda = _nested_scope

    def _write(self, target: ast.AST, verb: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write(element, verb)
            return
        attr = _self_attr(target)
        if attr is None or self.cls is None:
            return
        ok = self._under_own_lock()
        if ok:
            self.shared.setdefault(self.cls, set()).add(attr)
        if not self.in_init:
            self.writes.append((self.cls, attr, verb, ok, target.lineno,
                                target.col_offset))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write(target, "assigned")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._write(node.target, "assigned")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write(node.target, "updated")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write(target, "deleted")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.ctx, ast.Load) and self.cls is not None
                and _self_attr(node) is not None and self._under_own_lock()):
            self.shared.setdefault(self.cls, set()).add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func, callee = node.func, None
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATORS:
                self._write(func.value, f"mutated via .{func.attr}()")
            if (isinstance(func.value, ast.Name) and func.value.id == "self"
                    and func.attr in self.methods.get(self.cls, ())):
                callee = (self.cls, func.attr)
        elif isinstance(func, ast.Name) and func.id in self.functions:
            callee = (None, func.id)
        if callee is not None:
            self.calls.append((self.scope, callee, tuple(self.held),
                               node.lineno, node.col_offset))
        self.generic_visit(node)


def lock_facts(tree: ast.Module, module: str) -> LockFacts:
    """R007 and R008 over one parsed module named ``module``."""
    module_locks: dict[str, str] = {}
    classes: list[ast.ClassDef] = []
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _builds_lock(node.value):
                    module_locks[target.id] = f"{module}.{target.id}"
    class_locks: dict[str, dict] = {}
    methods: dict[str, set] = {}
    for cls in classes:
        defs = [s for s in cls.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        methods[cls.name] = {d.name for d in defs}
        class_locks[cls.name] = {
            t.attr: f"{cls.name}.{t.attr}"
            for d in defs for n in ast.walk(d)
            if isinstance(n, ast.Assign) and _builds_lock(n.value)
            for t in n.targets
            if isinstance(t, ast.Attribute) and _self_attr(t) is not None}

    visitor = _LockVisitor(module_locks, class_locks, methods,
                           {f.name for f in functions})
    for fn in functions:
        visitor.scan(None, fn)
    for cls in classes:
        for fn in cls.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor.scan(cls.name, fn)

    findings: list[tuple] = []
    # R008: lexical nesting, then calls under a lock to code that locks
    for lock, held, line, col in visitor.nested:
        findings.append(("R008", line, col, (
            f"{lock} acquired while already held — the thread deadlocks "
            f"on itself" if lock in held else
            f"{lock} acquired while holding {', '.join(held)} — every "
            f"lock must be a leaf")))
    acquires = visitor.acquires
    changed = True
    while changed:
        changed = False
        for scope, callee, *_ in visitor.calls:
            if scope is not None and not acquires[callee] <= acquires[scope]:
                acquires[scope] |= acquires[callee]
                changed = True
    for _, callee, held, line, col in visitor.calls:
        inner = sorted(acquires[callee])
        if held and inner:
            findings.append(("R008", line, col, (
                f"{callee[1]}() acquires {', '.join(inner)} while "
                f"{', '.join(held)} is held — every lock must be a leaf")))
    # R007 over the lock-owning classes
    for owner, attr, verb, ok, line, col in visitor.writes:
        locks = class_locks[owner]
        if locks and not ok and attr in visitor.shared.get(owner, ()):
            findings.append(("R007", line, col, (
                f"self.{attr} {verb} outside "
                f"{'/'.join(sorted(locks.values()))}, but it is shared "
                f"(touched under the lock)")))
    all_locks = set(module_locks.values()) | {
        lock for locks in class_locks.values() for lock in locks.values()}
    return LockFacts(all_locks, findings)


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


def lint_file(path: Path) -> list[Finding]:
    """Findings of one file, suppressions applied."""
    posix = path.as_posix()
    in_tensor = "repro/tensor/" in posix
    raw: list[tuple[str, int, int, str]] = []  # (code, line, col, message)

    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError) as exc:
        return [Finding(posix, getattr(exc, "lineno", 1) or 1, 0, "R000",
                        f"could not parse: {exc}")]

    r001 = _R001Visitor(in_tensor_hot_path=in_tensor)
    r001.visit(tree)
    raw.extend(("R001", *f) for f in r001.findings)

    raw.extend(lock_facts(tree, path.stem).findings)

    suppressed = _suppressed_lines(source)
    findings = []
    for code, line, col, msg in raw:
        codes = suppressed.get(line, frozenset())
        if codes is None or code in codes:
            continue
        findings.append(Finding(posix, line, col, code, msg))
    return findings


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
    return sorted(findings, key=lambda f: (f.path, f.line, f.col))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repository invariant linter (rules R001, R007, "
                    "R008).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    args = parser.parse_args(argv)

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
