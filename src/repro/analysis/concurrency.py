"""Whole-program static concurrency analyzer (rules R004, R007, R008).

Where the original R004 lint rule trusted a hand-maintained
``_GUARDED_ATTRS`` tuple in one module, this analyzer **infers** the
concurrency structure of the whole program from the stdlib AST:

- **Thread escape**: a function escapes to another thread when it is
  passed as a callable to ``threading.Thread(target=...)``,
  ``Executor.submit(...)``, ``add_done_callback(...)``, or wrapped in
  ``functools.partial(...)`` (the repo's idiom for building evaluator
  task closures).  Escape propagates through the resolved call graph.
- **Guard inference** (R007): for every *lock-owning* class (a class
  that creates or uses a ``self.<...lock...>`` attribute), an attribute
  is *shared* when it is (a) touched by thread-escaping methods, (b)
  accessed under the class's own lock anywhere (the lock usage is
  itself the author's declaration of sharing), or (c) listed in the
  module's ``_GUARDED_ATTRS``.  Every write to a shared attribute
  outside ``__init__`` must hold the owning class's lock — lexically
  (``with self._lock:`` / between ``.acquire()`` and ``.release()``) or
  inherited from every caller (a helper only ever invoked under the
  lock is guarded by propagation).  Violations are **R007**.
  Classes without locks are out of scope by design.
- **Declared-vs-inferred assertion** (R004): a module-level
  ``_GUARDED_ATTRS`` tuple is no longer the source of truth but an
  *assertion* the inference must reproduce — an attribute declared but
  not inferred guarded (it has unguarded writes, or no writes at all),
  or inferred guarded-and-written but missing from the declaration,
  is a finding.  The tuple can never silently rot again.
- **Every lock is a leaf** (R008): an edge ``A -> B`` between
  class-qualified lock names (``"WeightCache._lock"``) is recorded when
  code holding ``A`` acquires ``B`` — by lexical nesting or through
  resolved call-graph edges (a method that calls another object's
  locked method while holding its own lock).  Every edge is a finding,
  including a non-reentrant lock nested in itself; re-entering an
  ``RLock`` is the one exception.  With no nesting there is no lock
  order to get wrong.  The runtime sanitizer
  (:mod:`repro.analysis.lockcheck`) enforces the same invariant on the
  paths this analysis cannot resolve.

Call resolution is deliberately conservative and syntactic: ``self.m()``
resolves through the class and its analyzed bases; ``self.attr.m()``
resolves when ``attr``'s type is pinned by an ``__init__`` assignment
from a known constructor or an annotated parameter; ``name()`` resolves
to a module-level function or class in the same module.  Unresolved
calls contribute no edges — the analyzer under-approximates reachability
rather than drowning real findings in noise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "AnalyzerFinding",
    "ProgramModel",
    "analyze_files",
    "analyze_sources",
    "main",
]

#: Container-mutating method calls treated as writes to the receiver.
_MUTATORS = frozenset({
    "pop", "popitem", "append", "appendleft", "popleft", "add", "remove",
    "discard", "clear", "update", "setdefault", "extend", "insert",
    "move_to_end",
})
#: Escape-sink method names that hand a callable to another thread.
_THREAD_SINKS = frozenset({"submit", "add_done_callback"})


@dataclass(frozen=True)
class AnalyzerFinding:
    path: str
    line: int
    col: int
    code: str
    message: str


@dataclass
class _Write:
    attr: str
    line: int
    col: int
    held: frozenset           # lock names held lexically at the site
    func: "_Func"
    verb: str = "assigned"


@dataclass
class _Access:
    attr: str
    held: frozenset
    func: "_Func"


@dataclass
class _CallSite:
    kind: str                 # "self" | "self_attr" | "bare" | "other"
    attr: Optional[str]       # receiver attribute for "self_attr"
    meth: str                 # callee name
    held: frozenset
    line: int
    col: int
    func: "_Func"


@dataclass
class _Acquire:
    lock: str                 # qualified lock name
    held: frozenset           # locks already held when this one is taken
    line: int
    col: int
    func: "_Func"


@dataclass(eq=False)
class _Func:
    module: "_Module"
    cls: Optional["_Class"]
    name: str
    lineno: int
    writes: list = field(default_factory=list)        # list[_Write]
    reads: list = field(default_factory=list)         # list[_Access]
    global_writes: list = field(default_factory=list)  # list[_Write]
    calls: list = field(default_factory=list)         # list[_CallSite]
    acquires: list = field(default_factory=list)      # list[_Acquire]
    escaping: bool = False
    entry_locks: Optional[frozenset] = None   # fixpoint: locks held on entry

    @property
    def qualname(self) -> str:
        base = f"{self.module.name}:"
        return base + (f"{self.cls.name}.{self.name}" if self.cls
                       else self.name)


@dataclass(eq=False)
class _Class:
    module: "_Module"
    name: str
    bases: list
    lineno: int
    methods: dict = field(default_factory=dict)       # name -> _Func
    lock_attrs: set = field(default_factory=set)      # {"_lock", ...}
    reentrant_locks: set = field(default_factory=set)
    attr_types: dict = field(default_factory=dict)    # attr -> class name

    def lock_names(self) -> set[str]:
        """Qualified names of the locks this class guards with,
        resolving inherited lock attributes to the defining base."""
        return {self._qualify(attr) for attr in self._all_lock_attrs()}

    def _all_lock_attrs(self) -> set[str]:
        attrs = set(self.lock_attrs)
        for base in self._analyzed_bases():
            attrs |= base._all_lock_attrs()
        return attrs

    def _analyzed_bases(self) -> list:
        out = []
        for b in self.bases:
            cls = self.module.program.find_class(b, self.module)
            if cls is not None:
                out.append(cls)
        return out

    def _qualify(self, lock_attr: str) -> str:
        """``"{OwningClass}.{attr}"`` — the class that assigns the lock,
        so subclasses share the base's node in the lock graph."""
        owner = self._find_lock_owner(lock_attr)
        return f"{owner.name}.{lock_attr}"

    def _find_lock_owner(self, lock_attr: str) -> "_Class":
        for base in self._analyzed_bases():
            if lock_attr in base._all_lock_attrs():
                return base._find_lock_owner(lock_attr)
        return self

    def is_reentrant(self, qualified: str) -> bool:
        attr = qualified.rsplit(".", 1)[-1]
        if attr in self.reentrant_locks:
            return True
        return any(b.is_reentrant(qualified)
                   for b in self._analyzed_bases())

    def resolve_method(self, name: str) -> Optional[_Func]:
        if name in self.methods:
            return self.methods[name]
        for base in self._analyzed_bases():
            found = base.resolve_method(name)
            if found is not None:
                return found
        return None

    def resolve_attr_type(self, attr: str) -> Optional[str]:
        if attr in self.attr_types:
            return self.attr_types[attr]
        for base in self._analyzed_bases():
            t = base.resolve_attr_type(attr)
            if t is not None:
                return t
        return None


@dataclass(eq=False)
class _Module:
    program: "ProgramModel"
    path: str
    name: str                  # module stem, e.g. "cache"
    tree: ast.Module
    classes: dict = field(default_factory=dict)       # name -> _Class
    functions: dict = field(default_factory=dict)     # name -> _Func
    module_locks: set = field(default_factory=set)    # qualified names
    declared_guards: Optional[frozenset] = None
    declared_line: int = 1


def _is_lock_name(text: str) -> bool:
    return "lock" in text.lower()


def _lock_ctor(node: ast.AST) -> Optional[bool]:
    """``True``/``False`` = (reentrant) lock constructor call, ``None``
    otherwise.  Recognizes ``threading.Lock()``, ``threading.RLock()``,
    ``Condition()`` and the repo's ``make_lock(name, reentrant=...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if name in ("Lock", "Condition", "Semaphore", "BoundedSemaphore"):
        return False
    if name == "RLock":
        return True
    if name == "make_lock":
        for kw in node.keywords:
            if kw.arg == "reentrant":
                try:
                    return bool(ast.literal_eval(kw.value))
                except ValueError:
                    return False
        if len(node.args) > 1:
            try:
                return bool(ast.literal_eval(node.args[1]))
            except ValueError:
                return False
        return False
    return None


def _self_attr_of(node: ast.AST) -> Optional[str]:
    """The ``X`` of ``self.X`` / ``self.X[...]`` (one subscript deep)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _global_name_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FuncVisitor(ast.NodeVisitor):
    """Single pass over one function body: writes/reads/calls/acquires
    with the lexically-held lock set tracked through ``with`` blocks and
    bare ``.acquire()``/``.release()`` pairs."""

    def __init__(self, func: _Func, module: _Module):
        self.func = func
        self.module = module
        self._held: list[str] = []
        #: locks manually acquired via .acquire() still outstanding
        self._manual: list[str] = []

    # -- lock naming ----------------------------------------------------
    def _lock_name(self, node: ast.AST) -> Optional[str]:
        """Qualified lock name for a lock-ish expression, or None."""
        if isinstance(node, ast.Attribute) and _is_lock_name(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                cls = self.func.cls
                if cls is not None:
                    return cls._qualify(node.attr)
                return f"{self.module.name}.{node.attr}"
            return f"{ast.unparse(node.value)}.{node.attr}"
        if isinstance(node, ast.Name) and _is_lock_name(node.id):
            return f"{self.module.name}.{node.id}"
        return None

    def _held_set(self) -> frozenset:
        return frozenset(self._held + self._manual)

    # -- with / acquire-release -----------------------------------------
    def visit_With(self, node: ast.With) -> None:
        names = []
        for item in node.items:
            lock = self._lock_name(item.context_expr)
            if lock is not None:
                names.append(lock)
        for lock in names:
            self.func.acquires.append(_Acquire(
                lock, self._held_set(), node.lineno, node.col_offset,
                self.func))
            self._held.append(lock)
        # context expressions themselves evaluate outside the lock
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in names:
            self._held.pop()

    visit_AsyncWith = visit_With

    # -- attribute access -----------------------------------------------
    def _record_write(self, target: ast.AST, verb: str) -> None:
        attr = _self_attr_of(target)
        if attr is not None:
            self.func.writes.append(_Write(
                attr, target.lineno, target.col_offset,
                self._held_set(), self.func, verb))
            return
        name = _global_name_of(target)
        if name is not None and not isinstance(target, ast.Name):
            # subscript/aug writes to module globals (plain rebinds of a
            # local name are not shared-state writes)
            if name in self.module.program.global_mutables:
                self.func.global_writes.append(_Write(
                    name, target.lineno, target.col_offset,
                    self._held_set(), self.func, verb))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    self._record_write(el, "assigned")
            else:
                self._record_write(target, "assigned")
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, "updated")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, "assigned")
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write(target, "deleted")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            self.func.reads.append(_Access(
                node.attr, self._held_set(), self.func))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``x in self.cache`` dispatches to __contains__ — a call edge
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                self._record_call_target(comparator, "__contains__",
                                         node.lineno, node.col_offset)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------
    def _record_call_target(self, receiver: ast.AST, meth: str,
                            line: int, col: int) -> None:
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            self.func.calls.append(_CallSite(
                "self", None, meth, self._held_set(), line, col, self.func))
        elif (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"):
            self.func.calls.append(_CallSite(
                "self_attr", receiver.attr, meth, self._held_set(),
                line, col, self.func))
        else:
            self.func.calls.append(_CallSite(
                "other", None, meth, self._held_set(), line, col,
                self.func))

    def _callable_ref(self, node: ast.AST) -> Optional[tuple]:
        """('self', meth) / ('bare', name) for an escaping callable."""
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return ("self", node.attr)
        if isinstance(node, ast.Name):
            return ("bare", node.id)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # manual acquire/release tracking
        if isinstance(func, ast.Attribute) and func.attr in (
                "acquire", "release"):
            lock = self._lock_name(func.value)
            if lock is not None:
                if func.attr == "acquire":
                    self.func.acquires.append(_Acquire(
                        lock, self._held_set(), node.lineno,
                        node.col_offset, self.func))
                    self._manual.append(lock)
                elif lock in self._manual:
                    self._manual.remove(lock)
                self.generic_visit(node)
                return
        # thread-escape sinks
        escapes: list[ast.AST] = []
        callee_name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if callee_name == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    escapes.append(kw.value)
        elif callee_name in _THREAD_SINKS and isinstance(
                func, ast.Attribute):
            if node.args:
                escapes.append(node.args[0])
        elif callee_name == "partial":
            if node.args:
                escapes.append(node.args[0])
        for target in escapes:
            ref = self._callable_ref(target)
            if ref is not None:
                self.module.program.escape_refs.append(
                    (self.module, self.func.cls, ref))
        # mutator method calls count as writes to the receiver
        if isinstance(func, ast.Attribute):
            if func.attr in _MUTATORS:
                attr = _self_attr_of(func.value)
                if attr is not None:
                    self.func.writes.append(_Write(
                        attr, node.lineno, node.col_offset,
                        self._held_set(), self.func,
                        f"mutated via .{func.attr}()"))
                else:
                    name = _global_name_of(func.value)
                    if (name is not None
                            and name in self.module.program.global_mutables):
                        self.func.global_writes.append(_Write(
                            name, node.lineno, node.col_offset,
                            self._held_set(), self.func,
                            f"mutated via .{func.attr}()"))
            self._record_call_target(func.value, func.attr,
                                     node.lineno, node.col_offset)
        elif isinstance(func, ast.Name):
            self.func.calls.append(_CallSite(
                "bare", None, func.id, self._held_set(),
                node.lineno, node.col_offset, self.func))
        self.generic_visit(node)

    # nested defs get their own _Func records via the module collector;
    # do not descend so their bodies aren't double-counted here
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class ProgramModel:
    """The resolved whole-program model and the findings derived from it."""

    def __init__(self):
        self.modules: dict[str, _Module] = {}      # path -> module
        self.classes: dict[str, list[_Class]] = {}  # simple name -> classes
        self.escape_refs: list[tuple] = []
        self.global_mutables: set[str] = set()
        self._analyzed = False
        self._findings: Optional[list[AnalyzerFinding]] = None
        self._edges: Optional[dict] = None

    # ---------------------------------------------------------------
    # construction
    # ---------------------------------------------------------------
    def add_source(self, path: str, source: str) -> None:
        tree = ast.parse(source, filename=path)
        name = Path(path).stem
        module = _Module(self, path, name, tree)
        self.modules[path] = module

    def _analyze(self) -> None:
        """Run the collection, escape and entry-lock passes, once.  Every
        public query starts here, so no query order can see a model
        that was never analyzed."""
        if self._analyzed:
            return
        self._collect()
        self._resolve_escapes()
        self._compute_entry_locks()
        self._analyzed = True

    def _collect(self) -> None:
        # pass 0: module-level mutable globals (dicts/lists/sets/deques
        # assigned at top level) — candidates for guarded-global checks
        for module in self.modules.values():
            for node in module.tree.body:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        value = node.value
                        is_container = isinstance(
                            value, (ast.Dict, ast.List, ast.Set)) or (
                            isinstance(value, ast.Call)
                            and isinstance(value.func, (ast.Name,
                                                        ast.Attribute)))
                        if is_container and not _is_lock_name(target.id):
                            self.global_mutables.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    if not _is_lock_name(node.target.id):
                        self.global_mutables.add(node.target.id)

        # pass 1: structure — classes, methods, module functions, locks
        for module in self.modules.values():
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    cls = _Class(module, node.name,
                                 [b.id for b in node.bases
                                  if isinstance(b, ast.Name)],
                                 node.lineno)
                    module.classes[node.name] = cls
                    self.classes.setdefault(node.name, []).append(cls)
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            cls.methods[sub.name] = _Func(
                                module, cls, sub.name, sub.lineno)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    module.functions[node.name] = _Func(
                        module, None, node.name, node.lineno)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not isinstance(target, ast.Name):
                            continue
                        if target.id == "_GUARDED_ATTRS":
                            try:
                                value = ast.literal_eval(node.value)
                                module.declared_guards = frozenset(
                                    str(v) for v in value)
                            except ValueError:
                                module.declared_guards = frozenset()
                            module.declared_line = node.lineno
                        elif (_is_lock_name(target.id)
                                and _lock_ctor(node.value) is not None):
                            module.module_locks.add(
                                f"{module.name}.{target.id}")

        # pass 2: class internals — lock attrs and attribute types
        for module in self.modules.values():
            for cls in module.classes.values():
                self._scan_class_structure(module, cls)

        # pass 3: function bodies
        for module in self.modules.values():
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    cls = module.classes[node.name]
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            visitor = _FuncVisitor(cls.methods[sub.name],
                                                   module)
                            for stmt in sub.body:
                                visitor.visit(stmt)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    visitor = _FuncVisitor(module.functions[node.name],
                                           module)
                    for stmt in node.body:
                        visitor.visit(stmt)

    def _scan_class_structure(self, module: _Module, cls: _Class) -> None:
        node = next(n for n in module.tree.body
                    if isinstance(n, ast.ClassDef) and n.name == cls.name)
        init = next((s for s in node.body
                     if isinstance(s, ast.FunctionDef)
                     and s.name == "__init__"), None)
        ann: dict[str, str] = {}
        if init is not None:
            for arg in init.args.args + init.args.kwonlyargs:
                if isinstance(arg.annotation, ast.Name):
                    ann[arg.arg] = arg.annotation.id
                elif isinstance(arg.annotation, ast.Constant) and \
                        isinstance(arg.annotation.value, str):
                    ann[arg.arg] = arg.annotation.value
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                attr = _self_attr_of(target)
                if attr is None or isinstance(target, ast.Subscript):
                    continue
                if _is_lock_name(attr):
                    reentrant = _lock_ctor(sub.value)
                    if reentrant is not None:
                        cls.lock_attrs.add(attr)
                        if reentrant:
                            cls.reentrant_locks.add(attr)
                    continue
                # type pinning: self.a = KnownClass(...)
                value = sub.value
                if isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Name) and \
                        value.func.id in self.classes:
                    cls.attr_types.setdefault(attr, value.func.id)
                elif isinstance(value, ast.Name) and value.id in ann:
                    cls.attr_types.setdefault(attr, ann[value.id])
        # a class that takes `with self._lock` (or calls .acquire() on it)
        # without assigning it — mixin/inherited-lock pattern — still
        # owns that lock attribute.  Only genuine lock *usage* counts;
        # an unrelated attribute that happens to contain "lock" in its
        # name (a depth counter, a lockfile path) must not.
        lock_uses: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    attr = _self_attr_of(item.context_expr)
                    if attr is not None and _is_lock_name(attr):
                        lock_uses.add(attr)
            elif (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("acquire", "release")):
                attr = _self_attr_of(sub.func.value)
                if attr is not None and _is_lock_name(attr):
                    lock_uses.add(attr)
        for attr in lock_uses:
            if not any(attr in c._all_lock_attrs()
                       for c in [cls] + cls._analyzed_bases()):
                cls.lock_attrs.add(attr)

    # ---------------------------------------------------------------
    # resolution
    # ---------------------------------------------------------------
    def find_class(self, name: str, module: _Module) -> Optional[_Class]:
        if name in module.classes:
            return module.classes[name]
        candidates = self.classes.get(name, [])
        return candidates[0] if candidates else None

    def _resolve_call(self, site: _CallSite) -> list[_Func]:
        module = site.func.module
        cls = site.func.cls
        if site.kind == "self" and cls is not None:
            target = cls.resolve_method(site.meth)
            return [target] if target is not None else []
        if site.kind == "self_attr" and cls is not None:
            type_name = cls.resolve_attr_type(site.attr)
            if type_name is None:
                return []
            target_cls = self.find_class(type_name, module)
            if target_cls is None:
                return []
            target = target_cls.resolve_method(site.meth)
            return [target] if target is not None else []
        if site.kind == "bare":
            if site.meth in module.functions:
                return [module.functions[site.meth]]
            target_cls = self.find_class(site.meth, module)
            if target_cls is not None:
                init = target_cls.resolve_method("__init__")
                return [init] if init is not None else []
        return []

    def _all_funcs(self) -> Iterable[_Func]:
        for module in self.modules.values():
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    def _resolve_escapes(self) -> None:
        roots: list[_Func] = []
        for module, cls, (kind, name) in self.escape_refs:
            if kind == "self" and cls is not None:
                target = cls.resolve_method(name)
            elif kind == "bare":
                target = module.functions.get(name)
                if target is None:
                    target_cls = self.find_class(name, module)
                    target = (target_cls.resolve_method("__init__")
                              if target_cls is not None else None)
            else:
                target = None
            if target is not None:
                roots.append(target)
        # closure over the resolved call graph
        work = list(roots)
        while work:
            func = work.pop()
            if func.escaping:
                continue
            func.escaping = True
            for site in func.calls:
                for callee in self._resolve_call(site):
                    if not callee.escaping:
                        work.append(callee)

    def _compute_entry_locks(self) -> None:
        """Fixpoint: locks provably held on *every* path into a function.
        Escape roots and externally-callable functions start at ∅; a
        helper inherits the intersection over all resolved call sites."""
        callers: dict[_Func, list[tuple[_Func, frozenset]]] = {}
        for func in self._all_funcs():
            for site in func.calls:
                for callee in self._resolve_call(site):
                    callers.setdefault(callee, []).append(
                        (func, site.held))
        for func in self._all_funcs():
            func.entry_locks = None        # None = "unconstrained yet"
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for func in self._all_funcs():
                sites = callers.get(func)
                public = (func.name and not func.name.startswith("_")) or \
                    func.name.startswith("__")
                if not sites or public:
                    # callable from outside the analyzed world (or from a
                    # thread start): nothing is guaranteed held
                    new: frozenset = frozenset()
                else:
                    acc: Optional[frozenset] = None
                    for caller, held in sites:
                        inherited = caller.entry_locks or frozenset()
                        locks = held | inherited
                        acc = locks if acc is None else (acc & locks)
                    new = acc if acc is not None else frozenset()
                if new != func.entry_locks:
                    func.entry_locks = new
                    changed = True
        for func in self._all_funcs():
            if func.entry_locks is None:
                func.entry_locks = frozenset()

    # ---------------------------------------------------------------
    # inference products
    # ---------------------------------------------------------------
    def _held_at(self, func: _Func, held: frozenset) -> frozenset:
        return held | (func.entry_locks or frozenset())

    def lock_owning_classes(self) -> list[_Class]:
        self._analyze()
        return [cls for module in self.modules.values()
                for cls in module.classes.values()
                if cls.lock_names()]

    def shared_attrs(self, cls: _Class) -> dict[str, str]:
        """attr -> reason it is considered shared."""
        self._analyze()
        own_locks = cls.lock_names()
        shared: dict[str, str] = {}
        declared = cls.module.declared_guards or frozenset()
        for name, func in cls.methods.items():
            for w in func.writes:
                locks = self._held_at(func, w.held)
                if locks & own_locks:
                    shared.setdefault(w.attr, "accessed under the lock")
                if func.escaping:
                    shared.setdefault(w.attr, "written by thread-escaping "
                                              f"code ({func.name})")
            for r in func.reads:
                locks = self._held_at(func, r.held)
                if locks & own_locks:
                    shared.setdefault(r.attr, "accessed under the lock")
                if func.escaping:
                    shared.setdefault(r.attr, "read by thread-escaping "
                                              f"code ({func.name})")
        for attr in declared:
            if any(attr in (w.attr for w in f.writes) or
                   attr in (r.attr for r in f.reads)
                   for f in cls.methods.values()):
                shared.setdefault(attr, "declared in _GUARDED_ATTRS")
        # bound-method reads (self._helper under the lock) and the lock
        # attributes themselves are not data
        for noise in set(cls.methods) | cls._all_lock_attrs():
            shared.pop(noise, None)
        return shared

    def inferred_guarded(self, cls: _Class) -> set[str]:
        """Attrs with >=1 non-__init__ write, all of them under the
        class's own lock (lexically or by entry-lock propagation)."""
        self._analyze()
        own_locks = cls.lock_names()
        writes: dict[str, list[_Write]] = {}
        for name, func in cls.methods.items():
            if name == "__init__":
                continue
            for w in func.writes:
                writes.setdefault(w.attr, []).append(w)
        out = set()
        for attr, sites in writes.items():
            if all(self._held_at(w.func, w.held) & own_locks
                   for w in sites):
                out.add(attr)
        return out

    def module_inferred_guarded(self, module: _Module) -> set[str]:
        """Union of per-class inferred guard sets, plus module-level
        globals whose writes all hold a module-level lock."""
        self._analyze()
        out: set[str] = set()
        for cls in module.classes.values():
            if cls.lock_names():
                out |= self.inferred_guarded(cls)
        if module.module_locks:
            gwrites: dict[str, list[_Write]] = {}
            for func in module.functions.values():
                for w in func.global_writes:
                    gwrites.setdefault(w.attr, []).append(w)
            for cls in module.classes.values():
                for func in cls.methods.values():
                    for w in func.global_writes:
                        gwrites.setdefault(w.attr, []).append(w)
            for name, sites in gwrites.items():
                if all(self._held_at(w.func, w.held) & module.module_locks
                       for w in sites):
                    out.add(name)
        return out

    # ---------------------------------------------------------------
    # lock nesting
    # ---------------------------------------------------------------
    def _transitive_acquires(self) -> dict[_Func, set[str]]:
        acq: dict[_Func, set[str]] = {
            f: {a.lock for a in f.acquires} for f in self._all_funcs()}
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for func in self._all_funcs():
                for site in func.calls:
                    for callee in self._resolve_call(site):
                        extra = acq[callee] - acq[func]
                        if extra:
                            acq[func] |= extra
                            changed = True
        return acq

    def lock_edges(self) -> dict[tuple[str, str], dict]:
        """(outer, inner) -> {site info} for every lock acquired while
        another is held, lexically or through the call graph; empty when
        every lock is a leaf."""
        if self._edges is not None:
            return self._edges
        self._analyze()
        edges: dict[tuple[str, str], dict] = {}

        def add(outer: str, inner: str, func: _Func, line: int,
                kind: str) -> None:
            # re-entering an RLock is the one sanctioned nesting
            if outer == inner and func.cls is not None \
                    and func.cls.is_reentrant(inner):
                return
            edges.setdefault((outer, inner), {
                "path": func.module.path, "line": line,
                "func": func.qualname, "kind": kind,
            })

        transitive = self._transitive_acquires()
        for func in self._all_funcs():
            for a in func.acquires:
                for outer in self._held_at(func, a.held):
                    add(outer, a.lock, func, a.line, "lexical")
            for site in func.calls:
                held = self._held_at(func, site.held)
                if not held:
                    continue
                for callee in self._resolve_call(site):
                    for inner in transitive[callee]:
                        for outer in held:
                            add(outer, inner, func, site.line, "call")
        self._edges = edges
        return edges

    # ---------------------------------------------------------------
    # findings
    # ---------------------------------------------------------------
    def findings(self) -> list[AnalyzerFinding]:
        if self._findings is not None:
            return self._findings
        self._analyze()
        out: list[AnalyzerFinding] = []

        # R007: shared-but-unguarded writes in lock-owning classes
        for cls in self.lock_owning_classes():
            own_locks = cls.lock_names()
            shared = self.shared_attrs(cls)
            for name, func in cls.methods.items():
                if name == "__init__":
                    continue
                for w in func.writes:
                    if w.attr not in shared:
                        continue
                    if self._held_at(func, w.held) & own_locks:
                        continue
                    out.append(AnalyzerFinding(
                        cls.module.path, w.line, w.col, "R007",
                        f"self.{w.attr} {w.verb} outside "
                        f"{'/'.join(sorted(own_locks))} but shared "
                        f"({shared[w.attr]})"))
        # R007 for guarded module-level globals
        for module in self.modules.values():
            if not module.module_locks:
                continue
            shared_globals: set[str] = set()
            all_funcs = list(module.functions.values()) + [
                f for c in module.classes.values()
                for f in c.methods.values()]
            for func in all_funcs:
                for w in func.global_writes:
                    if self._held_at(func, w.held) & module.module_locks:
                        shared_globals.add(w.attr)
            declared = module.declared_guards or frozenset()
            shared_globals |= {g for g in declared
                               if g in self.global_mutables}
            for func in all_funcs:
                for w in func.global_writes:
                    if w.attr in shared_globals and not (
                            self._held_at(func, w.held)
                            & module.module_locks):
                        out.append(AnalyzerFinding(
                            module.path, w.line, w.col, "R007",
                            f"module global {w.attr} {w.verb} outside "
                            f"{'/'.join(sorted(module.module_locks))} "
                            f"but guarded elsewhere"))

        # R004: declared _GUARDED_ATTRS must match the inference
        for module in self.modules.values():
            if module.declared_guards is None:
                continue
            inferred = self.module_inferred_guarded(module)
            missing = sorted(module.declared_guards - inferred)
            undeclared = sorted(inferred - module.declared_guards)
            for attr in missing:
                out.append(AnalyzerFinding(
                    module.path, module.declared_line, 0, "R004",
                    f"_GUARDED_ATTRS declares {attr!r} but the inference "
                    f"cannot verify it (unguarded writes, or no writes "
                    f"at all) — fix the code or the declaration"))
            for attr in undeclared:
                out.append(AnalyzerFinding(
                    module.path, module.declared_line, 0, "R004",
                    f"attribute {attr!r} is inferred lock-guarded but "
                    f"missing from _GUARDED_ATTRS — declare it so the "
                    f"assertion stays exhaustive"))

        # R008: every lock is a leaf, so every nesting edge is a finding
        for (outer, inner), info in sorted(self.lock_edges().items()):
            if outer == inner:
                message = (f"non-reentrant lock {inner} acquired while "
                           f"already held — the thread deadlocks on itself")
            else:
                message = (f"{inner} acquired while holding {outer} "
                           f"({info['kind']}) — every lock must be a leaf; "
                           f"release {outer} first")
            out.append(AnalyzerFinding(
                info["path"], info["line"], 0, "R008", message))

        out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        self._findings = out
        return out


def analyze_sources(sources: dict[str, str]) -> ProgramModel:
    """Build and analyze a program from ``{path: source}``."""
    model = ProgramModel()
    for path, source in sources.items():
        model.add_source(path, source)
    return model


def analyze_files(paths: Sequence) -> ProgramModel:
    """Build and analyze a program from files/directories on disk."""
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    sources = {}
    for f in files:
        try:
            sources[f.as_posix()] = f.read_text()
        except (OSError, UnicodeDecodeError):
            continue
    return analyze_sources(sources)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.concurrency",
        description="Whole-program concurrency analyzer: declared guards "
                    "(R004), inferred lock guards (R007), every lock a "
                    "leaf (R008).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze")
    args = parser.parse_args(argv)

    findings = analyze_files(args.paths).findings()
    for f in findings:
        print(f"{f.path}:{f.line}:{f.col}: {f.code} {f.message}")
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
