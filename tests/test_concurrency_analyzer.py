"""Lock discipline rules R007 and R008, one module at a time.

Synthetic-module tests pin each rule in isolation; the real-tree tests
are the acceptance gate — the shipped ``src/repro`` must lint clean,
and an unlocked write of any attribute its locks guard must be an R007
finding.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_paths, lock_facts

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def check(source):
    return lock_facts(ast.parse(source), "m")


def codes(facts):
    return [code for code, *_ in facts.findings]


# ----------------------------------------------------------------------
# R007: shared attributes are written under the lock
# ----------------------------------------------------------------------
def test_unguarded_shared_write_is_flagged():
    facts = check("""
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        self.count += 1          # line 10: unguarded

    def read(self):
        with self._lock:
            return self.count
""")
    found = facts.findings
    assert [code for code, *_ in found] == ["R007"]
    assert found[0][1] == 10
    assert "count" in found[0][3]


def test_guarded_writes_are_clean():
    facts = check("""
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
""")
    assert codes(facts) == []


def test_lock_free_class_is_out_of_scope():
    # hogwild by design: no lock attribute -> no R007, ever
    facts = check("""
import threading

class Hogwild:
    def __init__(self):
        self.total = 0
        self._t = threading.Thread(target=self._run)

    def _run(self):
        self.total += 1
""")
    assert codes(facts) == []


def test_entry_lock_propagation_guards_private_helpers():
    # _helper is only ever called with the lock held, but ``n`` is never
    # touched under the lock lexically, so it is not shared and the
    # helper's write is not flagged ...
    source = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self._helper()

    def _helper(self):
        self.n += 1
"""
    assert codes(check(source)) == []
    # ... while once it is read under the lock, the write must hold the
    # lock lexically: the rule does not infer a helper's caller's locks
    facts = check(source + """
    def read(self):
        with self._lock:
            return self.n
""")
    assert [(code, line) for code, line, *_ in facts.findings] == [
        ("R007", 14)]


def test_lock_is_known_by_its_constructor_not_its_name(tmp_path):
    # the lock attribute need not contain "lock" in its name
    path = tmp_path / "meta.py"
    path.write_text("""
import threading

class Registry:
    def __init__(self):
        self._meta = threading.Lock()
        self.count = 0

    def bump(self):
        self.count += 1          # line 10: unguarded

    def report(self):
        with self._meta:
            return self.count
""")
    (found,) = lint_paths([path])
    assert (found.code, found.line) == ("R007", 10)
    assert "Registry._meta" in found.message


def test_entry_locks_not_assumed_for_public_methods():
    facts = check("""
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.helper()

    def helper(self):             # public: callable from anywhere
        self.n += 1

    def read(self):
        with self._lock:
            return self.n
""")
    assert codes(facts) == ["R007"]


# ----------------------------------------------------------------------
# R008: every lock is a leaf
# ----------------------------------------------------------------------
def test_lexical_nesting_cycle_detected():
    facts = check("""
import threading

_a_lock = threading.Lock()
_b_lock = threading.Lock()

def fwd():
    with _a_lock:
        with _b_lock:
            pass

def bwd():
    with _b_lock:
        with _a_lock:
            pass
""")
    assert [(code, line) for code, line, *_ in facts.findings] == [
        ("R008", 9), ("R008", 14)]
    assert "m._b_lock acquired while holding m._a_lock" in \
        facts.findings[0][3]
    assert "m._a_lock acquired while holding m._b_lock" in \
        facts.findings[1][3]


def test_nonreentrant_self_nesting_is_a_deadlock():
    facts = check("""
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
""")
    assert "R008" in codes(facts)


# ----------------------------------------------------------------------
# the leaf rule against a brute-force walk of generated programs
# ----------------------------------------------------------------------
N_LOCKS = 3


@st.composite
def lock_programs(draw):
    """Module-level functions ``fn`` (public) or ``_fn`` (private
    helpers) whose bodies take plain locks and call functions of higher
    index, so the call graph is acyclic.  A statement is ``("with",
    lock, body)``, ``("call", callee)`` or ``("pass",)``."""
    n_funcs = draw(st.integers(1, 5))
    names = [("_f%d" if draw(st.booleans()) else "f%d") % i
             for i in range(n_funcs)]

    def block(index, depth):
        stmts = []
        for _ in range(draw(st.integers(0, 3))):
            kinds = ["pass"] + ["with"] * (depth < 3) \
                + ["call"] * (index + 1 < n_funcs)
            kind = draw(st.sampled_from(kinds))
            if kind == "with":
                stmts.append(("with", draw(st.integers(0, N_LOCKS - 1)),
                              block(index, depth + 1)))
            elif kind == "call":
                stmts.append(("call", draw(st.integers(index + 1,
                                                       n_funcs - 1))))
            else:
                stmts.append(("pass",))
        return stmts

    return names, [block(i, 0) for i in range(n_funcs)]


def render(program) -> str:
    names, bodies = program

    def lines(stmts, indent):
        out = []
        for stmt in stmts or [("pass",)]:
            pad = "    " * indent
            if stmt[0] == "with":
                out.append(f"{pad}with _lock{stmt[1]}:")
                out.extend(lines(stmt[2], indent + 1))
            elif stmt[0] == "call":
                out.append(f"{pad}{names[stmt[1]]}()")
            else:
                out.append(f"{pad}pass")
        return out

    src = ["import threading"]
    src += [f"_lock{k} = threading.Lock()" for k in range(N_LOCKS)]
    for name, body in zip(names, bodies):
        src += ["", f"def {name}():"] + lines(body, 1)
    return "\n".join(src) + "\n"


def reaches_nested_acquire(program) -> bool:
    """Brute force: walk every call tree from every function with no
    lock held; true when some acquire happens while a lock is held."""
    _, bodies = program

    def walk(stmts, held):
        for stmt in stmts:
            if stmt[0] == "with":
                if held or walk(stmt[2], held + 1):
                    return True
            elif stmt[0] == "call" and walk(bodies[stmt[1]], held):
                return True
        return False

    return any(walk(body, 0) for body in bodies)


@settings(max_examples=200, deadline=None)
@given(lock_programs())
def test_leaf_rule_matches_brute_force_walk(program):
    facts = check(render(program))
    nested = reaches_nested_acquire(program)
    assert ("R008" in codes(facts)) == nested, render(program)


# ----------------------------------------------------------------------
# the real tree (acceptance gate)
# ----------------------------------------------------------------------
def _real_tree():
    return {path.relative_to(SRC).as_posix():
            lock_facts(ast.parse(path.read_text()), path.stem)
            for path in sorted(SRC.rglob("*.py"))}


def test_real_tree_is_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(str(f) for f in findings)


def _touched_under_own_lock(cls: ast.ClassDef, locks: set) -> set:
    """``X`` of every ``self.X`` inside a ``with self.<lock>:`` block of
    ``cls``, for the locks ``cls`` owns; a nested ``def`` or ``lambda``
    runs later, so its body does not count."""
    touched: set = set()

    def walk(node, held):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and held:
            return
        if (held and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            touched.add(node.attr)
        if isinstance(node, ast.With) and any(
                f"{cls.name}.{getattr(item.context_expr, 'attr', None)}"
                in locks for item in node.items):
            for item in node.items:
                walk(item, held)
            for stmt in node.body:
                walk(stmt, True)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, held)

    walk(cls, False)
    return touched


#: what each lock in the tree exists to guard; the inference must
#: cover at least these
GUARDED = {
    "WeightCache": {"_entries", "hits", "misses", "evictions",
                    "insertions"},
    "AsyncCheckpointWriter": {"_closed", "_last"},
    "ThreadPoolEvaluator": {"_futures", "_next"},
    "SearchService": {"_sessions", "_queued", "_tenant_rotor",
                      "_draining", "_driving", "_seq"},
}


def test_real_tree_flags_an_unlocked_write_of_every_shared_attr():
    """For every lock-owning class in ``src/repro`` and every attribute
    touched under its lock, a method that writes the attribute without
    the lock is exactly one R007 finding, at that write."""
    probed: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        facts = lock_facts(ast.parse(source), path.stem)
        assert facts.findings == [], path
        line = len(source.splitlines()) + 10
        for cls in ast.parse(source).body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    lock.startswith(f"{cls.name}.")
                    for lock in facts.locks)):
                continue
            shared = _touched_under_own_lock(cls, facts.locks)
            probed[cls.name] = shared
            for attr in sorted(shared):
                tree = ast.parse(source)
                owner, = (node for node in tree.body
                          if isinstance(node, ast.ClassDef)
                          and node.name == cls.name)
                probe = ast.parse(
                    f"def _probe(self):\n    self.{attr} = None\n").body[0]
                ast.increment_lineno(probe, line - 1)
                owner.body.append(probe)
                found = lock_facts(tree, path.stem).findings
                assert [(code, at) for code, at, *_ in found] == [
                    ("R007", line + 1)], (cls.name, attr)
    assert set(probed) >= set(GUARDED)
    for cls, attrs in GUARDED.items():
        assert attrs <= probed[cls], cls


def test_real_tree_lock_graph_shape():
    tree = _real_tree()
    # every lock is a leaf: none is acquired while another is held ...
    assert all("R008" not in codes(facts) for facts in tree.values())
    # ... the four locks the repo builds through make_lock are seen, and
    # the only others are the sanitizer's own two plain locks
    assert {lock for facts in tree.values() for lock in facts.locks} == {
        "SearchService._lock", "ThreadPoolEvaluator._lock",
        "WeightCache._lock", "AsyncCheckpointWriter._lock",
        "LockCheckRegistry._meta", "SanitizedLock._inner"}
    assert tree["analysis/lockcheck.py"].locks == {
        "LockCheckRegistry._meta", "SanitizedLock._inner"}
