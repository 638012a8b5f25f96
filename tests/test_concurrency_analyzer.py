"""Lock discipline rules R004, R007 and R008, one module at a time.

Synthetic-module tests pin each rule in isolation; the real-tree tests
are the acceptance gate — the shipped ``src/repro`` must lint clean and
every ``_GUARDED_ATTRS`` declaration must equal the set of attributes
whose writes hold the lock.
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
# R004: declared-vs-inferred assertion
# ----------------------------------------------------------------------
def test_declared_but_not_inferred_is_flagged():
    facts = check("""
import threading

_GUARDED_ATTRS = ("ghost",)

class C:
    def __init__(self):
        self._lock = threading.Lock()
""")
    found = facts.findings
    assert [code for code, *_ in found] == ["R004"]
    assert "ghost" in found[0][3]
    assert found[0][1] == 4            # reported at the declaration


def test_inferred_but_not_declared_is_flagged():
    facts = check("""
import threading

_GUARDED_ATTRS = ()

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
""")
    found = facts.findings
    assert [code for code, *_ in found] == ["R004"]
    assert "'n'" in found[0][3]


def test_matching_declaration_is_clean():
    facts = check("""
import threading

_GUARDED_ATTRS = ("n",)

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
""")
    assert codes(facts) == []


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
    assert codes(facts) == ["R008", "R008"]
    assert facts.edges == {("m._a_lock", "m._b_lock"),
                                       ("m._b_lock", "m._a_lock")}


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
    assert bool(facts.edges) == nested, render(program)
    assert ("R008" in codes(facts)) == nested


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


def test_real_tree_declarations_match_inference():
    declared = {path: facts for path, facts in _real_tree().items()
                if facts.declared is not None}
    assert {Path(path).stem for path in declared} == {
        "cache", "multilevel", "evaluator", "core"}
    for path, facts in declared.items():
        assert facts.guarded == facts.declared, path


def test_real_tree_lock_graph_shape():
    tree = _real_tree()
    # every lock is a leaf: none is acquired while another is held ...
    assert all(not facts.edges for facts in tree.values())
    # ... the four locks the repo builds through make_lock are seen, and
    # the only others are the sanitizer's own two plain locks
    assert {lock for facts in tree.values() for lock in facts.locks} == {
        "SearchService._lock", "ThreadPoolEvaluator._lock",
        "WeightCache._lock", "AsyncCheckpointWriter._lock",
        "LockCheckRegistry._meta", "SanitizedLock._inner"}
    assert tree["analysis/lockcheck.py"].locks == {
        "LockCheckRegistry._meta", "SanitizedLock._inner"}
