"""Whole-program concurrency analyzer: guard inference and the leaf rule.

Synthetic-module tests pin each inference mechanism in isolation; the
real-tree tests are the acceptance gate — the shipped ``src/repro``
must analyze clean and every ``_GUARDED_ATTRS`` declaration must match
the inference exactly.
"""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concurrency import analyze_files, analyze_sources, main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def codes(model):
    return [f.code for f in model.findings()]


# ----------------------------------------------------------------------
# R007: guard inference
# ----------------------------------------------------------------------
def test_unguarded_shared_write_is_flagged():
    model = analyze_sources({"m.py": """
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
"""})
    found = model.findings()
    assert [f.code for f in found] == ["R007"]
    assert found[0].line == 10
    assert "count" in found[0].message


def test_guarded_writes_are_clean():
    model = analyze_sources({"m.py": """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
"""})
    assert codes(model) == []


def test_thread_escape_marks_attrs_shared():
    # no lock usage around ``total`` reads at all — sharing is inferred
    # purely from the Thread(target=...) escape
    model = analyze_sources({"m.py": """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self._t = threading.Thread(target=self._run)

    def _run(self):
        self.total += 1

    def also_writes(self):
        self.total = 5
"""})
    found = model.findings()
    assert {f.code for f in found} == {"R007"}
    assert {f.line for f in found} == {11, 14}


def test_lock_free_class_is_out_of_scope():
    # hogwild by design: no lock attribute -> no R007, ever
    model = analyze_sources({"m.py": """
import threading

class Hogwild:
    def __init__(self):
        self.total = 0
        self._t = threading.Thread(target=self._run)

    def _run(self):
        self.total += 1
"""})
    assert codes(model) == []


def test_entry_lock_propagation_guards_private_helpers():
    # _helper is only ever called with the lock held -> its writes are
    # guarded by propagation, not lexically
    model = analyze_sources({"m.py": """
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
"""})
    assert codes(model) == []


def test_entry_locks_not_assumed_for_public_methods():
    model = analyze_sources({"m.py": """
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
"""})
    assert codes(model) == ["R007"]


def test_manual_acquire_release_counts_as_guarded():
    model = analyze_sources({"m.py": """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        self._lock.acquire()
        self.n += 1
        self._lock.release()

    def read(self):
        with self._lock:
            return self.n
"""})
    assert codes(model) == []


# ----------------------------------------------------------------------
# R004: declared-vs-inferred assertion
# ----------------------------------------------------------------------
def test_declared_but_not_inferred_is_flagged():
    model = analyze_sources({"m.py": """
import threading

_GUARDED_ATTRS = ("ghost",)

class C:
    def __init__(self):
        self._lock = threading.Lock()
"""})
    found = model.findings()
    assert [f.code for f in found] == ["R004"]
    assert "ghost" in found[0].message
    assert found[0].line == 4            # reported at the declaration


def test_inferred_but_not_declared_is_flagged():
    model = analyze_sources({"m.py": """
import threading

_GUARDED_ATTRS = ()

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""})
    found = model.findings()
    assert [f.code for f in found] == ["R004"]
    assert "'n'" in found[0].message


def test_matching_declaration_is_clean():
    model = analyze_sources({"m.py": """
import threading

_GUARDED_ATTRS = ("n",)

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""})
    assert codes(model) == []


# ----------------------------------------------------------------------
# R008: every lock is a leaf
# ----------------------------------------------------------------------
CYCLE_A = """
import threading
from b import Beta

class Alpha:
    def __init__(self, beta: "Beta"):
        self._lock = threading.Lock()
        self.beta = beta

    def kick(self):
        with self._lock:
            pass

    def forward(self):
        with self._lock:
            self.beta.poke()
"""

CYCLE_B = """
import threading

class Beta:
    def __init__(self, alpha: "Alpha"):
        self._lock = threading.Lock()
        self.alpha = alpha

    def poke(self):
        with self._lock:
            pass

    def reverse(self):
        with self._lock:
            self.alpha.kick()
"""

COUNTER = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""


def test_cross_module_lock_cycle_detected():
    model = analyze_sources({"a.py": CYCLE_A, "b.py": CYCLE_B})
    assert codes(model) == ["R008", "R008"]
    edges = model.lock_edges()
    assert set(edges) == {("Alpha._lock", "Beta._lock"),
                          ("Beta._lock", "Alpha._lock")}
    assert edges[("Alpha._lock", "Beta._lock")]["kind"] == "call"


def test_one_direction_nesting_is_flagged():
    # no cycle, but a nesting all the same: every lock must be a leaf
    model = analyze_sources({"a.py": CYCLE_A, "b.py": CYCLE_B.replace(
        "self.alpha.kick()", "pass")})
    assert list(model.lock_edges()) == [("Alpha._lock", "Beta._lock")]
    (found,) = model.findings()
    assert (found.code, found.path, found.line) == ("R008", "a.py", 16)
    assert "Beta._lock acquired while holding Alpha._lock" in found.message


def test_queries_on_a_fresh_model_run_the_analysis():
    # any public query may come first, and none may cache the answer of
    # a model whose passes never ran
    model = analyze_sources({"a.py": CYCLE_A, "b.py": CYCLE_B})
    assert len(model.lock_edges()) == 2
    assert codes(model) == ["R008", "R008"]

    model = analyze_sources({"m.py": COUNTER})
    (module,) = model.modules.values()
    assert model.module_inferred_guarded(module) == {"n"}
    (cls,) = model.lock_owning_classes()
    assert model.inferred_guarded(cls) == {"n"}
    assert "n" in model.shared_attrs(cls)
    assert codes(model) == []


def test_lexical_nesting_cycle_detected():
    model = analyze_sources({"m.py": """
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
"""})
    assert codes(model) == ["R008", "R008"]
    assert set(model.lock_edges()) == {("m._a_lock", "m._b_lock"),
                                       ("m._b_lock", "m._a_lock")}


def test_reentrant_self_nesting_is_sanctioned():
    model = analyze_sources({"m.py": """
import threading

class C:
    def __init__(self):
        self._lock = threading.RLock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""})
    assert "R008" not in codes(model)


def test_nonreentrant_self_nesting_is_a_deadlock():
    model = analyze_sources({"m.py": """
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
"""})
    assert "R008" in codes(model)


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
    model = analyze_sources({"gen.py": render(program)})
    nested = reaches_nested_acquire(program)
    assert bool(model.lock_edges()) == nested, render(program)
    assert ("R008" in codes(model)) == nested


# ----------------------------------------------------------------------
# the real tree (acceptance gate)
# ----------------------------------------------------------------------
def _real_model():
    return analyze_files([SRC])


def test_real_tree_is_clean():
    model = _real_model()
    assert model.findings() == [], "\n".join(
        f"{f.path}:{f.line} {f.code} {f.message}" for f in model.findings())


def test_real_tree_declarations_match_inference():
    model = _real_model()
    model.findings()
    declared_modules = [m for m in model.modules.values()
                        if m.declared_guards is not None]
    assert {m.name for m in declared_modules} == {
        "cache", "multilevel", "evaluator", "core"}
    for m in declared_modules:
        assert model.module_inferred_guarded(m) == m.declared_guards, m.name


def test_real_tree_lock_graph_shape():
    model = _real_model()
    # every lock is a leaf: none is acquired while another is held ...
    assert model.lock_edges() == {}
    # ... and the analyzer sees every lock the tree builds
    assert {lock for cls in model.lock_owning_classes()
            for lock in cls.lock_names()} == {
        "SearchService._lock", "ThreadPoolEvaluator._lock",
        "WeightCache._lock", "AsyncCheckpointWriter._lock"}


def test_cli_exit_code_on_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import threading\n\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n\n"
        "    def bump(self):\n"
        "        self.n += 1\n\n"
        "    def read(self):\n"
        "        with self._lock:\n"
        "            return self.n\n")
    assert main([str(bad)]) == 1
    assert "R007" in capsys.readouterr().out


def test_module_cli_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.concurrency", str(SRC)],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
