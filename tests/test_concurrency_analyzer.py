"""Whole-program concurrency analyzer: inference, lock graph, taint.

Synthetic-module tests pin each inference mechanism in isolation; the
real-tree tests are the acceptance gate — the shipped ``src/repro``
must analyze clean and every ``_GUARDED_ATTRS`` declaration must match
the inference exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.concurrency import analyze_files, analyze_sources, main
from repro.analysis.lockcheck import LOCK_HIERARCHY

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
# R008: lock-order graph
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


def test_cross_module_lock_cycle_detected():
    model = analyze_sources({"a.py": CYCLE_A, "b.py": CYCLE_B})
    assert "R008" in codes(model)
    (cycle,) = model.lock_cycles()
    assert set(cycle) == {"Alpha._lock", "Beta._lock"}
    edges = model.lock_edges()
    assert ("Alpha._lock", "Beta._lock") in edges
    assert ("Beta._lock", "Alpha._lock") in edges
    assert edges[("Alpha._lock", "Beta._lock")]["kind"] == "call"


def test_one_direction_only_is_no_cycle():
    model = analyze_sources({"a.py": CYCLE_A, "b.py": CYCLE_B.replace(
        "self.alpha.kick()", "pass")})
    assert model.lock_cycles() == []
    assert "R008" not in codes(model)


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
    assert "R008" in codes(model)
    (cycle,) = model.lock_cycles()
    assert set(cycle) == {"m._a_lock", "m._b_lock"}


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


def test_hierarchy_rank_violation_detected():
    # WeightCache (rank 40) outer, SearchService (rank 5) inner:
    # backwards against the declared hierarchy
    model = analyze_sources({"m.py": """
import threading

class WeightCache:
    def __init__(self, svc: "SearchService"):
        self._lock = threading.Lock()
        self.svc = svc

    def bad(self):
        with self._lock:
            self.svc.tick()

class SearchService:
    def __init__(self):
        self._lock = threading.Lock()

    def tick(self):
        with self._lock:
            pass
"""})
    found = [f for f in model.findings() if f.code == "R008"]
    assert found and any("hierarchy" in f.message for f in found)


# ----------------------------------------------------------------------
# R009: view-escape taint
# ----------------------------------------------------------------------
def test_pickled_view_is_flagged():
    model = analyze_sources({"m.py": """
import pickle
import numpy as np

def ship(buf):
    view = np.frombuffer(buf, dtype=np.uint8)
    return pickle.dumps(view)
"""})
    assert codes(model) == ["R009"]


def test_process_pool_submit_of_view_is_flagged():
    model = analyze_sources({"m.py": """
from concurrent.futures import ProcessPoolExecutor
import numpy as np

def ship(buf, fn):
    pool = ProcessPoolExecutor(2)
    view = np.frombuffer(buf, dtype=np.uint8)
    return pool.submit(fn, view)
"""})
    assert codes(model) == ["R009"]


def test_thread_pool_submit_of_view_is_fine():
    model = analyze_sources({"m.py": """
from concurrent.futures import ThreadPoolExecutor
import numpy as np

def ship(buf, fn):
    pool = ThreadPoolExecutor(2)
    view = np.frombuffer(buf, dtype=np.uint8)
    return pool.submit(fn, view)
"""})
    assert codes(model) == []


def test_pickling_plain_data_is_fine():
    model = analyze_sources({"m.py": """
import pickle

def ship(payload):
    return pickle.dumps(payload)
"""})
    assert codes(model) == []


def test_taint_propagates_through_assignment():
    model = analyze_sources({"m.py": """
import pickle
import numpy as np

def ship(buf):
    a = np.frombuffer(buf, dtype=np.uint8)
    b = a
    return pickle.dumps(b)
"""})
    assert codes(model) == ["R009"]


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
        "cache", "multilevel", "evaluator",
        "supernet", "sharded", "core"}
    for m in declared_modules:
        assert model.module_inferred_guarded(m) == m.declared_guards, m.name


def test_real_tree_lock_graph_shape():
    model = _real_model()
    model.findings()
    # no lock is ever acquired while another is held
    assert model.lock_edges() == {}
    assert model.lock_cycles() == []
    # every ranked lock the hierarchy declares exists in the tree
    graph = model.graph_dict()
    node_names = {n["name"] for n in graph["nodes"]}
    assert set(LOCK_HIERARCHY) <= node_names


def test_graph_artifacts():
    model = _real_model()
    graph = model.graph_dict()
    assert graph["hierarchy"] == LOCK_HIERARCHY
    assert graph["edges"] == []
    assert graph["cycles"] == []
    guards = graph["inferred_guards"]
    assert "cache.WeightCache" in guards
    assert "_entries" in guards["cache.WeightCache"]["guarded"]
    dot = model.to_dot()
    assert dot.startswith("// lock-order graph")
    assert '"WeightCache._lock" [label="WeightCache._lock\\nrank 40"];' \
        in dot
    assert " -> " not in dot


def test_cli_writes_artifacts(tmp_path, capsys):
    jpath = tmp_path / "graph.json"
    dpath = tmp_path / "graph.dot"
    rc = main([str(SRC), "--json", str(jpath), "--dot", str(dpath),
               "--quiet"])
    assert rc == 0
    graph = json.loads(jpath.read_text())
    assert graph["hierarchy"] == {k: v for k, v in LOCK_HIERARCHY.items()}
    assert "digraph lock_order" in dpath.read_text()


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
