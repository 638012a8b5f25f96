"""Shared fixtures: a tiny search space + problem that trains in ~10 ms."""

import os

import pytest

from repro.apps import make_image_dataset
from repro.nas import (
    ActivationOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    Problem,
    SearchSpace,
)


def build_tiny_space() -> SearchSpace:
    space = SearchSpace("tiny", (6, 6, 2))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("dense0", [
        IdentityOp(), DenseOp(8, "relu"), DenseOp(16, "relu"),
        DenseOp(24, "relu"),
    ])
    space.add_variable("act0", [
        IdentityOp(), ActivationOp("relu"), ActivationOp("tanh"),
    ])
    space.add_variable("dense1", [IdentityOp(), DenseOp(8, "relu")])
    space.add_fixed(DenseOp(4), name="head")
    return space


@pytest.fixture(scope="session", autouse=True)
def lockcheck_report():
    """When the suite runs under ``REPRO_LOCKCHECK=1``, every lock built
    by ``make_lock`` is a :class:`SanitizedLock` wired into the global
    registry.  At session teardown, dump the machine-readable report
    (``REPRO_LOCKCHECK_REPORT=<path>``, default ``lockcheck_report.json``
    in the CWD) and fail the session on any recorded violation: a lock
    acquired while another was held, or one re-entered.  Both
    also raise at the acquire; the record catches a raise that worker
    failure containment swallowed.  Tests that *provoke* violations on
    purpose use private registries, so the global one stays clean.
    """
    from repro.analysis import lockcheck

    yield
    if not lockcheck.enabled():
        return
    report_path = os.environ.get("REPRO_LOCKCHECK_REPORT",
                                 "lockcheck_report.json")
    lockcheck.registry.dump(report_path)
    violations = lockcheck.registry.violations()
    assert violations == [], (
        f"lock sanitizer recorded {len(violations)} violation(s) — "
        f"see {report_path}")


@pytest.fixture(scope="session")
def dataset():
    return make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                              channels=2, classes=4, seed=0)


@pytest.fixture(scope="session")
def space():
    return build_tiny_space()


@pytest.fixture(scope="session")
def problem(space, dataset):
    return Problem("tiny", space, dataset, learning_rate=1e-2,
                   batch_size=16, estimation_epochs=1, max_epochs=6,
                   es_min_epochs=2)
