"""Strict spaces: layers that cannot follow each other are found
statically and booked at run time.

Conv and pool geometry fits any input, but a *strict* space chains
choices that need a different input rank (a conv after a flatten, a 1-D
conv on an image, a dense layer before the flatten), so
``build_network`` raises ``BuildError`` for some architectures.  Static
shape inference (``arch_shape_sequence``) must raise ``ValueError`` for
exactly those (on a hand-built space and on generated ones), and a
search that meets one books it as a failed record.  Malformed ops, which
no input shape can fix, are rejected when the space is defined."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_image_dataset
from repro.cluster import run_search
from repro.nas import (
    ActivationOp,
    AvgPool1DOp,
    AvgPool2DOp,
    Conv1DOp,
    Conv2DOp,
    DenseOp,
    DropoutOp,
    FlattenOp,
    IdentityOp,
    MaxPool1DOp,
    MaxPool2DOp,
    Problem,
    RandomSearch,
    SearchSpace,
    is_failure_score,
)
from repro.tensor import BuildError
from repro.transfer import arch_shape_sequence, shape_sequence


def build_strict_space() -> SearchSpace:
    space = SearchSpace("strict", (6, 6, 1))
    space.add_variable("conv0", [
        IdentityOp(), Conv2DOp(4, 3), FlattenOp(),
    ])
    space.add_variable("pool0", [
        IdentityOp(), MaxPool2DOp(2), MaxPool2DOp(4),
    ])
    space.add_variable("conv1", [
        IdentityOp(), Conv2DOp(8, 3), Conv1DOp(8, 3),
    ])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="head")
    return space


@pytest.fixture(scope="module")
def strict_problem():
    dataset = make_image_dataset(n_train=32, n_val=16, height=6, width=6,
                                 channels=1, classes=4, seed=0)
    return Problem("strict", build_strict_space(), dataset,
                   learning_rate=1e-2, batch_size=16, estimation_epochs=1,
                   max_epochs=2, es_min_epochs=1)


def all_seqs(space):
    return itertools.product(*(range(k) for k in space.choice_counts()))


def static_shapes(space, seq):
    """``arch_shape_sequence`` or None where it raises ``ValueError``."""
    try:
        return arch_shape_sequence(space, seq)
    except ValueError:
        return None


def built_shapes(space, seq):
    """The built network's shape sequence, or None on ``BuildError``."""
    try:
        return shape_sequence(space.build_network(seq, rng=0))
    except BuildError:
        return None


def test_analyzer_ok_iff_build_succeeds(strict_problem):
    space = strict_problem.space
    num_invalid = 0
    for seq in all_seqs(space):
        built = built_shapes(space, seq)
        assert static_shapes(space, seq) == built, (
            f"{seq}: static inference and builder disagree")
        num_invalid += built is None
    assert num_invalid > 0  # the space genuinely contains invalid geometry


def test_run_search_without_gate_keeps_stats_unset(strict_problem):
    """Nothing screens proposals: an unbuildable candidate fails at
    build time, is booked as a failed record, and the search runs on.
    ``static_stats`` is a kept name that stays None."""
    space = strict_problem.space
    strategy = RandomSearch(space, rng=np.random.default_rng(11))
    trace = run_search(strict_problem, strategy, 12, seed=11)
    assert len(trace) == 12
    failed = [r for r in trace.records if not r.ok]
    assert failed and len(failed) < 12
    for r in trace.records:
        assert (static_shapes(space, r.arch_seq) is None) == (not r.ok)
        assert is_failure_score(r.score) == (not r.ok)
    assert trace.static_stats is None


_POOLS = {"maxpool2d": MaxPool2DOp, "avgpool2d": AvgPool2DOp,
          "maxpool1d": MaxPool1DOp, "avgpool1d": AvgPool1DOp}


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(
        ["identity", "flatten", "dense", "conv2d", "conv1d", *_POOLS]))
    if kind == "identity":
        return IdentityOp()
    if kind == "flatten":
        return FlattenOp()
    if kind == "dense":
        return DenseOp(draw(st.integers(1, 3)))
    if kind in _POOLS:
        return _POOLS[kind](draw(st.integers(1, 6)))
    conv = Conv2DOp if kind == "conv2d" else Conv1DOp
    return conv(draw(st.integers(1, 3)), draw(st.sampled_from([1, 3, 5])))


@st.composite
def _spaces(draw):
    """A chain of 1-3 two-choice layer nodes over a 1-D or 2-D input
    with extents 1-8, then flatten and a dense head; plus a candidate."""
    spatial = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    space = SearchSpace("generated", (*spatial, draw(st.integers(1, 3))))
    for i in range(draw(st.integers(1, 3))):
        space.add_variable(f"n{i}", [draw(_ops()), draw(_ops())])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(draw(st.integers(1, 4))), name="head")
    seq = tuple(draw(st.integers(0, 1)) for _ in space.variable_nodes)
    return space, seq


@settings(max_examples=200, deadline=None)
@given(case=_spaces())
def test_analyzer_agrees_with_builder_on_generated_spaces(case):
    space, seq = case
    assert static_shapes(space, seq) == built_shapes(space, seq)


@pytest.mark.parametrize("op", [
    ActivationOp("bogus"),
    DropoutOp(1.5),
    MaxPool2DOp(0),
    AvgPool1DOp(0),
    Conv2DOp(2, 0),
    Conv1DOp(2, 0),
    Conv2DOp(2, 2),
    Conv1DOp(2, 4),
], ids=repr)
def test_malformed_op_fails_at_space_definition(op):
    space = SearchSpace("malformed", (4, 4, 1))
    with pytest.raises(ValueError):
        space.add_variable("bad", [IdentityOp(), op])
    with pytest.raises(ValueError):
        space.add_fixed(op, name="bad")
    assert space.num_variable_nodes == 0
    assert space.chosen_ops(()) == []
