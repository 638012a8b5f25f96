"""Acceptance: pre-flight static gating inside the NAS loop.

A *strict* (non-adaptive, valid-padding) space contains architectures
whose geometry is impossible — ``build_network`` raises ``BuildError``
for them.  The analyzer must agree exactly with the builder on which
those are (on a hand-built space and on generated ones), and a gated
search must never submit one to an evaluator.  Malformed ops, which no
input shape can fix, are rejected when the space is defined."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PreflightGate, analyze
from repro.apps import make_image_dataset
from repro.cluster import Trace, run_search
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
    RegularizedEvolution,
    SearchSpace,
)
from repro.tensor import BuildError
from repro.transfer import shape_sequence

VALID_SEQ = (0, 0, 0)      # identity everywhere: always buildable
INVALID_SEQ = (2, 2, 0)    # 5x5 valid conv -> 2x2, then pool(4) cannot fit


def build_strict_space() -> SearchSpace:
    space = SearchSpace("strict", (6, 6, 1))
    space.add_variable("conv0", [
        IdentityOp(),
        Conv2DOp(4, 3, padding="valid"),
        Conv2DOp(4, 5, padding="valid"),
    ])
    space.add_variable("pool0", [
        IdentityOp(), MaxPool2DOp(2), MaxPool2DOp(4),
    ])
    space.add_variable("conv1", [
        IdentityOp(), Conv2DOp(8, 3, padding="valid"),
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


def test_analyzer_ok_iff_build_succeeds(strict_problem):
    space = strict_problem.space
    num_invalid = 0
    for seq in all_seqs(space):
        report = analyze(space, seq)
        try:
            strict_problem.build_model(seq, rng=0)
            built = True
        except BuildError:
            built = False
        assert report.ok == built, f"{seq}: analyzer and builder disagree"
        num_invalid += not built
    assert num_invalid > 0  # the space genuinely contains invalid geometry


def test_gate_admits_and_counts(strict_problem):
    gate = PreflightGate(strict_problem.space)
    assert gate.admits(VALID_SEQ)
    assert not gate.admits(INVALID_SEQ)
    assert gate.stats.checked == 2
    assert gate.stats.admitted == 1
    assert gate.stats.rejected == 1
    assert gate.stats.by_code  # rejection attributed to a diagnostic code
    assert 0.0 < gate.stats.rejection_rate < 1.0


def test_random_search_with_gate_only_proposes_buildable(strict_problem):
    space = strict_problem.space
    gate = PreflightGate(space)
    strategy = RandomSearch(space, rng=np.random.default_rng(5), gate=gate)
    for _ in range(30):
        proposal = strategy.ask()
        strict_problem.build_model(proposal.arch_seq, rng=0)  # must not raise
    assert gate.stats.rejected > 0


def test_run_search_gated_evolution(strict_problem, tmp_path):
    strategy = RegularizedEvolution(
        strict_problem.space, rng=np.random.default_rng(3),
        population_size=8, sample_size=4,
        gate=PreflightGate(strict_problem.space))
    trace = run_search(strict_problem, strategy, 12, seed=3, name="gated")
    assert len(trace) == 12
    assert all(r.ok for r in trace.records)

    stats = trace.static_stats
    assert stats is not None
    assert stats["checked"] >= 12
    assert stats["rejected"] > 0
    assert stats["checked"] == stats["admitted"] + stats["rejected"]

    path = trace.save_jsonl(tmp_path / "gated.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.static_stats == stats


def test_run_search_without_gate_keeps_stats_unset(strict_problem):
    strategy = RandomSearch(strict_problem.space,
                            rng=np.random.default_rng(11))
    trace = run_search(strict_problem, strategy, 4, seed=11)
    assert trace.static_stats is None


_POOLS = {"maxpool2d": MaxPool2DOp, "avgpool2d": AvgPool2DOp,
          "maxpool1d": MaxPool1DOp, "avgpool1d": AvgPool1DOp}


@st.composite
def _ops(draw):
    kind = draw(st.sampled_from(["identity", "conv2d", "conv1d", *_POOLS]))
    if kind == "identity":
        return IdentityOp()
    size = draw(st.integers(1, 6))
    adaptive = draw(st.booleans())
    if kind in _POOLS:
        return _POOLS[kind](size, adaptive=adaptive)
    conv = Conv2DOp if kind == "conv2d" else Conv1DOp
    return conv(draw(st.integers(1, 3)), size,
                padding=draw(st.sampled_from(["valid", "same"])),
                adaptive=adaptive)


@st.composite
def _spaces(draw):
    """A chain of 1-3 two-choice conv/pool nodes over a 1-D or 2-D input
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
    report = analyze(space, seq)
    try:
        net = space.build_network(seq, rng=0)
    except BuildError:
        net = None
    assert report.ok == (net is not None), report.summary()
    if net is not None:
        assert report.shape_sequence == shape_sequence(net)
        assert report.total_params == net.num_parameters()


@pytest.mark.parametrize("op", [
    ActivationOp("bogus"),
    DropoutOp(1.5),
    MaxPool2DOp(2, stride=1),
    MaxPool2DOp(0),
    AvgPool1DOp(0),
    Conv2DOp(2, 0, padding="valid"),
    Conv1DOp(2, 0),
], ids=repr)
def test_malformed_op_fails_at_space_definition(op):
    space = SearchSpace("malformed", (4, 4, 1))
    with pytest.raises(ValueError):
        space.add_variable("bad", [IdentityOp(), op])
    with pytest.raises(ValueError):
        space.add_fixed(op, name="bad")
    assert space.num_variable_nodes == 0
    assert space.chosen_ops(()) == []
