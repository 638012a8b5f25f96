"""Unit tests for the static graph analyzer (``repro.analysis``)."""

import pytest

from repro.analysis import analyze
from repro.nas import (
    ConcatenateOp,
    Conv2DOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    MaxPool2DOp,
    SearchSpace,
)


def codes(report):
    return {d.code for d in report.diagnostics}


def test_analyze_matches_known_shapes(space):
    report = analyze(space, (1, 1, 1))
    assert report.ok
    # dense0(8) -> dense1(8) -> head(4); activations carry no parameters
    assert report.shape_sequence == (
        ((72, 8), (8,)),
        ((8, 8), (8,)),
        ((8, 4), (4,)),
    )
    assert report.output_shape == (4,)
    assert report.total_params == (72 * 8 + 8) + (8 * 8 + 8) + (8 * 4 + 4)


def test_strict_conv_too_large_is_diagnosed():
    space = SearchSpace("bad-conv", (4, 4, 1))
    space.add_variable("conv", [
        IdentityOp(), Conv2DOp(2, 5, padding="valid"),
    ])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    report = analyze(space, (1,))
    assert not report.ok
    assert "shape-mismatch" in codes(report)
    assert analyze(space, (0,)).ok


def test_strict_pool_larger_than_input_is_diagnosed():
    space = SearchSpace("bad-pool", (4, 4, 1))
    space.add_variable("pool", [IdentityOp(), MaxPool2DOp(8)])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    report = analyze(space, (1,))
    assert not report.ok
    assert "shape-mismatch" in codes(report)


def test_param_budget_violation(space):
    report = analyze(space, (1, 1, 1), param_budget=10)
    assert not report.ok
    assert "param-budget" in codes(report)
    assert analyze(space, (1, 1, 1), param_budget=10**6).ok


def test_float64_input_warns_and_promotes(space):
    report = analyze(space, (1, 0, 0), input_dtype="float64")
    assert report.ok  # warning, not error
    assert "float64-promotion" in codes(report)
    assert report.output_dtype == "float64"
    assert analyze(space, (1, 0, 0)).output_dtype == "float32"


def test_unsupported_dtype_raises(space):
    with pytest.raises(ValueError):
        analyze(space, (0, 0, 0), input_dtype="float16")


def test_malformed_sequence_raises(space):
    with pytest.raises(ValueError):
        analyze(space, (0, 0))  # wrong length
    with pytest.raises(ValueError):
        analyze(space, (99, 0, 0))  # out-of-range choice


def test_signature_key_stable_and_distinct(space):
    a1 = analyze(space, (1, 1, 1)).signature_key
    a2 = analyze(space, (1, 1, 1)).signature_key
    b = analyze(space, (2, 0, 0)).signature_key
    assert a1 == a2
    assert a1 != b


def test_shape_sequence_refuses_failed_report():
    space = SearchSpace("bad-conv", (4, 4, 1))
    space.add_variable("conv", [
        IdentityOp(), Conv2DOp(2, 5, padding="valid"),
    ])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    report = analyze(space, (1,))
    with pytest.raises(ValueError):
        report.shape_sequence


def test_dead_node_is_warned_not_errored():
    space = SearchSpace("branchy", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="a", after="flatten")
    space.add_fixed(DenseOp(4), name="b", after="flatten")
    space.add_fixed(DenseOp(2), name="head", after="a")
    report = analyze(space, ())
    assert report.ok
    dead = [d for d in report.diagnostics if d.code == "dead-node"]
    assert [d.node for d in dead] == ["b"]


def test_multi_input_non_concat_is_error():
    space = SearchSpace("fanin", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="a", after="flatten")
    space.add_fixed(DenseOp(4), name="b", after="flatten")
    space.add_fixed(DenseOp(2), name="head", after=["a", "b"])
    report = analyze(space, ())
    assert not report.ok
    assert "shape-mismatch" in codes(report)


def test_concat_adds_feature_dims():
    space = SearchSpace("concat", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="a", after="flatten")
    space.add_fixed(DenseOp(6), name="b", after="flatten")
    space.add_fixed(ConcatenateOp(), name="cat", after=["a", "b"])
    space.add_fixed(DenseOp(2), name="head", after="cat")
    report = analyze(space, ())
    assert report.ok
    cat = next(layer for layer in report.layers if layer.node == "cat")
    assert cat.output_shape == (10,)
