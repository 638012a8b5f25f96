"""Hand-picked cases of static shape inference
(:func:`repro.transfer.arch_shape_sequence`): the cases generated inputs
do not reach — malformed sequences, fan-in, concat widths — and the
layers of the wrong input rank named one by one."""

import pytest

from repro.nas import (
    ConcatenateOp,
    Conv1DOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    MaxPool1DOp,
    SearchSpace,
)
from repro.tensor import BuildError
from repro.transfer import arch_shape_sequence, shape_sequence
from repro.transfer.shapeseq import _arch_shape_sequence


def bad_conv_space() -> SearchSpace:
    space = SearchSpace("bad-conv", (4, 4, 1))
    space.add_variable("conv", [IdentityOp(), Conv1DOp(2, 5)])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    return space


def test_analyze_matches_known_shapes(space):
    # dense0(8) -> dense1(8) -> head(4); activations carry no parameters
    assert arch_shape_sequence(space, (1, 1, 1)) == (
        ((72, 8), (8,)),
        ((8, 8), (8,)),
        ((8, 4), (4,)),
    )


def test_conv_of_the_wrong_rank_is_diagnosed():
    space = bad_conv_space()
    with pytest.raises(ValueError, match="conv"):
        arch_shape_sequence(space, (1,))
    with pytest.raises(BuildError):
        space.build_network((1,), rng=0)
    assert arch_shape_sequence(space, (0,)) == (((16, 2), (2,)),)


def test_pool_of_the_wrong_rank_is_diagnosed():
    space = SearchSpace("bad-pool", (4, 4, 1))
    space.add_variable("pool", [IdentityOp(), MaxPool1DOp(2)])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    with pytest.raises(ValueError, match="pool"):
        arch_shape_sequence(space, (1,))
    with pytest.raises(BuildError):
        space.build_network((1,), rng=0)


def test_malformed_sequence_raises(space):
    with pytest.raises(ValueError):
        arch_shape_sequence(space, (0, 0))  # wrong length
    with pytest.raises(ValueError):
        arch_shape_sequence(space, (99, 0, 0))  # out-of-range choice


def test_shape_sequence_refuses_failed_report():
    """An invalid candidate raises on every call: the LRU keeps no
    entry for it, so a later lookup cannot return a stale sequence."""
    space = bad_conv_space()
    for _ in range(2):
        before = _arch_shape_sequence.cache_info()
        with pytest.raises(ValueError):
            arch_shape_sequence(space, (1,))
        after = _arch_shape_sequence.cache_info()
        assert after.currsize == before.currsize
        assert after.hits == before.hits


def test_multi_input_non_concat_is_error():
    space = SearchSpace("fanin", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="a", after="flatten")
    space.add_fixed(DenseOp(4), name="b", after="flatten")
    space.add_fixed(DenseOp(2), name="head", after=["a", "b"])
    with pytest.raises(ValueError, match="only concat"):
        arch_shape_sequence(space, ())


def test_concat_adds_feature_dims():
    space = SearchSpace("concat", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(4), name="a", after="flatten")
    space.add_fixed(DenseOp(6), name="b", after="flatten")
    space.add_fixed(ConcatenateOp(), name="cat", after=["a", "b"])
    space.add_fixed(DenseOp(2), name="head", after="cat")
    seq = arch_shape_sequence(space, ())
    assert seq[-1] == ((10, 2), (2,))   # the head reads 4 + 6 features
    assert seq == shape_sequence(space.build_network((), rng=0))
