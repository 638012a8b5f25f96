"""Shape sequences: layer-level signatures from models and weight dicts."""

import numpy as np
import pytest

from repro.nas import Conv1DOp, DenseOp, FlattenOp, IdentityOp, SearchSpace
from repro.transfer import arch_shape_sequence, group_layers, shape_sequence
from repro.transfer.shapeseq import _arch_shape_sequence


def test_shape_sequence_of_model_is_layer_level(space, problem):
    seq = space.validate_seq((1, 1, 1))
    model = problem.build_model(seq, rng=0)
    shapes = shape_sequence(model)
    # dense0(8) -> dense1(8) -> head(4); activations carry no parameters
    assert shapes == (
        ((72, 8), (8,)),
        ((8, 8), (8,)),
        ((8, 4), (4,)),
    )


def test_shape_sequence_from_weights_matches_model(space, problem):
    seq = space.sample(np.random.default_rng(0))
    model = problem.build_model(seq, rng=0)
    assert shape_sequence(model.get_weights()) == shape_sequence(model)


def test_group_layers_groups_by_prefix():
    weights = {
        "conv.kernel": np.zeros((3, 3, 2, 4)),
        "conv.bias": np.zeros(4),
        "head.kernel": np.zeros((16, 2)),
        "head.bias": np.zeros(2),
    }
    groups = group_layers(weights)
    assert [names for names, _ in groups] == [
        ["conv.kernel", "conv.bias"], ["head.kernel", "head.bias"]]
    assert groups[0][1] == ((3, 3, 2, 4), (4,))


def test_identity_nodes_do_not_appear_in_sequence(space, problem):
    all_identity = problem.build_model(space.validate_seq((0, 0, 0)), rng=0)
    assert len(shape_sequence(all_identity)) == 1   # only the head


def test_arch_shape_sequence_matches_build_path(space, problem):
    rng = np.random.default_rng(7)
    for _ in range(20):
        seq = space.sample(rng)
        model = problem.build_model(seq, rng=0)
        assert arch_shape_sequence(space, seq) == shape_sequence(model)


def test_arch_shape_sequence_is_cached(space):
    seq = space.validate_seq((1, 1, 1))
    first = arch_shape_sequence(space, seq)
    hits_before = _arch_shape_sequence.cache_info().hits
    second = arch_shape_sequence(space, seq)
    assert second is first  # LRU returns the identical tuple
    assert _arch_shape_sequence.cache_info().hits == hits_before + 1


def test_arch_shape_sequence_rejects_invalid_geometry():
    space = SearchSpace("bad-geometry", (4, 4, 1))
    space.add_variable("conv", [IdentityOp(), Conv1DOp(2, 5)])
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_fixed(DenseOp(2), name="head")
    with pytest.raises(ValueError, match="conv"):
        arch_shape_sequence(space, (1,))
