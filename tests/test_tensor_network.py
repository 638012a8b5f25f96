"""Network construction, weights dict, and space-built model tests."""

import numpy as np

from repro.nas import DenseOp, FlattenOp, SearchSpace


def test_built_network_runs_and_counts_params(space, problem):
    seq = space.validate_seq((1, 1, 1))   # Dense(8,relu) / relu / Dense(8)
    model = problem.build_model(seq, rng=0)
    x = np.zeros((2, 6, 6, 2))
    assert model.forward(x).shape == (2, 4)
    # flatten(72) -> dense0(8) -> act -> dense1(8) -> head(4)
    expected = (72 * 8 + 8) + (8 * 8 + 8) + (8 * 4 + 4)
    assert model.num_parameters() == expected


def test_get_set_weights_round_trip(space, problem):
    seq = space.sample(np.random.default_rng(0))
    a = problem.build_model(seq, rng=0)
    b = problem.build_model(seq, rng=1)
    weights = a.get_weights()
    assert all(isinstance(k, str) and "." in k for k in weights)
    b.set_weights(weights)
    x = np.random.default_rng(2).normal(size=(3, 6, 6, 2))
    assert np.allclose(a.forward(x), b.forward(x))


def test_weight_names_follow_node_naming(space, problem):
    seq = space.validate_seq((1, 0, 0))
    model = problem.build_model(seq, rng=0)
    names = set(model.get_weights())
    assert "head_dense.kernel" in names
    assert "head_dense.bias" in names
    assert any(n.startswith("dense0_dense.") for n in names)


def test_same_seed_same_init(space, problem):
    seq = space.sample(np.random.default_rng(3))
    w0 = problem.build_model(seq, rng=7).get_weights()
    w1 = problem.build_model(seq, rng=7).get_weights()
    assert all(np.array_equal(w0[k], w1[k]) for k in w0)


def test_tensors_are_views_of_one_buffer(space, problem):
    model = problem.build_model(space.validate_seq((1, 1, 1)), rng=0)
    trained = list(model.trainable())
    assert model.flat_params.size == model.flat_grads.size == sum(
        layer.params[p].size for _, layer, p in trained)
    for _, layer, p in trained:
        assert np.shares_memory(layer.params[p], model.flat_params)
        assert np.shares_memory(layer.grads[p], model.flat_grads)


def test_deferred_init_leaves_a_shared_rng_where_an_eager_build_does(
        space, problem):
    """Two builds from one generator: the first draws the head of the
    stream whichever network initialises first."""
    seq = space.sample(np.random.default_rng(5))
    rng = np.random.default_rng(0)
    first = space.build_network(seq, rng)
    second = space.build_network(seq, rng)
    later = second.get_weights()
    alone = problem.build_model(seq, rng=0).get_weights()
    got = first.get_weights()
    assert all(got[k].tobytes() == alone[k].tobytes() for k in alone)
    assert any(later[k].tobytes() != alone[k].tobytes() for k in alone)


def test_identity_choices_add_no_parameters():
    space = SearchSpace("t", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("d", [DenseOp(4), DenseOp(8)])
    space.add_fixed(DenseOp(2), name="head")
    small = space.build_network(space.validate_seq((0,)),
                                np.random.default_rng(0))
    big = space.build_network(space.validate_seq((1,)),
                              np.random.default_rng(0))
    assert big.num_parameters() > small.num_parameters()
