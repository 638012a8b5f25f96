"""Training with Adam, the paper's optimizer."""

import tracemalloc

from repro.tensor import Adam, Dense, Network, fit


def test_fit_reduces_loss(space, problem, dataset):
    model = problem.build_model(space.validate_seq((1, 1, 0)), rng=0)
    history = fit(
        model, dataset.x_train, dataset.y_train, epochs=5, batch_size=16,
        loss=dataset.loss, learning_rate=1e-2, rng=0,
    )
    assert history.loss[-1] < history.loss[0]


def test_adam_step_allocates_nothing():
    """The step runs in the network's buffers and its own scratch: the
    running step allocates nothing.  This replaces lint rule R003, which
    read the source of ``Adam.step`` for allocating calls."""
    net = Network((64,))
    net.add(Dense("d", 64))
    net.build(0)
    opt = Adam(net, 1e-3)
    net.flat_grads[...] = 1.0
    opt.step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one temporary of the 4,160-element buffer would be 16 KB
    assert peak - before < 1024
