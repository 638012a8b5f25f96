"""Training with Adam, the paper's optimizer."""

from repro.tensor import fit


def test_fit_reduces_loss(space, problem, dataset):
    model = problem.build_model(space.validate_seq((1, 1, 0)), rng=0)
    history = fit(
        model, dataset.x_train, dataset.y_train, epochs=5, batch_size=16,
        loss=dataset.loss, learning_rate=1e-2, rng=0,
    )
    assert history.loss[-1] < history.loss[0]
