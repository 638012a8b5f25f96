"""The four applications: spaces, datasets, cost models."""

import numpy as np
import pytest

from repro.apps import (
    APPS,
    get_app,
    make_image_dataset,
    make_multisource_dataset,
    make_profile_dataset,
)
from repro.cluster import CostModel
from repro.nas import estimate_candidate

EXPECTED_VNS = {"cifar10": 21, "mnist": 11, "nt3": 8, "uno": 13}

SMALL = {
    "cifar10": dict(n_train=48, n_val=16, height=8, width=8),
    "mnist": dict(n_train=48, n_val=16, height=8, width=8),
    "nt3": dict(n_train=48, n_val=16, length=64, n_motifs=2),
    "uno": dict(n_train=64, n_val=24),
}


def test_registry_contents():
    assert set(APPS) == set(EXPECTED_VNS)
    with pytest.raises(ValueError):
        get_app("imagenet")


@pytest.mark.parametrize("app", sorted(EXPECTED_VNS))
def test_space_structure(app):
    problem = get_app(app).problem(seed=0, **SMALL[app])
    assert problem.space.num_variable_nodes == EXPECTED_VNS[app]
    assert problem.space.size > 1000


def test_size_ordering_matches_paper():
    sizes = {app: get_app(app).problem(seed=0, **SMALL[app]).space.size
             for app in EXPECTED_VNS}
    assert sizes["cifar10"] > sizes["uno"] > sizes["mnist"] > sizes["nt3"]


@pytest.mark.parametrize("app", sorted(EXPECTED_VNS))
def test_cost_models(app):
    cm = get_app(app).cost_model()
    assert isinstance(cm, CostModel)
    assert cm.base_seconds > 0
    assert cm.dispatch_latency > 0


@pytest.mark.parametrize("app", sorted(EXPECTED_VNS))
def test_random_candidate_estimates_ok(app):
    problem = get_app(app).problem(seed=0, **SMALL[app])
    seq = problem.space.sample(np.random.default_rng(0))
    result = estimate_candidate(problem, seq, seed=0)
    assert result.ok, result.error
    assert np.isfinite(result.score)


def test_image_dataset_shapes():
    ds = make_image_dataset(n_train=20, n_val=8, height=7, width=9,
                            channels=2, classes=5, seed=0)
    assert ds.x_train.shape == (20, 7, 9, 2)
    assert ds.input_shapes == ((7, 9, 2),)
    assert ds.y_train.shape == (20, 5)
    assert np.allclose(ds.y_train.sum(axis=1), 1.0)   # one-hot
    assert ds.loss == "categorical_crossentropy"


def test_profile_dataset_shapes():
    ds = make_profile_dataset(n_train=16, n_val=8, length=64, n_motifs=2,
                              seed=0)
    assert ds.x_train.shape == (16, 64, 1)
    assert ds.y_train.shape[1] == 2


def test_multisource_dataset_shapes():
    ds = make_multisource_dataset(n_train=24, n_val=8, dims=(10, 6, 4),
                                  seed=0)
    assert isinstance(ds.x_train, list)
    assert [x.shape for x in ds.x_train] == [(24, 10), (24, 6), (24, 4)]
    assert ds.loss == "mse"
    assert ds.metric == "r2"
    assert ds.input_shapes == ((10,), (6,), (4,))


def test_datasets_are_seeded():
    a = make_image_dataset(n_train=8, n_val=4, seed=5)
    b = make_image_dataset(n_train=8, n_val=4, seed=5)
    c = make_image_dataset(n_train=8, n_val=4, seed=6)
    assert np.array_equal(a.x_train, b.x_train)
    assert not np.array_equal(a.x_train, c.x_train)
