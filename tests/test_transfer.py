"""transfer_weights: stats, selectivity, and the partial-shape extension."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.tensor import BuildError
from repro.transfer import partial_transfer_weights, transfer_weights


def _pair(space, problem, seq_a, seq_b):
    provider = problem.build_model(space.validate_seq(seq_a), rng=0)
    receiver = problem.build_model(space.validate_seq(seq_b), rng=1)
    return provider.get_weights(), receiver


def test_identical_architectures_transfer_everything(space, problem):
    pw, receiver = _pair(space, problem, (1, 1, 1), (1, 1, 1))
    stats = transfer_weights(receiver, pw, matcher="lcs")
    assert stats.transferred
    assert stats.coverage == pytest.approx(1.0)
    assert stats.num_layers_transferred == stats.receiver_layers
    rw = receiver.get_weights()
    assert all(np.array_equal(rw[k], pw[k]) for k in pw)


def test_transfer_is_selective(space, problem):
    # dense0 differs (8 vs 16 units): dense1's kernel shape changes with
    # its input, so only the head matches.
    pw, receiver = _pair(space, problem, (1, 1, 1), (2, 1, 1))
    stats = transfer_weights(receiver, pw, matcher="lcs")
    assert stats.transferred
    assert 0.0 < stats.coverage < 1.0
    assert set(stats.transferred_names) == {
        "head_dense.kernel", "head_dense.bias"}
    rw = receiver.get_weights()
    assert np.array_equal(rw["head_dense.kernel"], pw["head_dense.kernel"])
    # unmatched layers keep their fresh initialisation
    assert not np.array_equal(
        rw["dense0_dense.kernel"][:, :8], pw["dense0_dense.kernel"])


def test_stats_bookkeeping(space, problem):
    pw, receiver = _pair(space, problem, (1, 1, 1), (1, 1, 0))
    stats = transfer_weights(receiver, pw, matcher="lcs")
    assert stats.matcher == "lcs"
    assert stats.receiver_layers == 2            # dense0 + head
    assert stats.provider_layers == 3
    assert stats.num_transferred == len(stats.transferred_names)
    assert stats.receiver_elements == receiver.num_parameters()
    assert stats.transferred_elements == sum(
        receiver.get_weights()[n].size for n in stats.transferred_names)


def test_lp_transfers_no_more_than_lcs(space, problem):
    # Insertion in the middle: LP stops at the first mismatch, LCS skips it.
    pw, receiver_lp = _pair(space, problem, (1, 0, 0), (1, 0, 1))
    _, receiver_lcs = _pair(space, problem, (1, 0, 0), (1, 0, 1))
    lp = transfer_weights(receiver_lp, pw, matcher="lp")
    lcs = transfer_weights(receiver_lcs, pw, matcher="lcs")
    assert lp.num_layers_transferred <= lcs.num_layers_transferred
    assert lp.coverage <= lcs.coverage + 1e-12


def test_disjoint_architectures_transfer_nothing(space, problem):
    pw, receiver = _pair(space, problem, (0, 0, 0), (3, 0, 1))
    pw = {k: v for k, v in pw.items() if not k.startswith("head")}
    stats = transfer_weights(receiver, pw, matcher="lcs")
    assert not stats.transferred
    assert stats.coverage == 0.0
    assert stats.transferred_names == ()


def test_partial_transfer_covers_at_least_exact(space, problem):
    pw, receiver_a = _pair(space, problem, (2, 1, 1), (1, 1, 1))
    _, receiver_b = _pair(space, problem, (2, 1, 1), (1, 1, 1))
    exact = transfer_weights(receiver_a, pw, matcher="lcs")
    partial = partial_transfer_weights(receiver_b, pw)
    assert partial.matcher == "partial"
    assert partial.coverage >= exact.coverage - 1e-12
    assert partial.num_transferred >= exact.num_transferred


def test_partial_copies_overlapping_block(space, problem):
    pw, receiver = _pair(space, problem, (2, 0, 0), (1, 0, 0))
    partial = transfer_weights(receiver, pw, matcher="partial")
    assert partial.transferred
    rw = receiver.get_weights()
    # dense0: provider 72x16, receiver 72x8 -> overlap is the first 8 cols
    assert np.array_equal(rw["dense0_dense.kernel"],
                          pw["dense0_dense.kernel"][:, :8])


# ---------------------------------------------------------------------------
# transfer before init: the fresh buffer is filled, then the rest is drawn
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _app_problem(app):
    return get_app(app).problem(seed=0)


@settings(max_examples=80, deadline=None)
@given(app=st.sampled_from(["cifar10", "mnist", "nt3", "uno"]),
       matcher=st.sampled_from(["lp", "lcs"]),
       provider=st.sampled_from(["cold", "same", "mutant", "random"]),
       seed=st.integers(0, 2**16))
@example(app="uno", matcher="lcs", provider="cold", seed=0)
@example(app="cifar10", matcher="lp", provider="same", seed=0)
def test_transfer_before_init_matches_build_then_transfer(
        app, matcher, provider, seed):
    """Copying the provider's matched tensors into a fresh build before
    it initialises gives every tensor the bits of the two-step sequence:
    build and initialise, then transfer over the drawn values."""
    problem = _app_problem(app)
    space, rng = problem.space, np.random.default_rng(seed)
    seq = space.sample(rng)
    donor = {"cold": None, "same": seq, "mutant": space.mutate(seq, rng),
             "random": space.sample(rng)}[provider]
    try:
        weights = {} if donor is None else problem.build_model(
            donor, rng=seed + 1).get_weights()
        reference = problem.build_model(seq, rng=seed + 2)
    except BuildError:
        return
    reference.initialize()
    want = transfer_weights(reference, weights, matcher=matcher)

    fresh = problem.build_model(seq, rng=seed + 2)
    got = transfer_weights(fresh, weights, matcher=matcher)

    assert got == want
    if provider == "same":
        assert got.coverage == 1.0
    if provider == "cold":
        assert not got.transferred
    ref_w, got_w = reference.get_weights(), fresh.get_weights()
    assert list(got_w) == list(ref_w)
    for key, w in ref_w.items():
        assert got_w[key].tobytes() == w.tobytes(), key
