"""Cross-validation: the statically inferred shape sequence must equal the
instantiated network's, over generated architectures of every
application space."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPS
from repro.transfer import arch_shape_sequence, shape_sequence


@cache
def app_space(app):
    return APPS[app].problem(seed=0).space


@pytest.mark.parametrize("app", sorted(APPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_analyzer_matches_instantiated_network(app, data):
    space = app_space(app)
    seq = data.draw(st.tuples(*(st.integers(0, k - 1)
                                for k in space.choice_counts())))
    assert arch_shape_sequence(space, seq) == shape_sequence(
        space.build_network(seq, rng=0))
