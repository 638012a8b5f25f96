"""LP/LCS matchers against a brute-force LCS oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfer import Match, get_matcher, lcs_match, longest_prefix_match


def oracle_lcs_length(a, b):
    """Independent prefix-table LCS (the implementation works on
    suffixes), length only."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def assert_valid_alignment(match: Match, a, b):
    prev_i = prev_j = -1
    for i, j in match.pairs:
        assert a[i] == b[j]
        assert i > prev_i and j > prev_j
        prev_i, prev_j = i, j


def brute_force_lcs_length(a, b):
    """Longest subsequence of ``a`` that is also one of ``b``, found by
    trying every index subset of ``a`` from the longest down."""
    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(any(x == y for y in it) for x in sub)

    for k in range(min(len(a), len(b)), 0, -1):
        if any(is_subsequence([a[i] for i in idx], b)
               for idx in itertools.combinations(range(len(a)), k)):
            return k
    return 0


#: a small alphabet of layer shape signatures, so equal layers recur
_SIGNATURES = st.sampled_from([
    ((3, 3, 1, 8), (8,)),
    ((3, 3, 8, 8), (8,)),
    ((72, 8), (8,)),
    ((8, 4), (4,)),
    (),
])
_SHAPE_SEQS = st.lists(_SIGNATURES, min_size=0, max_size=8).map(tuple)


def test_empty_sequences():
    assert lcs_match((), ()).length == 0
    assert lcs_match(("x",), ()).length == 0
    assert longest_prefix_match((), ("x",)).length == 0
    assert not lcs_match((), ())


def test_identical_sequences():
    seq = tuple("abcabc")
    match = lcs_match(seq, seq)
    assert match.length == len(seq)
    assert match.pairs == tuple((i, i) for i in range(len(seq)))
    assert longest_prefix_match(seq, seq).length == len(seq)


def test_disjoint_sequences():
    assert lcs_match(tuple("aaa"), tuple("bbb")).length == 0
    assert longest_prefix_match(tuple("aaa"), tuple("bbb")).length == 0


def test_permuted_sequences():
    a, b = tuple("abcd"), tuple("dcba")
    match = lcs_match(a, b)
    assert match.length == oracle_lcs_length(a, b) == 1
    assert longest_prefix_match(a, b).length == 0


def test_lp_is_common_prefix():
    a, b = tuple("aabXcc"), tuple("aabYcc")
    match = longest_prefix_match(a, b)
    assert match.length == 3
    assert match.pairs == ((0, 0), (1, 1), (2, 2))


def test_lcs_tolerates_insertion_lp_does_not():
    provider = tuple("abcde")
    receiver = tuple("abXcde")           # one inserted layer
    assert longest_prefix_match(provider, receiver).length == 2
    assert lcs_match(provider, receiver).length == 5


def test_lcs_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n, m = rng.integers(0, 12, size=2)
        a = tuple(rng.integers(0, 4, size=n).tolist())
        b = tuple(rng.integers(0, 4, size=m).tolist())
        match = lcs_match(a, b)
        assert match.length == oracle_lcs_length(a, b), (a, b)
        assert_valid_alignment(match, a, b)
        lp = longest_prefix_match(a, b)
        assert lp.length <= match.length
        assert_valid_alignment(lp, a, b)


@settings(max_examples=200, deadline=None)
@given(a=_SHAPE_SEQS, b=_SHAPE_SEQS)
def test_lcs_length_is_brute_force_lcs(a, b):
    assert lcs_match(a, b).length == brute_force_lcs_length(a, b)


@settings(max_examples=200, deadline=None)
@given(a=_SHAPE_SEQS, b=_SHAPE_SEQS)
def test_matcher_pairs_increase_and_join_equal_signatures(a, b):
    for matcher in (lcs_match, longest_prefix_match):
        assert_valid_alignment(matcher(a, b), a, b)


@settings(max_examples=200, deadline=None)
@given(a=_SHAPE_SEQS, b=_SHAPE_SEQS)
def test_prefix_match_is_common_prefix_within_lcs(a, b):
    prefix = 0
    while prefix < min(len(a), len(b)) and a[prefix] == b[prefix]:
        prefix += 1
    lp = longest_prefix_match(a, b)
    assert lp.length == prefix
    assert lp.length <= lcs_match(a, b).length


def test_lcs_works_on_shape_signatures():
    sig = lambda *shapes: tuple(shapes)           # noqa: E731
    a = (sig((72, 8), (8,)), sig((8, 8), (8,)), sig((8, 4), (4,)))
    b = (sig((72, 8), (8,)), sig((8, 16), (16,)), sig((8, 4), (4,)))
    match = lcs_match(a, b)
    assert match.length == 2
    assert match.provider_indices() == (0, 2)
    assert match.receiver_indices() == (0, 2)


def test_get_matcher():
    assert get_matcher("lp") is longest_prefix_match
    assert get_matcher("lcs") is lcs_match
    with pytest.raises(ValueError):
        get_matcher("fuzzy")
