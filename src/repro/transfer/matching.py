"""LP and LCS matchers over shape sequences (paper Section IV).

Both return a :class:`Match` whose ``pairs`` are ``(i, j)`` index pairs —
provider layer ``i`` supplies receiver layer ``j`` — strictly increasing
in both coordinates.

- :func:`longest_prefix_match` — the paper's LP heuristic,
  O(min(n, m)): stop at the first differing signature.
- :func:`lcs_match` — longest common subsequence via the Wagner–Fischer
  dynamic program, O(nm): tolerant of layer insertions/deletions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class Match:
    """An increasing alignment between two shape sequences."""

    pairs: tuple = field(default_factory=tuple)  # ((i, j), ...)

    @property
    def length(self) -> int:
        return len(self.pairs)

    def provider_indices(self) -> tuple:
        return tuple(i for i, _ in self.pairs)

    def receiver_indices(self) -> tuple:
        return tuple(j for _, j in self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


def longest_prefix_match(a: Sequence, b: Sequence) -> Match:
    """Match the longest common *prefix* of sequences ``a`` and ``b``."""
    n = min(len(a), len(b))
    pairs = []
    for i in range(n):
        if a[i] != b[i]:
            break
        pairs.append((i, i))
    return Match(tuple(pairs))


def lcs_match(a: Sequence, b: Sequence) -> Match:
    """Longest common subsequence (Wagner–Fischer DP + backtrack).

    Ties are broken toward matching the *earliest* provider layers, which
    keeps the alignment stable under suffix changes.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return Match(())
    # dp[i][j] = LCS length of a[i:], b[j:]
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = dp[i], dp[i + 1]
        ai = a[i]
        for j in range(m - 1, -1, -1):
            if ai == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                down, right = nxt[j], row[j + 1]
                row[j] = down if down >= right else right
    pairs = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j] and dp[i][j] == dp[i + 1][j + 1] + 1:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return Match(tuple(pairs))


MATCHERS: dict = {"lp": longest_prefix_match, "lcs": lcs_match}


def get_matcher(name: str) -> Callable[[Sequence, Sequence], Match]:
    try:
        return MATCHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown matcher {name!r} (expected 'lp' or 'lcs')"
        ) from None
