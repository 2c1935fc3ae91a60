"""Jaro and Jaro-Winkler similarity.

Jaro-Winkler is the secondary (within-token) measure of SoftTFIDF as defined
by Cohen, Ravikumar & Fienberg (2003), which HumMer uses for field-wise
comparison of duplicate tuples during schema matching.

Both measures are symmetric bit for bit: ``f(a, b)`` and ``f(b, a)`` are the
same float.  For each character, greedy in-window matching pairs its
occurrences in the two strings in the same order whichever side leads, so
the match count and the transpositions agree; ``m/|a| + m/|b|`` is one IEEE
addition, which commutes; and the common prefix is common to both.  Callers
that memoise token pairs may therefore store one result under both
orientations.
"""

from __future__ import annotations

from itertools import compress
from operator import ne

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import normalize_text

__all__ = [
    "jaro_similarity", "jaro_winkler_similarity", "jaro_winkler_bound", "JaroWinklerSimilarity"
]


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity of two strings, in ``[0, 1]``.

    Each character of *left* matches the first untaken equal character of
    *right* inside the match window.  ``str.find`` scans the window for it
    in C and a ``bytearray`` marks the taken positions, so only the
    occurrences of the character are visited, not every cell of the window.
    """
    left = "" if left is None else str(left)
    right = "" if right is None else str(right)
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0
    window = max(max(len_left, len_right) // 2 - 1, 0)

    find = right.find
    taken = bytearray(len_right)
    left_matched = []
    for i, char in enumerate(left):
        end = i + window + 1
        j = find(char, i - window if i > window else 0, end)
        while j >= 0 and taken[j]:
            j = find(char, j + 1, end)
        if j >= 0:
            taken[j] = 1
            left_matched.append(char)
    matches = len(left_matched)
    if matches == 0:
        return 0.0

    # Half the positions where the matched characters, read in order on
    # each side, disagree.
    transpositions = sum(map(ne, left_matched, compress(right, taken))) // 2

    return (
        matches / len_left + matches / len_right + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: str, right: str, prefix_scale: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro-Winkler similarity: Jaro boosted by the length of the common prefix.

    The boost closes ``prefix * prefix_scale`` of the gap to 1, so the
    result stays in ``[0, 1]`` only while ``prefix_scale * max_prefix <= 1``.
    A larger or negative ``prefix_scale``, or a negative ``max_prefix``,
    raises :class:`ValueError`.
    """
    if not 0.0 <= prefix_scale or max_prefix < 0 or prefix_scale * max_prefix > 1.0:
        raise ValueError(
            "prefix_scale must lie in [0, 1 / max_prefix] and max_prefix must be "
            f"non-negative; got prefix_scale={prefix_scale!r}, max_prefix={max_prefix!r}"
        )
    base = jaro_similarity(left, right)
    left = "" if left is None else str(left)
    right = "" if right is None else str(right)
    limit = min(max_prefix, len(left), len(right))
    prefix = 0
    while prefix < limit and left[prefix] == right[prefix]:
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaro_winkler_bound(left: str, right: str, left_chars=None, right_chars=None) -> float:
    """An upper bound on :func:`jaro_winkler_similarity` (default scaling)
    from the strings' character sets and common prefix alone.

    Jaro pairs equal characters, so its match count is at most the number
    of characters of either string that occur in the other; its
    transposition term ``(m - t) / m`` is at most 1; and the prefix is the
    exact common prefix (at most 4).  Jaro-Winkler grows with Jaro, so the
    bound holds; where the two differ they differ by at least
    ``1 / (3 * len)``, far beyond rounding.  *left_chars* and *right_chars*
    are the strings' character sets, when the caller keeps them.
    """
    if not left or not right:
        return 1.0 if left == right else 0.0
    left_chars = set(left) if left_chars is None else left_chars
    right_chars = set(right) if right_chars is None else right_chars
    matches = min(
        sum(map(right_chars.__contains__, left)), sum(map(left_chars.__contains__, right))
    )
    if matches == 0:
        return 0.0
    base = (matches / len(left) + matches / len(right) + 1.0) / 3.0
    limit = min(4, len(left), len(right))
    prefix = 0
    while prefix < limit and left[prefix] == right[prefix]:
        prefix += 1
    return base + prefix * 0.1 * (1.0 - base)


class JaroWinklerSimilarity(SimilarityMeasure):
    """Object wrapper around :func:`jaro_winkler_similarity` with text normalisation."""

    def __init__(self, prefix_scale: float = 0.1, normalize: bool = True):
        # The same check as the function's, at construction rather than on
        # the first comparison.
        jaro_winkler_similarity("", "", prefix_scale=prefix_scale)
        self.prefix_scale = prefix_scale
        self.normalize = normalize

    def compare(self, left: str, right: str) -> float:
        if self.normalize:
            left = normalize_text(left)
            right = normalize_text(right)
        return jaro_winkler_similarity(left, right, prefix_scale=self.prefix_scale)
