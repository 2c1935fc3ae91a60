"""Jaro and Jaro-Winkler similarity.

Jaro-Winkler is the secondary (within-token) measure of SoftTFIDF as defined
by Cohen, Ravikumar & Fienberg (2003), which HumMer uses for field-wise
comparison of duplicate tuples during schema matching.
"""

from __future__ import annotations

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import normalize_text

__all__ = ["jaro_similarity", "jaro_winkler_similarity", "JaroWinklerSimilarity"]


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity of two strings, in ``[0, 1]``."""
    left = "" if left is None else str(left)
    right = "" if right is None else str(right)
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0
    match_window = max(len_left, len_right) // 2 - 1
    match_window = max(match_window, 0)

    left_matched = [False] * len_left
    right_matched = [False] * len_right
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_right)
        for j in range(start, end):
            if right_matched[j] or right[j] != char:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i in range(len_left):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len_left + matches / len_right + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: str, right: str, prefix_scale: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro-Winkler similarity: Jaro boosted by the length of the common prefix."""
    base = jaro_similarity(left, right)
    left = "" if left is None else str(left)
    right = "" if right is None else str(right)
    prefix = 0
    for l_char, r_char in zip(left[:max_prefix], right[:max_prefix]):
        if l_char != r_char:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


class JaroWinklerSimilarity(SimilarityMeasure):
    """Object wrapper around :func:`jaro_winkler_similarity` with text normalisation."""

    def __init__(self, prefix_scale: float = 0.1, normalize: bool = True):
        self.prefix_scale = prefix_scale
        self.normalize = normalize

    def compare(self, left: str, right: str) -> float:
        if self.normalize:
            left = normalize_text(left)
            right = normalize_text(right)
        return jaro_winkler_similarity(left, right, prefix_scale=self.prefix_scale)
