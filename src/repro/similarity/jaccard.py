"""Jaccard and Dice token-set similarities."""

from __future__ import annotations

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import tokenize

__all__ = ["jaccard_similarity", "dice_similarity", "JaccardSimilarity"]


def jaccard_similarity(left: str, right: str) -> float:
    """Jaccard coefficient of the word-token sets of the two strings."""
    left_tokens = set(tokenize(left))
    right_tokens = set(tokenize(right))
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    intersection = len(left_tokens & right_tokens)
    union = len(left_tokens | right_tokens)
    return intersection / union


def dice_similarity(left: str, right: str) -> float:
    """Dice coefficient of the word-token sets of the two strings."""
    left_tokens = set(tokenize(left))
    right_tokens = set(tokenize(right))
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    intersection = len(left_tokens & right_tokens)
    return 2.0 * intersection / (len(left_tokens) + len(right_tokens))


class JaccardSimilarity(SimilarityMeasure):
    """Object wrapper around :func:`jaccard_similarity`."""

    def compare(self, left: str, right: str) -> float:
        return jaccard_similarity(left, right)
