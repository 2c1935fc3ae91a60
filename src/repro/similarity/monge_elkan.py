"""Monge-Elkan hybrid token similarity.

For every token of the left string, take its best match among the right
string's tokens under a secondary character-level measure, then average.
Useful for multi-word fields (addresses, titles) where word order varies.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.similarity.base import SimilarityMeasure
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.tokenize import tokenize

__all__ = ["monge_elkan_similarity", "monge_elkan_tokens", "MongeElkanSimilarity"]


def monge_elkan_similarity(left: str, right: str, secondary=None, symmetric: bool = True) -> float:
    """Monge-Elkan similarity with Jaro-Winkler as the default secondary measure."""
    return monge_elkan_tokens(tokenize(left), tokenize(right), secondary, symmetric)


def monge_elkan_tokens(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    secondary=None,
    symmetric: bool = True,
) -> float:
    """:func:`monge_elkan_similarity` over already tokenised strings."""
    secondary = secondary or jaro_winkler_similarity
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0

    def directed(source, target):
        total = 0.0
        for token in source:
            total += max(secondary(token, other) for other in target)
        return total / len(source)

    forward = directed(left_tokens, right_tokens)
    if not symmetric:
        return forward
    backward = directed(right_tokens, left_tokens)
    return (forward + backward) / 2.0


class MongeElkanSimilarity(SimilarityMeasure):
    """Object wrapper around :func:`monge_elkan_similarity`."""

    def __init__(self, secondary: Optional[SimilarityMeasure] = None, symmetric: bool = True):
        self.secondary = secondary
        self.symmetric = symmetric

    def compare(self, left: str, right: str) -> float:
        secondary = self.secondary.compare if self.secondary is not None else None
        return monge_elkan_similarity(left, right, secondary=secondary, symmetric=self.symmetric)
