"""Monge-Elkan hybrid token similarity.

For every token of the left string, take its best match among the right
string's tokens under a secondary character-level measure, then average.
Useful for multi-word fields (addresses, titles) where word order varies.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.similarity.base import SimilarityMeasure
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.tokenize import tokenize

__all__ = ["monge_elkan_similarity", "monge_elkan_tokens", "MongeElkanSimilarity", "TokenPairTable"]


class TokenPairTable(dict):
    """Jaro-Winkler per ``(token, token)`` key, evaluated on first lookup.

    Jaro-Winkler is symmetric bit for bit, so one evaluation fills both
    orientations; a batch scorer keeps one table for the whole batch.
    """

    __slots__ = ()

    def __missing__(self, key):
        left, right = key
        similarity = self[key] = self[right, left] = jaro_winkler_similarity(left, right)
        return similarity


def monge_elkan_similarity(left: str, right: str, secondary=None, symmetric: bool = True) -> float:
    """Monge-Elkan similarity with Jaro-Winkler as the default secondary measure."""
    return monge_elkan_tokens(tokenize(left), tokenize(right), secondary, symmetric)


def monge_elkan_tokens(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    secondary=None,
    symmetric: bool = True,
    table: Optional[TokenPairTable] = None,
) -> float:
    """:func:`monge_elkan_similarity` over already tokenised strings.

    With the default Jaro-Winkler secondary, token pairs are read from
    *table* (a fresh :class:`TokenPairTable` when ``None``); a *secondary* of
    the caller's own is evaluated for every token pair.
    """
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    if secondary is None or secondary is jaro_winkler_similarity:
        pairs = TokenPairTable() if table is None else table
    else:
        pairs = {(a, b): secondary(a, b) for a in left_tokens for b in right_tokens}
        if symmetric:
            pairs.update({(b, a): secondary(b, a) for a in left_tokens for b in right_tokens})

    def directed(source, target):
        total = 0.0
        for token in source:
            best = -math.inf
            for other in target:
                similarity = pairs[token, other]
                if similarity > best:
                    best = similarity
            total += best
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
