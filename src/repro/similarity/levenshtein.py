"""Levenshtein (edit) distance and the derived normalised similarity.

The duplicate-detection similarity measure uses edit distance for textual
attribute values (paper §2.3, "data similarity between matched attributes
using edit distance and numerical distance functions").
"""

from __future__ import annotations

from typing import Dict

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import normalize_text

__all__ = ["levenshtein_distance", "levenshtein_similarity", "LevenshteinSimilarity"]


def levenshtein_distance(left: str, right: str) -> int:
    """Minimum number of single-character edits turning *left* into *right*.

    Bit-parallel (Myers 1999, in Hyyrö's 2003 form for edit distance): one
    column of the dynamic-programming matrix is held as vertical +1/-1 delta
    bit vectors over the shorter string, and each character of the longer
    string advances the whole column with a handful of integer operations —
    O(len(longer)) big-int steps instead of O(len(left) * len(right)) cell
    updates.  Python ints have no word size, so the distance is exact at any
    length.

    A common prefix or suffix never costs an edit, so both are stripped
    first (the distance is unchanged); values that share a domain or a
    first name then run the loop over their differing middles only.
    """
    left = "" if left is None else str(left)
    right = "" if right is None else str(right)
    if left == right:
        return 0
    shorter = min(len(left), len(right))
    start = 0
    while start < shorter and left[start] == right[start]:
        start += 1
    end_left, end_right = len(left), len(right)
    while (
        end_left > start and end_right > start and left[end_left - 1] == right[end_right - 1]
    ):
        end_left -= 1
        end_right -= 1
    left = left[start:end_left]
    right = right[start:end_right]
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) < len(right):
        left, right = right, left
    # Bit i of match[c] is set where right[i] == c.
    match: Dict[str, int] = {}
    bit = 1
    for char in right:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    positive = mask  # vertical deltas +1 (column 0 is 0, 1, ..., m)
    negative = 0  # vertical deltas -1
    distance = len(right)
    for char in left:
        equal = match.get(char, 0)
        diagonal = (((equal & positive) + positive) ^ positive) | equal | negative
        horizontal_positive = negative | ~(diagonal | positive)
        horizontal_negative = diagonal & positive
        if horizontal_positive & last:
            distance += 1
        elif horizontal_negative & last:
            distance -= 1
        # Row 0 of the matrix grows by one per column: shift in a +1.
        horizontal_positive = (horizontal_positive << 1) | 1
        horizontal_negative <<= 1
        positive = (horizontal_negative | ~(diagonal | horizontal_positive)) & mask
        negative = horizontal_positive & diagonal & mask
    return distance


def levenshtein_similarity(left: str, right: str, normalize: bool = True) -> float:
    """Edit distance scaled to ``[0, 1]``: ``1 - distance / max(len)``.

    With *normalize* the strings are case-folded and accent-stripped first.
    """
    if normalize:
        left = normalize_text(left)
        right = normalize_text(right)
    else:
        left = "" if left is None else str(left)
        right = "" if right is None else str(right)
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


class LevenshteinSimilarity(SimilarityMeasure):
    """Object wrapper around :func:`levenshtein_similarity`."""

    def __init__(self, normalize: bool = True):
        self.normalize = normalize

    def compare(self, left: str, right: str) -> float:
        return levenshtein_similarity(left, right, normalize=self.normalize)
