"""Field-wise similarity matrices over seed duplicates (DUMAS step 2).

"Two duplicates are compared field-wise using the SoftTFIDF similarity
measure, resulting in a matrix containing similarity scores for each
attribute combination.  The matrices of each duplicate are averaged, and the
maximum weight matching is computed." (paper §2.2)
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.matching.duplicate_seed import SeedPair
from repro.similarity.soft_tfidf import SoftTfIdfSimilarity

__all__ = ["FieldSimilarityMatrix", "build_field_matrix", "average_matrices"]


class FieldSimilarityMatrix:
    """A |left attributes| x |right attributes| matrix of similarity scores."""

    def __init__(
        self,
        left_attributes: Sequence[str],
        right_attributes: Sequence[str],
        scores: Optional[np.ndarray] = None,
    ):
        self.left_attributes = list(left_attributes)
        self.right_attributes = list(right_attributes)
        if scores is None:
            scores = np.zeros((len(self.left_attributes), len(self.right_attributes)))
        scores = np.asarray(scores, dtype=float)
        expected = (len(self.left_attributes), len(self.right_attributes))
        if scores.shape != expected:
            raise ValueError(f"score matrix shape {scores.shape} != {expected}")
        self.scores = scores

    def get(self, left_attribute: str, right_attribute: str) -> float:
        """Score for one attribute pair."""
        i = self.left_attributes.index(left_attribute)
        j = self.right_attributes.index(right_attribute)
        return float(self.scores[i, j])

    def set(self, left_attribute: str, right_attribute: str, score: float) -> None:
        """Set the score for one attribute pair."""
        i = self.left_attributes.index(left_attribute)
        j = self.right_attributes.index(right_attribute)
        self.scores[i, j] = score

    def copy(self) -> "FieldSimilarityMatrix":
        return FieldSimilarityMatrix(
            self.left_attributes, self.right_attributes, self.scores.copy()
        )

    def __repr__(self) -> str:
        return (
            f"FieldSimilarityMatrix({len(self.left_attributes)}x"
            f"{len(self.right_attributes)})"
        )


def build_field_matrix(
    left: Relation,
    right: Relation,
    seed: SeedPair,
    measure: Optional[Callable[[str, str], float]] = None,
) -> FieldSimilarityMatrix:
    """Compare one seed-duplicate pair field by field.

    Every non-null cell pair is scored as ``measure(left, right)``; cells
    where either value is null get score 0 — a missing value carries no
    evidence for or against a correspondence.  The default SoftTFIDF memoises
    each value's vector itself, so a measure reused across the seeds of one
    match vectorises each distinct field value once.
    """
    left_values = left.row_values(seed.left_index)
    right_values = right.row_values(seed.right_index)
    if measure is None:
        corpus = [
            "" if is_null(value) else str(value)
            for values in (left_values, right_values)
            for value in values
        ]
        measure = SoftTfIdfSimilarity(corpus=corpus)
    matrix = FieldSimilarityMatrix(left.schema.names, right.schema.names)
    right_texts = [None if is_null(value) else str(value) for value in right_values]
    for i, left_value in enumerate(left_values):
        if is_null(left_value):
            continue
        left_text = str(left_value)
        for j, right_text in enumerate(right_texts):
            if right_text is not None:
                matrix.scores[i, j] = measure(left_text, right_text)
    return matrix


def average_matrices(matrices: Sequence[FieldSimilarityMatrix]) -> FieldSimilarityMatrix:
    """Average several per-duplicate matrices into one evidence matrix.

    Using several duplicates guards against two non-corresponding attributes
    that happen to share a value in a single tuple pair (paper §2.2).
    """
    if not matrices:
        raise ValueError("cannot average zero matrices")
    first = matrices[0]
    for matrix in matrices[1:]:
        if (
            matrix.left_attributes != first.left_attributes
            or matrix.right_attributes != first.right_attributes
        ):
            raise ValueError("matrices describe different attribute sets")
    stacked = np.stack([matrix.scores for matrix in matrices])
    return FieldSimilarityMatrix(
        first.left_attributes, first.right_attributes, stacked.mean(axis=0)
    )
