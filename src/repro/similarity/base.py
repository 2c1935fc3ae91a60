"""Similarity measure interface.

Each measure has exactly one implementation, :meth:`SimilarityMeasure.compare`;
callers that score many pairs loop over it (``measure(a, b)``).  A measure
whose comparisons share expensive per-value work memoises that work itself —
see :class:`~repro.similarity.soft_tfidf.SoftTfIdfSimilarity` — so the cache
can never make a score depend on how the pairs were batched.
"""

from __future__ import annotations

import abc

__all__ = ["SimilarityMeasure"]


class SimilarityMeasure(abc.ABC):
    """A normalised similarity between two strings: ``compare(a, b) ∈ [0, 1]``."""

    @abc.abstractmethod
    def compare(self, left: str, right: str) -> float:
        """Return the similarity of the two strings (1 = identical)."""

    def __call__(self, left: str, right: str) -> float:
        return self.compare(left, right)
