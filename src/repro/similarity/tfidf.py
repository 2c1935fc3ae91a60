"""TF-IDF vectorisation and cosine similarity.

DUMAS treats each tuple as one string and ranks tuple pairs of the two
unaligned tables by TF-IDF cosine similarity; the top-ranked pairs are the
seed duplicates used for schema matching (paper §2.2).

The implementation is a small, self-contained vector-space model: log-scaled
term frequency, smoothed inverse document frequency, L2-normalised vectors.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import tokenize

__all__ = ["TfIdfVectorizer", "TfIdfSimilarity", "cosine_similarity", "merge_counts"]


def merge_counts(
    left: Tuple[Mapping[str, int], int], right: Tuple[Mapping[str, int], int]
) -> Tuple[Dict[str, int], int]:
    """The ``(document_frequency, document_count)`` of two corpora's concatenation.

    Frequencies add and corpus sizes add, so :meth:`TfIdfVectorizer.fit_counts`
    on the merge is bit-identical to :meth:`TfIdfVectorizer.fit` on both
    corpora.
    """
    document_frequency = dict(left[0])
    for term, frequency in right[0].items():
        document_frequency[term] = document_frequency.get(term, 0) + frequency
    return document_frequency, left[1] + right[1]


def cosine_similarity(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Cosine of two sparse vectors given as term → weight mappings."""
    if not left or not right:
        return 0.0
    if len(right) < len(left):
        left, right = right, left
    dot = sum(weight * right.get(term, 0.0) for term, weight in left.items())
    left_norm = math.sqrt(sum(weight * weight for weight in left.values()))
    right_norm = math.sqrt(sum(weight * weight for weight in right.values()))
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    return dot / (left_norm * right_norm)


class TfIdfVectorizer:
    """Fits IDF weights on a corpus of documents and turns text into sparse vectors."""

    def __init__(self, tokenizer=tokenize, smooth: bool = True):
        self.tokenizer = tokenizer
        self.smooth = smooth
        self._idf: Dict[str, float] = {}
        self._document_count = 0
        self._fitted = False

    @property
    def vocabulary(self) -> List[str]:
        """Terms seen during fitting."""
        return sorted(self._idf)

    @property
    def document_count(self) -> int:
        """Number of documents the vectoriser was fitted on."""
        return self._document_count

    @property
    def idf_table(self) -> Mapping[str, float]:
        """The fitted term → IDF table, read-only (what :meth:`weigh` reads)."""
        return MappingProxyType(self._idf)

    def fit(self, documents: Iterable[str]) -> "TfIdfVectorizer":
        """Learn IDF weights from *documents*."""
        document_frequency: Counter = Counter()
        count = 0
        for document in documents:
            count += 1
            document_frequency.update(set(self.tokenizer(document)))
        return self.fit_counts(document_frequency, count)

    def fit_counts(
        self, document_frequency: Mapping[str, int], document_count: int
    ) -> "TfIdfVectorizer":
        """Learn IDF weights from precomputed document-frequency statistics.

        *document_frequency* maps each term to the number of documents
        containing it, over a corpus of *document_count* documents.  Fitting
        from counts is **bit-identical** to :meth:`fit` on the corpus the
        counts describe: :meth:`fit` itself reduces the corpus to exactly
        these statistics before weighting, and per-term IDF is a pure
        function of ``(frequency, document_count)``.  This is what lets the
        prepared-source layer store per-source counts and merge them (counts
        add, corpus sizes add) into the exact cross-source model a fresh fit
        over the concatenated corpora would produce.
        """
        self._document_count = document_count
        self._idf = {}
        for term, frequency in document_frequency.items():
            self._idf[term] = self.idf_weight(frequency, document_count, self.smooth)
        self._fitted = True
        return self

    @staticmethod
    def idf_weight(document_frequency: int, document_count: int, smooth: bool = True) -> float:
        """Inverse document frequency of a term."""
        if smooth:
            return math.log((1 + document_count) / (1 + document_frequency)) + 1.0
        if document_frequency == 0:
            return 0.0
        return math.log(document_count / document_frequency)

    def idf(self, term: str) -> float:
        """IDF of a term (unseen terms get the weight of a singleton term)."""
        if term in self._idf:
            return self._idf[term]
        return self.idf_weight(1, max(self._document_count, 1), self.smooth)

    def transform(self, document: str) -> Dict[str, float]:
        """Turn one document into an L2-normalised TF-IDF vector."""
        return self.weigh(Counter(self.tokenizer(document)))

    def weigh(self, counts: Mapping[str, int]) -> Dict[str, float]:
        """Turn raw term counts into an L2-normalised TF-IDF vector.

        The vector keeps the order of *counts*, and the norm sums the weights
        in that order, so counts in the tokenizer's first-occurrence order
        (as :meth:`transform` and prepared seeding statistics hold them)
        give bit-identical vectors.
        """
        if not counts:
            return {}
        # read the fitted table directly; idf() only for a term it lacks
        # (a table value of 0.0 makes idf() return that same 0.0)
        fitted = self._idf.get
        log = math.log
        vector = {
            term: (1.0 + log(frequency)) * (fitted(term) or self.idf(term))
            for term, frequency in counts.items()
        }
        weights = vector.values()
        norm = math.sqrt(sum(map(operator.mul, weights, weights)))
        if norm == 0.0:
            return {}
        return {term: weight / norm for term, weight in vector.items()}

    def fit_transform(self, documents: Sequence[str]) -> List[Dict[str, float]]:
        """Fit on *documents* and return their vectors."""
        self.fit(documents)
        return [self.transform(document) for document in documents]

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity of two documents under the fitted model."""
        return cosine_similarity(self.transform(left), self.transform(right))


class TfIdfSimilarity(SimilarityMeasure):
    """Similarity measure facade over a fitted :class:`TfIdfVectorizer`.

    When constructed without a corpus the measure fits itself lazily on the
    pair being compared, which degrades gracefully to plain TF cosine.
    """

    def __init__(self, corpus: Optional[Iterable[str]] = None):
        self.vectorizer = TfIdfVectorizer()
        if corpus is not None:
            self.vectorizer.fit(corpus)
            self._fitted = True
        else:
            self._fitted = False

    def compare(self, left: str, right: str) -> float:
        vectorizer = self.vectorizer
        if not self._fitted:
            # A local throwaway fit: mutating the shared vectorizer here would
            # make a reused (or concurrently used) instance order-dependent.
            vectorizer = TfIdfVectorizer(tokenizer=self.vectorizer.tokenizer)
            vectorizer.fit([left, right])
        return vectorizer.similarity(left, right)
