"""SoftTFIDF similarity (Cohen, Ravikumar & Fienberg, IIWeb 2003).

SoftTFIDF generalises TF-IDF cosine similarity by also crediting token pairs
that are merely *similar* (under a secondary character-based measure, by
default Jaro-Winkler) rather than identical:

    CLOSE(θ, S, T)  = tokens w ∈ S such that some v ∈ T has sim(w, v) > θ
    SoftTFIDF(S, T) = Σ_{w ∈ CLOSE} V(w, S) · V(N(w,T), T) · sim(w, N(w, T))

where ``V(w, S)`` is the normalised TF-IDF weight of ``w`` in ``S`` and
``N(w, T)`` is the most similar token of ``T``.  HumMer compares the fields
of seed duplicates with SoftTFIDF to build the attribute-correspondence
similarity matrix (paper §2.2).

The secondary measure dominates the cost of a comparison: ``_directed`` makes
O(|S|·|T|) Jaro-Winkler calls per field pair, and DUMAS compares the same
attribute values across every seed's field matrix.  Two bounded caches
memoise that repeated work: a token-pair cache for the secondary measure and,
once the instance is fitted, a per-value cache of TF-IDF vectors (cleared by
every refit).  Each cached value is a pure function of its key under the
current model, so the caches can change runtimes but never scores.  Most
token pairs cannot pass θ at all; a character-set bound on Jaro-Winkler
skips them without evaluating it (:meth:`SoftTfIdfSimilarity._secondary_similarity`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.similarity.base import SimilarityMeasure
from repro.similarity.jaro import jaro_winkler_bound, jaro_winkler_similarity
from repro.similarity.tfidf import TfIdfVectorizer

__all__ = ["SoftTfIdfSimilarity"]

#: Default bound on the memoised (token, token) secondary-similarity pairs.
DEFAULT_SECONDARY_CACHE_SIZE = 65536


class SoftTfIdfSimilarity(SimilarityMeasure):
    """SoftTFIDF with a pluggable secondary measure.

    Args:
        corpus: documents used to fit IDF weights.  When omitted, weights are
            fitted lazily on each compared pair (TF-only behaviour) using a
            local throwaway vectorizer, so a shared unfitted instance is safe
            to reuse (and parallelise) — ``compare`` never mutates ``self``.
        secondary: character-level similarity for near-matching tokens.
        threshold: minimum secondary similarity for a token pair to count as
            "close" (0.9 in the original paper).
        secondary_cache_size: bound on the entries of each cache — memoised
            token pairs of the secondary measure, and the fitted model's
            memoised value vectors (0 disables both).  Eviction is FIFO; the
            caches are transparent — they never change a score.
    """

    def __init__(
        self,
        corpus: Optional[Iterable[str]] = None,
        secondary: Callable[[str, str], float] = jaro_winkler_similarity,
        threshold: float = 0.9,
        secondary_cache_size: int = DEFAULT_SECONDARY_CACHE_SIZE,
    ):
        self.vectorizer = TfIdfVectorizer()
        self.secondary = secondary
        self.threshold = threshold
        self.secondary_cache_size = secondary_cache_size
        self._secondary_cache: Dict[Tuple[str, str], float] = {}
        self._char_sets: Dict[str, frozenset] = {}
        self._vectors: Dict[str, Dict[str, float]] = {}
        self._fitted = False
        if corpus is not None:
            self.fit(corpus)

    def fit(self, corpus: Iterable[str]) -> "SoftTfIdfSimilarity":
        """Fit IDF weights on *corpus*."""
        self.vectorizer.fit(corpus)
        self._vectors = {}
        self._fitted = True
        return self

    def fit_counts(
        self, document_frequency: Mapping[str, int], document_count: int
    ) -> "SoftTfIdfSimilarity":
        """Fit IDF weights from precomputed document-frequency statistics.

        Bit-identical to :meth:`fit` on the corpus the counts describe (see
        :meth:`TfIdfVectorizer.fit_counts`); this is how the prepared-source
        layer reconstructs the cross-relation field corpus without re-reading
        a single cell value.
        """
        self.vectorizer.fit_counts(document_frequency, document_count)
        self._vectors = {}
        self._fitted = True
        return self

    def compare(self, left: str, right: str) -> float:
        if self._fitted:
            left_vector = self._vector(left)
            right_vector = self._vector(right)
        else:
            # Local throwaway fit: refitting the shared vectorizer per pair
            # would leave a reused instance dependent on comparison order.
            vectorizer = TfIdfVectorizer(tokenizer=self.vectorizer.tokenizer)
            vectorizer.fit([left, right])
            left_vector = vectorizer.transform(left)
            right_vector = vectorizer.transform(right)
        if not left_vector or not right_vector:
            return 1.0 if not left_vector and not right_vector else 0.0

        score = self._directed(left_vector, right_vector)
        # SoftTFIDF is asymmetric in CLOSE(); use the max of both directions so
        # compare(a, b) == compare(b, a), which the matching matrix relies on.
        return min(1.0, max(score, self._directed(right_vector, left_vector)))

    def _remember(self, cache: Dict[Any, Any], key: Any, value: Any) -> Any:
        """Store *value* under *key* in a bounded FIFO cache and return it."""
        if self.secondary_cache_size > 0:
            if len(cache) >= self.secondary_cache_size:
                # FIFO eviction: dicts iterate in insertion order, so the
                # first key is the oldest entry.
                cache.pop(next(iter(cache)))
            cache[key] = value
        return value

    def _vector(self, value: str) -> Dict[str, float]:
        """The fitted model's vector of *value*, memoised until the next fit."""
        vector = self._vectors.get(value)
        if vector is None:
            vector = self._remember(self._vectors, value, self.vectorizer.transform(value))
        return vector

    def _secondary_similarity(self, left_token: str, right_token: str) -> float:
        """The secondary measure of a token pair the cache lacks, remembered;
        ``0.0`` for a Jaro-Winkler pair whose :func:`jaro_winkler_bound`
        cannot exceed θ.

        A pair skipped so is at most θ, so it neither passes ``CLOSE`` nor is
        the best match of a token that does: ``_directed`` picks the same
        ``N(w, T)`` and adds the same terms.  Jaro-Winkler and its bound are
        symmetric, so the verdict is also stored for the reversed pair, which
        the reverse ``_directed`` pass asks for.  Any other secondary is
        always evaluated and keeps one entry per ordered pair.
        """
        cache, key = self._secondary_cache, (left_token, right_token)
        if self.secondary is not jaro_winkler_similarity:
            return self._remember(cache, key, self.secondary(left_token, right_token))
        similarity = 0.0
        chars = self._chars(left_token), self._chars(right_token)
        # 1e-9: a margin for rounding, far below any gap between bound and value
        if jaro_winkler_bound(left_token, right_token, *chars) + 1e-9 > self.threshold:
            similarity = jaro_winkler_similarity(left_token, right_token)
        self._remember(cache, key, similarity)
        return self._remember(cache, (right_token, left_token), similarity)

    def _chars(self, token: str) -> frozenset:
        """The character set of *token*, memoised for the bound."""
        chars = self._char_sets.get(token)
        if chars is None:
            chars = self._remember(self._char_sets, token, frozenset(token))
        return chars

    def _directed(self, source: Dict[str, float], target: Dict[str, float]) -> float:
        total = 0.0
        cache = self._secondary_cache
        for token, source_weight in source.items():
            if token in target:
                best_token, best_similarity = token, 1.0
            else:
                best_token, best_similarity = None, 0.0
                for candidate in target:
                    similarity = cache.get((token, candidate))
                    if similarity is None:
                        similarity = self._secondary_similarity(token, candidate)
                    if similarity > best_similarity:
                        best_token, best_similarity = candidate, similarity
            if best_token is not None and best_similarity > self.threshold:
                total += source_weight * target[best_token] * best_similarity
        return total
