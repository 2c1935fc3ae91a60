"""The duplicate-detection similarity measure.

Paper §2.3 — tuples are compared pairwise with a measure that takes into
account:

(i)   matched vs. unmatched attributes,
(ii)  data similarity between matched attributes using edit distance and
      numerical distance functions,
(iii) the identifying power of a data item, measured by a soft version of
      IDF, and
(iv)  matched but contradictory vs. non-specified (missing) data:
      contradictory data *reduces* similarity whereas missing data has *no*
      influence.

The measure implemented here scores a pair as a weighted average over the
attributes where **both** tuples carry a value:

    sim(t1, t2) = Σ_a w_a · s_a(t1[a], t2[a]) / Σ_a w_a        (a: both present)

where ``s_a`` is the type-aware value similarity (edit distance for text,
relative distance for numbers, decay for dates) and ``w_a`` combines the
attribute weight from the selection heuristics with the *soft IDF* of the
actual values: agreeing on a rare value is strong evidence, agreeing on a
frequent value is weak evidence.  Attributes missing on either side simply do
not contribute (neutral), while attributes present on both sides but very
dissimilar pull the score down (contradiction).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dedup.descriptions import AttributeSelection
from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.numeric import (
    PreparedValue,
    numeric_similarity,
    prepared_similarity,
    value_similarity,
)

__all__ = ["PairEvidence", "DuplicateSimilarityMeasure", "ColumnarPairScorer"]


@dataclass
class PairEvidence:
    """Explanation of one pairwise comparison (used by the demo's inspection view)."""

    similarity: float
    matched_attributes: List[str] = field(default_factory=list)
    contradicting_attributes: List[str] = field(default_factory=list)
    missing_attributes: List[str] = field(default_factory=list)
    per_attribute: Dict[str, float] = field(default_factory=dict)


class DuplicateSimilarityMeasure:
    """Soft-IDF weighted, contradiction-aware tuple similarity.

    Args:
        selection: the attributes to compare (from the heuristics or the user).
        contradiction_threshold: per-attribute similarity below which two
            present values are counted as *contradicting* (pure negative
            evidence).
        soft_idf_smoothing: additive smoothing for value frequencies.
        sharpness: exponent applied to each per-attribute similarity before
            aggregation.  Raw string/numeric similarities are optimistic —
            two unrelated e-mail addresses on the same domain already score
            around 0.5 — so sharpening (> 1) stretches the gap between
            "nearly identical" and "merely similar" values and keeps chains
            of borderline pairs from over-merging in the transitive closure.
        numeric_range_fraction: a numeric difference of this fraction of the
            column's observed value range maps to similarity ``exp(-1)``;
            this replaces the relative-difference similarity, which is far
            too forgiving for narrow-range attributes such as ages.
    """

    def __init__(
        self,
        selection: AttributeSelection,
        contradiction_threshold: float = 0.25,
        soft_idf_smoothing: float = 1.0,
        sharpness: float = 2.5,
        numeric_range_fraction: float = 0.2,
    ):
        self.selection = selection
        self.contradiction_threshold = contradiction_threshold
        self.soft_idf_smoothing = soft_idf_smoothing
        self.sharpness = sharpness
        self.numeric_range_fraction = numeric_range_fraction
        self._value_frequencies: Dict[str, Counter] = {}
        self._numeric_scales: Dict[str, float] = {}
        self._row_count = 0
        self._positions: Dict[str, int] = {}
        self._trigram_cache: Dict[int, frozenset] = {}

    # -- fitting -----------------------------------------------------------------

    def fit(self, relation: Relation) -> "DuplicateSimilarityMeasure":
        """Learn value frequencies (soft IDF), numeric ranges and column positions."""
        self._row_count = len(relation)
        self._positions = {}
        self._value_frequencies = {}
        self._numeric_scales = {}
        for attribute in self.selection.attributes:
            if not relation.schema.has_column(attribute):
                continue
            position = relation.schema.position(attribute)
            self._positions[attribute] = position
            counter: Counter = Counter()
            numeric_values: List[float] = []
            # Columnar fit: one zero-copy column fetch plus its cached null
            # mask, instead of materialising every row tuple per attribute.
            column = relation.column_at(position)
            mask = relation.null_mask(attribute)
            for value, null in zip(column, mask):
                if null:
                    continue
                counter[self._normalise(value)] += 1
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    numeric_values.append(float(value))
            self._value_frequencies[attribute] = counter
            if len(numeric_values) >= 2:
                value_range = max(numeric_values) - min(numeric_values)
                if value_range > 0:
                    self._numeric_scales[attribute] = value_range * self.numeric_range_fraction
        return self

    @property
    def fitted_attributes(self) -> Tuple[str, ...]:
        """Selected attributes present in the fitted relation, in scoring order."""
        return tuple(self._positions)

    @staticmethod
    def _normalise(value) -> str:
        return str(value).strip().lower()

    def soft_idf(self, attribute: str, value) -> float:
        """Identifying power of *value* within *attribute* (soft IDF, in (0, 1]).

        Rare values approach 1, values occurring in every tuple approach 0.
        """
        if is_null(value) or self._row_count == 0:
            return 0.0
        counter = self._value_frequencies.get(attribute)
        if counter is None:
            return 0.5
        frequency = counter.get(self._normalise(value), 0) + self.soft_idf_smoothing
        total = self._row_count + self.soft_idf_smoothing
        return math.log(total / frequency) / math.log(total + 1.0)

    # -- comparison ----------------------------------------------------------------

    def compare_rows(self, left: Sequence, right: Sequence) -> float:
        """Similarity of two raw row tuples (requires :meth:`fit`)."""
        return self.explain_rows(left, right).similarity

    def explain_rows(self, left: Sequence, right: Sequence) -> PairEvidence:
        """Similarity plus per-attribute evidence for two raw row tuples."""
        weighted_sum = 0.0
        weight_total = 0.0
        evidence = PairEvidence(similarity=0.0)
        for attribute, position in self._positions.items():
            left_value = left[position]
            right_value = right[position]
            left_missing = is_null(left_value)
            right_missing = is_null(right_value)
            if left_missing or right_missing:
                # (iv) missing data has no influence on similarity
                evidence.missing_attributes.append(attribute)
                continue
            similarity = self._attribute_similarity(attribute, left_value, right_value)
            idf = max(
                self.soft_idf(attribute, left_value), self.soft_idf(attribute, right_value)
            )
            weight = self.selection.weights.get(attribute, 1.0) * (0.25 + 0.75 * idf)
            weighted_sum += weight * similarity
            weight_total += weight
            evidence.per_attribute[attribute] = similarity
            if similarity < self.contradiction_threshold:
                evidence.contradicting_attributes.append(attribute)
            else:
                evidence.matched_attributes.append(attribute)
        evidence.similarity = weighted_sum / weight_total if weight_total > 0 else 0.0
        return evidence

    def _attribute_similarity(
        self, attribute: str, left, right, values=value_similarity
    ) -> float:
        """Per-attribute similarity: range-scaled for numbers, sharpened overall.

        *values* scores the pairs that are not range-scaled; the columnar
        scorer passes :func:`value_similarity` over its memoised prepared
        cells.
        """
        both_numeric = (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and not isinstance(left, bool)
            and not isinstance(right, bool)
        )
        if both_numeric and attribute in self._numeric_scales:
            raw = numeric_similarity(float(left), float(right), scale=self._numeric_scales[attribute])
        else:
            raw = values(left, right)
        if self.sharpness == 1.0:
            return raw
        return raw ** self.sharpness

    # -- upper bound (for the filter) -------------------------------------------------

    def upper_bound(self, left: Sequence, right: Sequence) -> float:
        """Cheap estimate meant to bound :meth:`compare_rows` from above.

        Character-trigram overlap of the whole tuples, plus a constant slack:
        typo'd duplicates still share most of their trigrams.  Trigram sets
        are cached per row, so the estimate is an order of magnitude cheaper
        than the full comparison — this is the "filter (upper bound to the
        similarity measure)" of §2.3.  It is not a true bound: dates and
        numbers are compared by distance, not characters, so ``1999-12-31``
        vs ``2000-01-01`` scores 0.993 but estimates 0.300, and ages 30 vs 31
        over a range of 50 score 0.779 but estimate 0.633.
        """
        left_grams = self._row_trigrams(left)
        right_grams = self._row_trigrams(right)
        if not left_grams or not right_grams:
            return 1.0  # nothing to prune on — cannot rule the pair out
        overlap = len(left_grams & right_grams)
        smaller = min(len(left_grams), len(right_grams))
        # constant slack allows for similar-but-not-identical characters
        return min(1.0, overlap / smaller + 0.3)

    # -- batched columnar scoring ----------------------------------------------------

    def columnar_scorer(
        self,
        columns: Mapping[str, List],
        null_masks: Optional[Mapping[str, bytes]] = None,
    ) -> "ColumnarPairScorer":
        """A batch pair scorer over the fitted attributes' *columns*.

        *columns* maps each :attr:`fitted_attributes` name to its full values
        list (row-index order of the relation being deduplicated);
        *null_masks* optionally supplies the matching cached null masks.  The
        scorer's results are bit-identical to the per-pair reference APIs
        (:meth:`compare_rows` / :meth:`explain_rows` / :meth:`upper_bound`) —
        see :class:`ColumnarPairScorer`.
        """
        return ColumnarPairScorer(self, columns, null_masks)

    def _row_trigrams(self, values: Sequence) -> frozenset:
        key = None
        try:
            key = hash(tuple(values))
        except TypeError:
            key = None
        if key is not None and key in self._trigram_cache:
            return self._trigram_cache[key]
        grams = set()
        for attribute, position in self._positions.items():
            value = values[position]
            if is_null(value):
                continue
            text = self._normalise(value)
            padded = f"  {text} "
            grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
        result = frozenset(grams)
        if key is not None:
            self._trigram_cache[key] = result
        return result


class ColumnarPairScorer:
    """Batch pair scorer over the selected columns of one relation.

    The per-pair reference path (:meth:`DuplicateSimilarityMeasure.explain_rows`)
    re-derives everything from raw row tuples on every call: null checks, value
    normalisation, soft-IDF lookups, per-attribute similarities.  Candidate
    batches repeat all of it massively — blocking groups similar tuples, so the
    same cells and the same (value, value) pairs recur across pairs.  This
    scorer works **attribute-major** over zero-copy column lists and memoises
    every pure leaf across the whole batch:

    * per-row trigram sets (the upper-bound filter), keyed by row index —
      no tuple hashing;
    * per-attribute cell-pair similarities, keyed by the cell values (with
      their types, mirroring the cross-type care of ``content_key``);
    * per-attribute prepared cells (:class:`~repro.similarity.numeric.PreparedValue`:
      inferred type, normalised text, tokens, parsed date), keyed the same
      way and filled for the cells candidate pairs touch, so a cell-pair
      miss no longer re-derives per-value work;
    * one scorer-wide ``(token, token)`` Jaro-Winkler table for the
      Monge-Elkan comparisons of multi-word values;
    * per-attribute soft-IDF weights, keyed by the cell value.

    The tables live on the scorer only (never at module level), so they are
    freed with the batch.

    **Bit-identity**: memoisation only short-circuits pure functions of the
    measure's fitted state, and the per-pair weighted accumulation runs in the
    same attribute order as ``explain_rows``, so every returned float is
    byte-identical to the per-pair loop.  Parity is asserted by
    ``tests/dedup/test_executor.py`` and bench E4's columnar series; the
    frozen pair-score fixtures pin both paths to the same bits.
    """

    def __init__(
        self,
        measure: DuplicateSimilarityMeasure,
        columns: Mapping[str, List],
        null_masks: Optional[Mapping[str, bytes]] = None,
    ):
        self.measure = measure
        #: per attribute: (name, values, null mask, selection weight)
        self._attributes: List[Tuple[str, List, bytes, float]] = []
        for attribute in measure._positions:
            column = columns[attribute]
            mask = null_masks.get(attribute) if null_masks else None
            if mask is None:
                mask = bytes(1 if is_null(value) else 0 for value in column)
            weight = measure.selection.weights.get(attribute, 1.0)
            self._attributes.append((attribute, column, mask, weight))
        self._similarity_caches: List[Dict] = [{} for _ in self._attributes]
        self._cell_caches: List[Dict] = [{} for _ in self._attributes]
        self._idf_caches: List[Dict] = [{} for _ in self._attributes]
        self._token_similarities: Dict[Tuple[str, str], float] = {}
        self._trigram_sets: Dict[int, frozenset] = {}

    # -- upper bound ---------------------------------------------------------------

    def upper_bound(self, left_index: int, right_index: int) -> float:
        """Bit-identical to :meth:`DuplicateSimilarityMeasure.upper_bound`,
        with trigram sets cached per row index (no tuple hashing)."""
        left_grams = self._trigrams(left_index)
        right_grams = self._trigrams(right_index)
        if not left_grams or not right_grams:
            return 1.0
        overlap = len(left_grams & right_grams)
        smaller = min(len(left_grams), len(right_grams))
        return min(1.0, overlap / smaller + 0.3)

    def _trigrams(self, index: int) -> frozenset:
        cached = self._trigram_sets.get(index)
        if cached is not None:
            return cached
        normalise = self.measure._normalise
        grams = set()
        for _, column, mask, _ in self._attributes:
            if mask[index]:
                continue
            text = normalise(column[index])
            padded = f"  {text} "
            grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
        result = frozenset(grams)
        self._trigram_sets[index] = result
        return result

    # -- batched scoring ------------------------------------------------------------

    def similarities(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Similarity per pair, computed attribute-major over the batch."""
        per_attribute = [
            self._attribute_batch(slot, pairs) for slot in range(len(self._attributes))
        ]
        scores: List[float] = []
        for k in range(len(pairs)):
            weighted_sum = 0.0
            weight_total = 0.0
            for cells in per_attribute:
                cell = cells[k]
                if cell is None:
                    continue
                similarity, weight = cell
                weighted_sum += weight * similarity
                weight_total += weight
            scores.append(weighted_sum / weight_total if weight_total > 0 else 0.0)
        return scores

    def explain(self, pairs: Sequence[Tuple[int, int]]) -> List[PairEvidence]:
        """Per-pair :class:`PairEvidence`, attribute-major over the batch."""
        per_attribute = [
            self._attribute_batch(slot, pairs) for slot in range(len(self._attributes))
        ]
        threshold = self.measure.contradiction_threshold
        explained: List[PairEvidence] = []
        for k in range(len(pairs)):
            evidence = PairEvidence(similarity=0.0)
            weighted_sum = 0.0
            weight_total = 0.0
            for slot, cells in enumerate(per_attribute):
                attribute = self._attributes[slot][0]
                cell = cells[k]
                if cell is None:
                    evidence.missing_attributes.append(attribute)
                    continue
                similarity, weight = cell
                weighted_sum += weight * similarity
                weight_total += weight
                evidence.per_attribute[attribute] = similarity
                if similarity < threshold:
                    evidence.contradicting_attributes.append(attribute)
                else:
                    evidence.matched_attributes.append(attribute)
            evidence.similarity = weighted_sum / weight_total if weight_total > 0 else 0.0
            explained.append(evidence)
        return explained

    def _attribute_batch(
        self, slot: int, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[Tuple[float, float]]]:
        """One attribute's ``(similarity, weight)`` per pair (``None`` = missing).

        The similarity is memoised per distinct (left value, right value)
        cell pair, the prepared cell and the soft-IDF per distinct cell
        value, all keyed with the values' types so Python's cross-type
        equality (``True == 1``) cannot conflate cells that normalise
        differently.  Unhashable cells fall back to direct computation.
        """
        measure = self.measure
        attribute, column, mask, base_weight = self._attributes[slot]
        similarity_cache = self._similarity_caches[slot]
        idf_cache = self._idf_caches[slot]

        def soft_idf(value) -> float:
            return measure.soft_idf(attribute, value)

        values = self._prepared_value_similarity(self._cell_caches[slot])
        results: List[Optional[Tuple[float, float]]] = []
        for i, j in pairs:
            if mask[i] or mask[j]:
                results.append(None)
                continue
            left = column[i]
            right = column[j]
            try:
                pair_key = (left.__class__, left, right.__class__, right)
                similarity = similarity_cache.get(pair_key)
                if similarity is None:
                    similarity = measure._attribute_similarity(attribute, left, right, values)
                    similarity_cache[pair_key] = similarity
            except TypeError:  # unhashable cell value
                similarity = measure._attribute_similarity(attribute, left, right, values)
            idf = max(
                _per_value(idf_cache, left, soft_idf), _per_value(idf_cache, right, soft_idf)
            )
            weight = base_weight * (0.25 + 0.75 * idf)
            results.append((similarity, weight))
        return results

    def _prepared_value_similarity(self, cells: Dict):
        """:func:`value_similarity` of two non-null cells through *cells*,
        one attribute's prepared-cell table, and the scorer's token table."""
        token_similarity = self._token_similarity

        def similarity(left, right) -> float:
            return prepared_similarity(
                _per_value(cells, left, PreparedValue),
                _per_value(cells, right, PreparedValue),
                token_similarity,
            )

        return similarity

    def _token_similarity(self, token: str, other: str) -> float:
        """Jaro-Winkler of two tokens, memoised scorer-wide for Monge-Elkan."""
        key = (token, other)
        similarity = self._token_similarities.get(key)
        if similarity is None:
            similarity = self._token_similarities[key] = jaro_winkler_similarity(token, other)
        return similarity


def _per_value(cache: Dict, value, compute):
    """``compute(value)``, memoised in *cache* under ``(type, value)``.

    Keying with the type keeps Python's cross-type equality (``True == 1``)
    from sharing an entry; unhashable cells are computed directly.
    """
    try:
        key = (value.__class__, value)
        result = cache.get(key)
        if result is None:
            result = cache[key] = compute(value)
        return result
    except TypeError:  # unhashable cell value
        return compute(value)
