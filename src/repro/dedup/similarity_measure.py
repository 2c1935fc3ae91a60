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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dedup.descriptions import AttributeSelection
from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.similarity.monge_elkan import TokenPairTable
from repro.similarity.numeric import PreparedValue, numeric_similarity, prepared_similarity

__all__ = ["PairEvidence", "DuplicateSimilarityMeasure", "ColumnarPairScorer"]


def _is_number(value) -> bool:
    """Whether a cell is an ``int`` or ``float`` (not a ``bool``): the cells
    :meth:`DuplicateSimilarityMeasure.fit` reads a numeric range from."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            # One pass over the column's distinct cells; their min and max
            # are the cells' min and max.
            values, counts, _ = relation.dictionary(attribute)
            counter: Counter = Counter()
            for value, count in zip(values, counts):
                counter[self._normalise(value)] += count
            numeric_values = [float(value) for value in values if _is_number(value)]
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
        if is_null(value):
            return 0.0
        return self.normalised_idf(attribute, self._normalise(value))

    def normalised_idf(self, attribute: str, text: str) -> float:
        """:meth:`soft_idf` of a non-null value whose ``_normalise`` form is *text*."""
        if self._row_count == 0:
            return 0.0
        counter = self._value_frequencies.get(attribute)
        if counter is None:
            return 0.5
        frequency = counter.get(text, 0) + self.soft_idf_smoothing
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

    def _attribute_similarity(self, attribute: str, left, right) -> float:
        """:meth:`_cell_similarity` of two non-null raw cells, prepared afresh."""
        return self._cell_similarity(attribute, PreparedValue(left), PreparedValue(right))

    def _cell_similarity(
        self, attribute: str, left: PreparedValue, right: PreparedValue, table=None
    ) -> float:
        """Per-attribute similarity of two prepared cells: range-scaled for
        numbers, sharpened overall.

        The one per-attribute rule of both scoring paths; the columnar scorer
        passes its per-code prepared cells and its token-pair *table*.
        """
        scale = self._numeric_scales.get(attribute)
        if scale is not None and _is_number(left.value) and _is_number(right.value):
            raw = numeric_similarity(left.number, right.number, scale=scale)
        else:
            raw = prepared_similarity(left, right, table)
        if self.sharpness == 1.0:
            return raw
        return raw ** self.sharpness

    # -- upper bound (for the filter) -------------------------------------------------

    def upper_bound(self, left: Sequence, right: Sequence) -> float:
        """Cheap estimate meant to bound :meth:`compare_rows` from above.

        Character-trigram overlap of the whole tuples, plus a constant slack:
        typo'd duplicates still share most of their trigrams.  The batch
        scorer keeps one trigram bitmask per distinct cell and per row, so
        there the estimate is far cheaper than the full comparison — this is
        the "filter (upper bound to the similarity measure)" of §2.3; this
        per-pair reference derives both rows' sets afresh on every call.  It
        is not a true bound: dates and numbers are compared by distance, not
        characters, so ``1999-12-31`` vs ``2000-01-01`` scores 0.993 but
        estimates 0.300, and ages 30 vs 31 over a range of 50 score 0.779 but
        estimate 0.633.
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

    def columnar_scorer(self, relation: Relation) -> "ColumnarPairScorer":
        """A batch pair scorer over *relation*'s fitted attributes.

        *relation* is the relation being deduplicated (row indices are its
        row indices).  The scorer's results are bit-identical to the
        per-pair reference APIs (:meth:`compare_rows` / :meth:`explain_rows`
        / :meth:`upper_bound`) — see :class:`ColumnarPairScorer`.
        """
        return ColumnarPairScorer(self, relation)

    def _row_trigrams(self, values: Sequence) -> frozenset:
        cells = (values[position] for position in self._positions.values())
        return frozenset().union(*(self._trigrams(cell) for cell in cells if not is_null(cell)))

    def _trigrams(self, value) -> frozenset:
        """The padded character trigrams of one non-null cell's normalised text."""
        padded = f"  {self._normalise(value)} "
        return frozenset(padded[i : i + 3] for i in range(len(padded) - 2))


class ColumnarPairScorer:
    """Batch pair scorer over the selected columns of one relation.

    The per-pair reference path (:meth:`DuplicateSimilarityMeasure.explain_rows`)
    re-derives everything from raw row tuples on every call: null checks, value
    normalisation, soft-IDF lookups, per-attribute similarities.  Candidate
    batches repeat all of it massively — blocking groups similar tuples, so the
    same cells and the same (value, value) pairs recur across pairs.  This
    scorer works **attribute-major** over each column's cached dictionary
    (:meth:`Relation.dictionary <repro.engine.relation.Relation.dictionary>`:
    distinct cells plus one code per row, ``-1`` for null) and memoises every
    pure leaf across the whole batch by code:

    * one ``_normalise`` text per code, which the filter's trigrams and the
      soft IDF both read;
    * one trigram bitmask per code (the upper-bound filter), over a bit table
      of the scorer's own that gives each distinct trigram one bit in
      first-seen order; a row's mask is the OR of its cells' masks, kept per
      row with its bit count, so a pair's overlap is one ``&`` and one
      ``bit_count``;
    * per-attribute ``(similarity, weight)`` per unordered ``(code, code)``
      cell pair (every leaf is symmetric bit for bit);
    * per-attribute prepared cells (:class:`~repro.similarity.numeric.PreparedValue`:
      inferred type, normalised text, tokens, parsed date) and soft-IDF
      weights, one per code, filled for the cells candidate pairs touch;
    * one scorer-wide ``(token, token)`` Jaro-Winkler table for the
      Monge-Elkan comparisons of multi-word values.

    Cells share a code only when their class and ``str()`` agree, so cells
    that are equal but print differently (``0.0`` / ``-0.0``, ``True`` /
    ``1``) never share an entry.  The tables live on the scorer only, so
    they are freed with the batch.

    **Bit-identity**: memoisation only short-circuits pure functions of the
    measure's fitted state, and the per-pair weighted accumulation runs in the
    same attribute order as ``explain_rows``, so every returned float is
    byte-identical to the per-pair loop.  Parity is asserted by
    ``tests/dedup/test_executor.py`` and bench E4's columnar series; the
    frozen pair-score fixtures pin both paths to the same bits.
    """

    def __init__(self, measure: DuplicateSimilarityMeasure, relation: Relation):
        self.measure = measure
        #: per attribute: (name, distinct cells, codes, selection weight)
        self._attributes: List[Tuple[str, List, List[int], float]] = []
        for attribute in measure._positions:
            values, _, codes = relation.dictionary(attribute)
            weight = measure.selection.weights.get(attribute, 1.0)
            self._attributes.append((attribute, values, codes, weight))
        self._pair_cells: List[Dict] = [{} for _ in self._attributes]
        #: per attribute, one lazily filled slot per code
        sizes = [len(values) for _, values, _, _ in self._attributes]
        self._cells: List[List] = [[None] * size for size in sizes]
        self._texts: List[List] = [[None] * size for size in sizes]
        self._idfs: List[List] = [[None] * size for size in sizes]
        self._masks: List[List] = [[None] * size for size in sizes]
        self._token_pairs = TokenPairTable()
        #: trigram → its bit in the masks, in first-seen order
        self._bits: Dict[str, int] = {}
        #: per row, ``(mask, mask.bit_count())`` once built
        self._row_masks: List[Optional[Tuple[int, int]]] = [None] * len(relation)

    # -- upper bound ---------------------------------------------------------------

    def upper_bound(self, left_index: int, right_index: int) -> float:
        """Bit-identical to :meth:`DuplicateSimilarityMeasure.upper_bound`: a
        mask's bit count is its row's trigram-set size, and the AND's is the
        sets' overlap."""
        left, left_size = self._row_masks[left_index] or self._row_mask(left_index)
        right, right_size = self._row_masks[right_index] or self._row_mask(right_index)
        if not left_size or not right_size:
            return 1.0
        overlap = (left & right).bit_count()
        return min(1.0, overlap / min(left_size, right_size) + 0.3)

    def _row_mask(self, index: int) -> Tuple[int, int]:
        """One row's ``(mask, bit count)``: the OR of its cells' masks, kept."""
        mask = 0
        for slot, (_, _, codes, _) in enumerate(self._attributes):
            code = codes[index]
            if code >= 0:
                mask |= self._mask(slot, code)
        row = self._row_masks[index] = (mask, mask.bit_count())
        return row

    def _mask(self, slot: int, code: int) -> int:
        """The trigram bitmask of one code's cell, built on first use."""
        masks = self._masks[slot]
        mask = masks[code]
        if mask is None:
            bits = self._bits
            padded = f"  {self._text(slot, code)} "
            mask = 0
            for start in range(len(padded) - 2):
                mask |= 1 << bits.setdefault(padded[start : start + 3], len(bits))
            masks[code] = mask
        return mask

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
        """One attribute's ``(similarity, weight)`` per pair (``None`` = missing),
        memoised per unordered cell pair: every leaf :meth:`_score_cells`
        reaches is symmetric bit for bit (integer edit distance, Monge-Elkan's
        sum of both directed means, Jaro-Winkler, ``abs`` of numeric and date
        differences, the ``max`` of two soft IDFs)."""
        codes = self._attributes[slot][2]
        pair_cells = self._pair_cells[slot]
        results: List[Optional[Tuple[float, float]]] = []
        for i, j in pairs:
            left = codes[i]
            right = codes[j]
            if left < 0 or right < 0:
                results.append(None)
                continue
            key = (left, right) if left <= right else (right, left)
            cell = pair_cells.get(key)
            if cell is None:
                cell = pair_cells[key] = self._score_cells(slot, left, right)
            results.append(cell)
        return results

    def _score_cells(self, slot: int, left: int, right: int) -> Tuple[float, float]:
        """``(similarity, weight)`` of two codes' cells of one attribute."""
        attribute, _, _, base_weight = self._attributes[slot]
        cells, idfs = self._cells[slot], self._idfs[slot]
        left_cell = cells[left] or self._cell(slot, left)
        right_cell = cells[right] or self._cell(slot, right)
        similarity = self.measure._cell_similarity(attribute, left_cell, right_cell, self._token_pairs)
        idf = max(idfs[left], idfs[right])
        return similarity, base_weight * (0.25 + 0.75 * idf)

    def _cell(self, slot: int, code: int) -> PreparedValue:
        """Prepare one code's cell and its soft IDF (on the code's first use)."""
        attribute, values, _, _ = self._attributes[slot]
        self._idfs[slot][code] = self.measure.normalised_idf(attribute, self._text(slot, code))
        cell = self._cells[slot][code] = PreparedValue(values[code])
        return cell

    def _text(self, slot: int, code: int) -> str:
        """The ``_normalise`` text of one code's cell, computed on first use."""
        texts = self._texts[slot]
        text = texts[code]
        if text is None:
            text = texts[code] = self.measure._normalise(self._attributes[slot][1][code])
        return text
