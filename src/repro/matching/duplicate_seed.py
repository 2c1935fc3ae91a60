"""Seed-duplicate discovery in unaligned tables (DUMAS step 1).

"DUMAS considers a tuple as one string and applies a string similarity
measure to extract the most similar tuple pairs.  From the information
retrieval field we adopt the well-known TFIDF similarity for comparing
records.  Experimental evaluation shows that the most similar tuples are in
fact duplicates." (paper §2.2)

The goal is *not* to find all duplicates — only enough high-precision seeds
for schema matching; exhaustive duplicate detection happens later in
:mod:`repro.dedup`.

Seeding is split into two halves so the prepared-source artifact layer
(:mod:`repro.prepare`) can cache the expensive half per registered source:

* :func:`compute_seed_statistics` tokenises the (sampled) tuples of **one**
  relation into flat per-document term-count arrays plus document
  frequencies — this is the only part that touches cell values, and it
  depends on nothing but the relation itself;
* :meth:`DuplicateSeeder.find_seeds` combines the statistics of the two
  relations into a **cross-source** TF-IDF model (document frequencies add,
  the corpus size is the sum) and finds the most similar pairs — cheap, and
  necessarily per query because IDF is a property of the pair of sources.

Both halves together reproduce the original single-pass computation bit for
bit: fitting one vectorizer on ``left_strings + right_strings`` is exactly
merging the two sides' document frequencies.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.similarity.tfidf import TfIdfVectorizer, cosine_similarity, merge_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedSources

__all__ = [
    "SeedPair",
    "SeedStatistics",
    "SeedScoringStatistics",
    "DuplicateSeeder",
    "tuple_to_string",
    "compute_seed_statistics",
    "sample_indices",
    "StatisticsMemo",
]

T = TypeVar("T")


def tuple_to_string(values: Sequence, exclude_positions: Sequence[int] = ()) -> str:
    """Render a tuple as a single whitespace-joined string (nulls skipped)."""
    excluded = set(exclude_positions)
    parts = []
    for position, value in enumerate(values):
        if position in excluded or is_null(value):
            continue
        parts.append(str(value))
    return " ".join(parts)


@dataclass(frozen=True)
class SeedPair:
    """A candidate duplicate across two relations, found without aligned schemata."""

    left_index: int
    right_index: int
    similarity: float


@dataclass(eq=False)
class SeedStatistics:
    """Whole-tuple TF-IDF statistics of one relation, sufficient for seeding.

    This is the per-source artifact the prepared-source layer stores: given
    the statistics of two relations, :meth:`DuplicateSeeder.find_seeds`
    reconstructs the exact cross-source TF-IDF model the original
    fit-on-both-corpora computation produced, without re-reading a single
    cell value.

    The sampled documents are stored flat: document ``d`` is the entries
    ``offsets[d]:offsets[d + 1]`` of ``terms`` (ids into ``vocabulary``)
    and ``counts``, in the first-occurrence order :func:`tokenize` produced
    them, which downstream float summation depends on; :meth:`document`
    reads one back as a mapping.

    Attributes:
        row_count: tuples in the relation the statistics describe.
        sample_limit: the ``max_tuples_per_relation`` the sample was drawn
            with (``None`` = no sampling) — statistics are only valid for a
            seeder using the same limit.
        indices: the sampled row indices (all rows when under the limit).
        vocabulary: term id → term, in first-occurrence order over the
            documents (the key order of ``document_frequency``).
        terms: the term id of every (document, term) entry (``int32``).
        counts: the raw count of every entry (``int32``).
        offsets: ``document_count + 1`` entry offsets (``int64``).
        document_frequency: term → number of sampled rows containing it.
    """

    row_count: int
    sample_limit: Optional[int]
    indices: List[int]
    vocabulary: List[str]
    terms: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    document_frequency: Dict[str, int]

    @property
    def document_count(self) -> int:
        return len(self.offsets) - 1

    def document(self, position: int) -> Dict[str, int]:
        """Sampled document *position* as term → raw count, in first-occurrence order."""
        start, end = self.offsets[position], self.offsets[position + 1]
        vocabulary = self.vocabulary
        return {
            vocabulary[term]: count
            for term, count in zip(self.terms[start:end].tolist(), self.counts[start:end].tolist())
        }


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
        raise ValueError(f"max_tuples_per_relation must be None or at least 1, got {limit!r}")


def sample_indices(size: int, limit: Optional[int]) -> List[int]:
    """Every n-th row index so at most *limit* rows are kept (all when under).

    Raises:
        ValueError: unless *limit* is ``None`` or an ``int`` of at least 1.
    """
    _check_limit(limit)
    if limit is None or size <= limit:
        return list(range(size))
    step = max(1, size // limit)
    return list(range(0, size, step))[:limit]


def compute_seed_statistics(
    relation: Relation, sample_limit: Optional[int]
) -> SeedStatistics:
    """Tokenise the (sampled) tuples of *relation* into seeding statistics.

    This is the expensive, per-source half of seed discovery; the result
    depends only on the relation content and *sample_limit*, so it can be
    built once per registered source and reused across queries.

    A row's tokens are its non-null cells' tokens, concatenated in column
    order, each distinct cell of a column's dictionary turned into term ids
    once, from the column's cached tokens of that cell
    (:meth:`~repro.engine.columnar.ColumnData.cell_tokens`: only the sampled
    rows' cells are tokenised here).  That equals
    ``tokenize(tuple_to_string(row))``: tokens are ``[a-z0-9]+`` runs over a
    normalisation that maps character by character, the joining space ends
    every run, and NFKD reordering cannot cross it.  A document's repeated
    terms become one entry at the first occurrence's position, so every
    document keeps the first-occurrence order, and term ids are assigned in
    first-occurrence order over the whole sample.
    """
    indices = sample_indices(len(relation), sample_limit)
    columns = [(column, column.dictionary[2]) for column in relation.store.columns]
    cell_terms: List[List] = [[None] * len(column.dictionary[0]) for column, _ in columns]
    vocabulary: Dict[str, int] = {}
    stream: List[int] = []
    lengths: List[int] = []
    for index in indices:
        start = len(stream)
        for (column, codes), terms in zip(columns, cell_terms):
            code = codes[index]
            if code < 0:
                continue
            ids = terms[code]
            if ids is None:
                ids = terms[code] = [
                    vocabulary.setdefault(token, len(vocabulary))
                    for token in column.cell_tokens(code)
                ]
            stream += ids
        lengths.append(len(stream) - start)
    # one entry per distinct (document, term) key, ordered by the key's first
    # position in the stream and counting its occurrences
    size = max(len(vocabulary), 1)
    keys = np.repeat(np.arange(len(indices), dtype=np.int64) * size, lengths)
    keys += np.array(stream, dtype=np.int64)
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # stable: the sort np.unique runs, so no second sort kernel is paged in
    order = np.argsort(first, kind="stable")
    documents, terms = np.divmod(keys[order], size)
    offsets = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(np.bincount(documents, minlength=len(indices)), out=offsets[1:])
    frequency = np.bincount(terms, minlength=len(vocabulary))
    return SeedStatistics(
        row_count=len(relation),
        sample_limit=sample_limit,
        indices=indices,
        vocabulary=list(vocabulary),
        terms=terms.astype(np.int32),
        counts=counts[order].astype(np.int32),
        offsets=offsets,
        document_frequency=dict(zip(vocabulary, frequency.tolist())),
    )


#: δ: every pair whose approximate cosine lies within δ of the k-th best
#: approximate value gets its exact cosine.  The two cosines differ by
#: ε ≲ 1e-14 (see :meth:`DuplicateSeeder.find_seeds`), so δ ≥ 2ε with five
#: orders of magnitude to spare.
_BAND = 1e-9

#: The most (left entry × right posting) products, and the most left rows ×
#: right documents, that one block of left documents sums at once (a block
#: holds at least one row).  It bounds the transient arrays, a few machine
#: words per product and per cell, for any input size.
_BLOCK_BUDGET = 1 << 14


@dataclass
class SeedScoringStatistics:
    """Observability counters of one :meth:`DuplicateSeeder.find_seeds` call.

    ``candidate_count`` counts the term-sharing pairs whose approximate
    cosine reached ``min_similarity − δ``; ``scored_count`` counts the exact
    cosines computed, one per pair within δ of the k-th best approximate
    value, so it is at most ``candidate_count``.
    """

    candidate_count: int = 0
    scored_count: int = 0

    @property
    def pruned_count(self) -> int:
        """Candidates outside the band, whose exact cosine was never computed."""
        return self.candidate_count - self.scored_count

    @property
    def scored_fraction(self) -> float:
        """Fraction of candidates whose exact cosine was computed."""
        if self.candidate_count == 0:
            return 1.0
        return self.scored_count / self.candidate_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "seed_candidates": self.candidate_count,
            "seed_cosines": self.scored_count,
            "seed_pruned": self.pruned_count,
            "seed_scored_fraction": self.scored_fraction,
        }


class StatisticsMemo:
    """Per-relation statistics built at most once while the memo lives.

    A multi-relation match pairs the preferred relation with every other
    relation, and each pairwise match needs both sides' seeding statistics
    and field-corpus counts; one memo per :meth:`MultiMatcher.match
    <repro.matching.multi.MultiMatcher.match>` call builds the preferred
    relation's once instead of once per pair.  Entries are keyed by relation
    identity and hold the relation, so an id cannot be reused under them.
    """

    def __init__(self) -> None:
        self._built: Dict[Tuple[Any, ...], Tuple[Relation, Any]] = {}

    def get(self, build: Callable[..., T], relation: Relation, *args: Any) -> T:
        """``build(relation, *args)``, built on the first request only."""
        key = (build, id(relation), *args)
        entry = self._built.get(key)
        if entry is None:
            entry = self._built[key] = (relation, build(relation, *args))
        return entry[1]


class DuplicateSeeder:
    """Finds the top-k most similar cross-table tuple pairs by whole-tuple TF-IDF.

    Args:
        max_seeds: how many seed pairs to return (the k of top-k).
        min_similarity: pairs below this cosine similarity are never returned,
            even if fewer than *max_seeds* pairs qualify.
        max_tuples_per_relation: optional cap (``None`` or at least 1);
            larger relations are sampled by taking every n-th tuple, keeping
            the seeding cost bounded (the efficiency point the DUMAS paper
            makes).

    Returned seeds are ordered by the documented, stable sort
    ``(similarity desc, left_index asc, right_index asc)``; ties at the
    ``max_seeds`` boundary are broken the same way, so equal-similarity seeds
    can never reorder (or swap in and out of the top-k) between runs.
    """

    def __init__(
        self,
        max_seeds: int = 10,
        min_similarity: float = 0.25,
        max_tuples_per_relation: Optional[int] = 500,
    ):
        if max_seeds < 1:
            raise ValueError("max_seeds must be at least 1")
        _check_limit(max_tuples_per_relation)
        self.max_seeds = max_seeds
        self.min_similarity = min_similarity
        self.max_tuples_per_relation = max_tuples_per_relation
        #: Counters of the most recent :meth:`find_seeds` call.
        self.last_scoring: Optional[SeedScoringStatistics] = None

    def statistics_for(
        self, relation: Relation, prepared=None, memo: Optional[StatisticsMemo] = None
    ) -> SeedStatistics:
        """Seeding statistics for *relation* — from *prepared* when valid,
        else built (once per *memo*, when one is given)."""
        if prepared is not None:
            statistics = prepared.seed_statistics(relation, self.max_tuples_per_relation)
            if (
                statistics is not None
                and statistics.row_count == len(relation)
                and statistics.sample_limit == self.max_tuples_per_relation
            ):
                return statistics
        if memo is not None:
            return memo.get(compute_seed_statistics, relation, self.max_tuples_per_relation)
        return compute_seed_statistics(relation, self.max_tuples_per_relation)

    def find_seeds(
        self,
        left: Relation,
        right: Relation,
        prepared: Optional["PreparedSources"] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
        scoring: Optional[SeedScoringStatistics] = None,
        memo: Optional[StatisticsMemo] = None,
    ) -> List[SeedPair]:
        """Return the top seed pairs between *left* and *right*, best first.

        *prepared* (the run's :class:`PreparedSources`) serves both sides'
        statistics, and *memo* keeps the ones built here for later calls;
        *progress_callback* gets ``("seeds_scored", done, total)`` per left
        tuple; this call's counters are added to *scoring* and held alone by
        :attr:`last_scoring`.

        Two stages find the seeds.  First an *approximate* cosine is summed
        with numpy for every pair of documents sharing a term, in bounded
        blocks of left documents (:func:`_band`); it keeps the pairs within
        δ (:data:`_BAND`) of the k-th best approximate value.  Then only
        those pairs get the exact cosine — :meth:`TfIdfVectorizer.weigh` over
        each document's terms in first-occurrence order, then
        :func:`cosine_similarity` — and the top k exact values are returned.

        Why the answer is exact, bit for bit the full scan's:

        * The approximate and the exact cosine of a pair differ by some
          ε ≲ 1e-14.  Each is a sum of at most a few dozen products of
          unit-normalised weights (one per shared term), and the two differ
          only by ulp-level rounding in ``log``, in the norms and in the
          order of summation.  δ = 1e-9 ≥ 2ε.
        * A pair whose exact cosine is ≥ ``min_similarity`` has an
          approximate cosine ≥ ``min_similarity − ε``, so the first filter,
          ``≥ min_similarity − δ``, keeps it.
        * Let ``A`` be the k-th largest approximate value.  A pair outside
          the band (approximate < ``A − δ``) has an exact cosine
          < ``A − δ + ε``.  Each of the k best-approximated pairs has an
          exact cosine ≥ ``A − ε``, which is larger since δ ≥ 2ε.  So if
          the outside pair qualifies at all, k qualifying pairs beat it, and
          it cannot enter the top k.
        * A block's k-th largest value is at most ``A``, so no block drops
          a band pair.

        The top k of the band's exact values under the total order
        ``(similarity desc, left asc, right asc)`` is therefore the top k
        of all pairs.
        """
        left_stats = self.statistics_for(left, prepared, memo)
        right_stats = self.statistics_for(right, prepared, memo)

        # Cross-source IDF: fitting one vectorizer on both corpora is exactly
        # adding the two document-frequency tables over the summed corpus size.
        vectorizer = TfIdfVectorizer().fit_counts(*merge_counts(
            (left_stats.document_frequency, left_stats.document_count),
            (right_stats.document_frequency, right_stats.document_count),
        ))
        counters = SeedScoringStatistics()
        self.last_scoring = counters
        band = _band(
            left_stats, right_stats, vectorizer.idf_table, self.max_seeds,
            self.min_similarity, counters, progress_callback,
        )

        weigh = vectorizer.weigh
        left_vectors: Dict[int, Dict[str, float]] = {}
        right_vectors: Dict[int, Dict[str, float]] = {}
        ranked: List[Tuple[float, int, int]] = []
        for left_position, right_position in band:
            left_vector = left_vectors.get(left_position)
            if left_vector is None:
                left_vector = left_vectors[left_position] = weigh(
                    left_stats.document(left_position)
                )
            right_vector = right_vectors.get(right_position)
            if right_vector is None:
                right_vector = right_vectors[right_position] = weigh(
                    right_stats.document(right_position)
                )
            similarity = cosine_similarity(left_vector, right_vector)
            if similarity >= self.min_similarity:
                ranked.append((-similarity, left_position, right_position))
        counters.scored_count = len(band)
        if scoring is not None:
            scoring.candidate_count += counters.candidate_count
            scoring.scored_count += counters.scored_count

        ranked.sort()
        return [
            SeedPair(
                left_index=left_stats.indices[left_position],
                right_index=right_stats.indices[right_position],
                similarity=-negated,
            )
            for negated, left_position, right_position in ranked[: self.max_seeds]
        ]


def _unit_weights(
    statistics: SeedStatistics, idf: Mapping[str, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every entry's approximate weight ``(1 + log tf) · idf``, L2-normalised
    per document, and every entry's document position."""
    table = np.fromiter(
        map(idf.__getitem__, statistics.vocabulary), np.float64, len(statistics.vocabulary)
    )
    weights = (1.0 + np.log(statistics.counts)) * table[statistics.terms]
    documents = np.repeat(
        np.arange(statistics.document_count), np.diff(statistics.offsets)
    )
    norms = np.sqrt(
        np.bincount(documents, weights=weights * weights, minlength=statistics.document_count)
    )
    return weights / norms[documents], documents


def _top_band(values: np.ndarray, count: int) -> np.ndarray:
    """Positions of the *values* within δ of their *count*-th largest (all
    of them when there are no more than *count*)."""
    if len(values) <= count:
        return np.arange(len(values))
    # few values: heapq spares paging in numpy's selection kernel (~0.3 MB)
    kth = heapq.nlargest(count, values.tolist())[-1]
    return np.flatnonzero(values >= kth - _BAND)


def _band(
    left: SeedStatistics,
    right: SeedStatistics,
    idf: Mapping[str, float],
    max_seeds: int,
    min_similarity: float,
    counters: SeedScoringStatistics,
    progress_callback: Optional[Callable[[str, int, int], None]],
) -> List[Tuple[int, int]]:
    """The (left, right) document positions of the pairs whose approximate
    cosine is at least ``min_similarity − δ`` and within δ of the k-th best.

    Only terms present on both sides reach a dot product, so only their
    weights are kept: the right side's as postings grouped by term, the
    left side's as entries.  The left documents are cut into blocks whose
    entry × posting products and rows × right documents both stay within
    :data:`_BLOCK_BUDGET`; per block one :func:`numpy.bincount` over the
    products sums the rows × right approximate cosines, of which the pairs
    within δ of the block's k-th best survive.  Counts the candidates into
    *counters*.
    """
    left_count, right_count = left.document_count, right.document_count
    left_ids = dict(zip(left.vocabulary, range(len(left.vocabulary))))
    right_to_left = np.fromiter(
        map(left_ids.get, right.vocabulary, repeat(-1)), np.int64, len(right.vocabulary)
    )
    left_weights, left_documents = _unit_weights(left, idf)
    right_weights, right_documents = _unit_weights(right, idf)

    # postings: the right entries of shared terms, grouped by left term id
    posting_terms = right_to_left[right.terms]
    shared = posting_terms >= 0
    posting_terms = posting_terms[shared]
    order = np.argsort(posting_terms, kind="stable")
    posting_documents = right_documents[shared][order]
    posting_weights = right_weights[shared][order]
    posting_lengths = np.bincount(posting_terms, minlength=len(left.vocabulary))
    posting_starts = np.cumsum(posting_lengths) - posting_lengths

    # entries: the left entries of shared terms, document by document
    products = posting_lengths[left.terms]
    shared = products > 0
    entry_terms = left.terms[shared]
    entry_weights = left_weights[shared]
    entry_rows = left_documents[shared]
    products = products[shared]
    entry_offsets = np.zeros(left_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_rows, minlength=left_count), out=entry_offsets[1:])
    product_offsets = np.concatenate(([0], np.cumsum(products)))[entry_offsets].tolist()

    lower = min_similarity - _BAND
    rows_per_block = max(1, _BLOCK_BUDGET // max(right_count, 1))
    kept_values: List[np.ndarray] = []
    kept_cells: List[np.ndarray] = []
    start = 0
    while start < left_count:
        stop = bisect_right(product_offsets, product_offsets[start] + _BLOCK_BUDGET) - 1
        stop = min(max(stop, start + 1), start + rows_per_block, left_count)
        first, last = entry_offsets[start], entry_offsets[stop]
        if last > first:
            # one product per (entry, posting): its posting is the entry's
            # first posting plus its rank; few arrays are alive at a time
            lengths = products[first:last]
            postings = np.repeat(
                posting_starts[entry_terms[first:last]] - (np.cumsum(lengths) - lengths), lengths
            )
            postings += np.arange(len(postings))
            weights = np.repeat(entry_weights[first:last], lengths)
            weights *= posting_weights[postings]
            cells = posting_documents[postings]
            del postings
            cells += np.repeat((entry_rows[first:last] - start) * right_count, lengths)
            cosines = np.bincount(cells, weights=weights, minlength=(stop - start) * right_count)
            del cells, weights
            # a pair sharing a term has a positive cosine: weights are positive
            hits = np.flatnonzero(cosines >= lower if lower > 0.0 else cosines > 0.0)
            counters.candidate_count += len(hits)
            values = cosines[hits]
            near = _top_band(values, max_seeds)
            kept_values.append(values[near])
            kept_cells.append(hits[near] + start * right_count)
        if progress_callback is not None:
            for done in range(start + 1, stop + 1):
                progress_callback("seeds_scored", done, left_count)
        start = stop
    if not kept_values:
        return []
    values = np.concatenate(kept_values)
    cells = np.concatenate(kept_cells)[_top_band(values, max_seeds)]
    left_positions, right_positions = np.divmod(cells, right_count)
    return list(zip(left_positions.tolist(), right_positions.tolist()))
