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
  relation into per-document term counts plus document frequencies — this is
  the only part that touches cell values, and it depends on nothing but the
  relation itself;
* :meth:`DuplicateSeeder.find_seeds` combines the statistics of the two
  relations into a **cross-source** TF-IDF model (document frequencies add,
  the corpus size is the sum) and scores candidate pairs — cheap, and
  necessarily per query because IDF is a property of the pair of sources.

Both halves together reproduce the original single-pass computation bit for
bit: fitting one vectorizer on ``left_strings + right_strings`` is exactly
merging the two sides' document frequencies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.similarity.tfidf import TfIdfVectorizer, cosine_similarity, merge_counts
from repro.similarity.tokenize import tokenize

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

    def __lt__(self, other: "SeedPair") -> bool:  # heap ordering
        return self.similarity < other.similarity


@dataclass
class SeedStatistics:
    """Whole-tuple TF-IDF statistics of one relation, sufficient for seeding.

    This is the per-source artifact the prepared-source layer stores: given
    the statistics of two relations, :meth:`DuplicateSeeder.find_seeds`
    reconstructs the exact cross-source TF-IDF model the original
    fit-on-both-corpora computation produced, without re-reading a single
    cell value.

    Attributes:
        row_count: tuples in the relation the statistics describe.
        sample_limit: the ``max_tuples_per_relation`` the sample was drawn
            with (``None`` = no sampling) — statistics are only valid for a
            seeder using the same limit.
        indices: the sampled row indices (all rows when under the limit).
        documents: per sampled row, term → raw count in first-occurrence
            order (the order :func:`tokenize` produced, which downstream
            float summation depends on).
        document_frequency: term → number of sampled rows containing it.
    """

    row_count: int
    sample_limit: Optional[int]
    indices: List[int] = field(default_factory=list)
    documents: List[Dict[str, int]] = field(default_factory=list)
    document_frequency: Dict[str, int] = field(default_factory=dict)

    @property
    def document_count(self) -> int:
        return len(self.documents)


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
    order, each distinct cell of a column's dictionary tokenised once.  That
    equals ``tokenize(tuple_to_string(row))``: tokens are ``[a-z0-9]+`` runs
    over a normalisation that maps character by character, the joining
    space ends every run, and NFKD reordering cannot cross it.
    """
    indices = sample_indices(len(relation), sample_limit)
    columns = [relation.dictionary(name) for name in relation.column_names]
    cell_tokens: List[List] = [[None] * len(values) for values, _, _ in columns]
    documents: List[Dict[str, int]] = []
    document_frequency: Dict[str, int] = {}
    for index in indices:
        counts: Dict[str, int] = {}
        for (values, _, codes), tokens in zip(columns, cell_tokens):
            code = codes[index]
            if code < 0:
                continue
            if tokens[code] is None:
                tokens[code] = tokenize(str(values[code]))
            for token in tokens[code]:
                counts[token] = counts.get(token, 0) + 1
        documents.append(counts)
        for term in counts:
            document_frequency[term] = document_frequency.get(term, 0) + 1
    return SeedStatistics(
        row_count=len(relation),
        sample_limit=sample_limit,
        indices=indices,
        documents=documents,
        document_frequency=document_frequency,
    )


#: Relative slack on the pruning upper bound.  The bound and the cosine are
#: summed in different term orders and the cosine divides by norms that are
#: only ≈ 1.0, so the two can disagree by a few ulps (~1e-14 relative);
#: 1e-9 keeps the bound strictly conservative with five orders of magnitude
#: of margin while pruning essentially nothing less.
_BOUND_SLACK = 1e-9


@dataclass
class SeedScoringStatistics:
    """Observability counters of one :meth:`DuplicateSeeder.find_seeds` call.

    ``candidate_count`` counts the pairs the scan examined: without pruning
    every posting-sharing pair (pairs with at least one common term), with
    pruning only the pairs the essential terms proposed.  ``scored_count``
    counts the cosines actually computed.  The full scan scores every pair
    it examines, so there the two are equal.
    """

    candidate_count: int = 0
    scored_count: int = 0

    @property
    def pruned_count(self) -> int:
        """Examined candidates skipped because their upper bound was below the floor."""
        return self.candidate_count - self.scored_count

    @property
    def scored_fraction(self) -> float:
        """Fraction of examined candidates whose cosine was computed."""
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
        prune: skip cosines for candidates whose per-term max-weight upper
            bound is provably below the current top-k floor (and below
            *min_similarity*).  Exact — the returned seeds are identical to
            the full scan (see ``docs/matching.md`` for the bound); disable
            only to measure, or to reproduce, the unpruned scan.

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
        prune: bool = True,
    ):
        if max_seeds < 1:
            raise ValueError("max_seeds must be at least 1")
        _check_limit(max_tuples_per_relation)
        self.max_seeds = max_seeds
        self.min_similarity = min_similarity
        self.max_tuples_per_relation = max_tuples_per_relation
        self.prune = prune
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
        """
        left_stats = self.statistics_for(left, prepared, memo)
        right_stats = self.statistics_for(right, prepared, memo)

        # Cross-source IDF: fitting one vectorizer on both corpora is exactly
        # adding the two document-frequency tables over the summed corpus size.
        merged = merge_counts(
            (left_stats.document_frequency, left_stats.document_count),
            (right_stats.document_frequency, right_stats.document_count),
        )
        weigh = TfIdfVectorizer().fit_counts(*merged).weigh
        left_vectors = [weigh(counts) for counts in left_stats.documents]
        right_vectors = [weigh(counts) for counts in right_stats.documents]

        # Invert the right-hand vectors so only pairs sharing at least one
        # term are scored (sparse dot products), instead of all |L| x |R|.
        # The per-term maximum weight over the right vectors feeds the
        # pruning upper bound.
        postings: dict = {}
        max_weight: Dict[str, float] = {}
        for position, vector in enumerate(right_vectors):
            for term, weight in vector.items():
                postings.setdefault(term, set()).add(position)
                if weight > max_weight.get(term, 0.0):
                    max_weight[term] = weight

        counters = SeedScoringStatistics()
        self.last_scoring = counters

        # Min-heap of the current top-k under the key (similarity asc,
        # left desc, right desc): the root is the *worst* entry — lowest
        # similarity, and among equals the largest positions — so smaller
        # indices win ties at the boundary, deterministically.
        heap: List[Tuple[float, int, int]] = []
        total_left = len(left_vectors)
        for left_position, left_vector in enumerate(left_vectors):
            if self.prune:
                self._score_pruned(left_position, left_vector, right_vectors,
                                   postings, max_weight, heap, counters)
            else:
                candidates = set()
                for term in left_vector:
                    candidates.update(postings.get(term, ()))
                counters.candidate_count += len(candidates)
                counters.scored_count += len(candidates)
                for right_position in candidates:
                    similarity = cosine_similarity(
                        left_vector, right_vectors[right_position]
                    )
                    if similarity < self.min_similarity:
                        continue
                    entry = (similarity, -left_position, -right_position)
                    if len(heap) < self.max_seeds:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
            if progress_callback is not None:
                progress_callback("seeds_scored", left_position + 1, total_left)
        if scoring is not None:
            scoring.candidate_count += counters.candidate_count
            scoring.scored_count += counters.scored_count

        pairs = [
            SeedPair(
                left_index=left_stats.indices[-negated_left],
                right_index=right_stats.indices[-negated_right],
                similarity=similarity,
            )
            for similarity, negated_left, negated_right in heap
        ]
        pairs.sort(key=lambda pair: (-pair.similarity, pair.left_index, pair.right_index))
        return pairs

    def _floor(self, heap: List[Tuple[float, int, int]]) -> float:
        """The similarity a new seed must reach: ``min_similarity`` until the
        top-k is full, then also the worst entry's similarity."""
        if len(heap) < self.max_seeds:
            return self.min_similarity
        return max(self.min_similarity, heap[0][0])

    def _score_pruned(
        self,
        left_position: int,
        left_vector: Dict[str, float],
        right_vectors: List[Dict[str, float]],
        postings: Dict[str, set],
        max_weight: Dict[str, float],
        heap: List[Tuple[float, int, int]],
        scoring: SeedScoringStatistics,
    ) -> None:
        """Score one left tuple's candidates under max-weight upper bounds.

        Each shared term ``t`` contributes at most ``L[t] · max_weight[t]``
        to a cosine: both vectors are L2-normalised, so ``cos(L, R) =
        Σ_{t ∈ L∩R} L[t]·R[t] ≤ bound(R) = Σ_{t ∈ L∩R} L[t]·max_weight[t]``.

        MaxScore (Turtle & Flood, 1995) splits the terms: the longest run of
        the cheapest ones whose contributions sum below the floor cannot
        lift a candidate to it on their own, so only the other, *essential*
        terms propose candidates.  The cheap terms' contributions are then
        added to those candidates by membership tests on their postings.
        The candidates whose bound clears the floor are scored
        best-bound-first — the heap floor rises as early as possible — and
        once a bound falls strictly below the floor, every remaining
        candidate is provably outside the top-k and below
        ``min_similarity``, so the scan stops.

        Strict ``<`` against the floor is load-bearing twice: a candidate
        whose similarity *equals* the heap root's can still enter on the
        index tiebreak, and a similarity equal to ``min_similarity`` is kept
        by the full scan (which only skips ``< min_similarity``).  The full
        scan and this path therefore select the same top-k — the top-k under
        the total order ``(similarity, -left, -right)`` is independent of
        processing order.
        """
        floor = self._floor(heap)
        contributions = sorted(
            (
                (weight * max_weight[term], term)
                for term, weight in left_vector.items()
                if term in max_weight
            ),
            key=itemgetter(0),
        )
        cheap_terms = 0
        cheap_sum = 0.0
        for contribution, _ in contributions:
            if (cheap_sum + contribution) * (1.0 + _BOUND_SLACK) >= floor:
                break
            cheap_sum += contribution
            cheap_terms += 1
        bounds: Dict[int, float] = {}
        for contribution, term in contributions[cheap_terms:]:
            for right_position in postings[term]:
                bounds[right_position] = bounds.get(right_position, 0.0) + contribution
        for contribution, term in contributions[:cheap_terms]:
            posting = postings[term]
            for right_position in bounds:
                if right_position in posting:
                    bounds[right_position] += contribution
        scoring.candidate_count += len(bounds)
        candidates = sorted(
            (item for item in bounds.items() if item[1] * (1.0 + _BOUND_SLACK) >= floor),
            key=lambda item: (-item[1], item[0]),
        )
        for right_position, bound in candidates:
            if bound * (1.0 + _BOUND_SLACK) < self._floor(heap):
                # Bounds are descending and the floor only rises: every
                # remaining candidate is below it too.
                break
            scoring.scored_count += 1
            similarity = cosine_similarity(left_vector, right_vectors[right_position])
            if similarity < self.min_similarity:
                continue
            entry = (similarity, -left_position, -right_position)
            if len(heap) < self.max_seeds:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
