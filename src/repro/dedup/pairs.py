"""Candidate-pair generation and scoring.

A pluggable :class:`~repro.dedup.blocking.BlockingStrategy` proposes the
tuple pairs to look at (all pairs by default, sorted-neighborhood or token
blocking for near-linear scaling), the cross-source rule drops pairs whose
tuples share a source (when duplicates within one source are impossible by
assumption), the upper-bound filter prunes hopeless pairs and the survivors
are scored with the full measure, in-process (:mod:`repro.dedup.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.dedup.blocking import BlockingSpec, BlockingStrategy, resolve_blocking

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedQueryView
from repro.dedup.filters import UpperBoundFilter
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure, PairEvidence
from repro.engine.relation import Relation
from repro.engine.types import is_null

__all__ = ["PairScore", "CandidatePairGenerator"]


@dataclass
class PairScore:
    """One fully compared tuple pair."""

    left_index: int
    right_index: int
    similarity: float
    evidence: Optional[PairEvidence] = None

    def as_tuple(self) -> Tuple[int, int]:
        """The index pair, smaller index first."""
        return (self.left_index, self.right_index)


class CandidatePairGenerator:
    """Enumerates, filters and scores candidate tuple pairs.

    Args:
        measure: a fitted :class:`DuplicateSimilarityMeasure`.
        filter_threshold: threshold handed to the upper-bound filter
            (normally the duplicate threshold itself).
        use_filter: disable to measure the filter's benefit (experiment E2).
        cross_source_only: when true, tuples sharing the same ``sourceID`` are
            never paired (sources are assumed internally duplicate-free).
        keep_evidence: retain per-attribute evidence for each scored pair
            (needed by the demo's conflict preview, costs memory).
        blocking: a :class:`BlockingStrategy`, a strategy name
            (``"allpairs"``, ``"snm"``, ``"token"``, ``"union:snm+token"``)
            or ``None`` for the exact all-pairs baseline.
        progress_callback: optional ``(phase, done, total)`` callable, fired
            once when scoring completes (``("pairs_scored", candidates,
            candidates)``) — the dedup counterpart of the matcher's and
            fusion operator's intra-step progress streams.
        prepared: a prepared run's view, handed to the blocking strategy.
    """

    def __init__(
        self,
        measure: DuplicateSimilarityMeasure,
        filter_threshold: float,
        use_filter: bool = True,
        cross_source_only: bool = False,
        source_column: str = "sourceID",
        keep_evidence: bool = False,
        blocking: BlockingSpec = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
        prepared: Optional["PreparedQueryView"] = None,
    ):
        self.measure = measure
        self.filter = UpperBoundFilter(measure, filter_threshold, enabled=use_filter)
        self.cross_source_only = cross_source_only
        self.source_column = source_column
        self.keep_evidence = keep_evidence
        self.blocking: BlockingStrategy = resolve_blocking(blocking)
        self.progress_callback = progress_callback
        self.prepared = prepared

    @property
    def statistics(self):
        """The shared :class:`FilterStatistics` covering every pruning stage."""
        return self.filter.statistics

    def blocking_attributes(self, relation: Relation) -> List[str]:
        """The selected attributes present in *relation* — the blocking keys.

        Ordered by selection weight (most identifying first), so strategies
        that cap their key count work on the attributes with the highest
        identifying power.
        """
        weights = self.measure.selection.weights
        present = [
            attribute
            for attribute in self.measure.selection.attributes
            if relation.schema.has_column(attribute)
        ]
        return sorted(present, key=lambda attribute: -weights.get(attribute, 1.0))

    def candidate_indices(self, relation: Relation) -> Iterator[Tuple[int, int]]:
        """Index pairs ``i < j`` proposed by blocking and the cross-source rule."""
        size = len(relation)
        statistics = self.statistics
        statistics.total_pairs += size * (size - 1) // 2
        attributes = self.blocking_attributes(relation)
        source_values: Optional[List] = None
        if self.cross_source_only and relation.schema.has_column(self.source_column):
            # Zero-copy column fetch — the cross-source rule reads one
            # attribute, not whole row tuples.
            source_values = relation.column(self.source_column)
        for i, j in self.blocking.pairs(relation, attributes, self.prepared):
            statistics.blocking_candidates += 1
            if source_values is not None:
                left_source = source_values[i]
                right_source = source_values[j]
                if (
                    not is_null(left_source)
                    and not is_null(right_source)
                    and left_source == right_source
                ):
                    statistics.cross_source_skipped += 1
                    continue
            yield (i, j)

    def score_pairs(self, relation: Relation) -> List[PairScore]:
        """Filter and score every candidate pair of *relation*, in candidate order."""
        # imported here because the executor module imports PairScore
        from repro.dedup.executor import SerialExecutor

        return SerialExecutor().score_pairs(self, relation)
