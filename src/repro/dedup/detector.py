"""The duplicate detector: selection → filter → compare → classify → cluster.

Output matches the paper: "The output of duplicate detection is the same as
the input relation, but enriched by an objectID column for identification."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.dedup.blocking import BlockingSpec, resolve_blocking
from repro.dedup.classification import ClassifiedPairs, classify_pairs
from repro.dedup.graphcluster import (
    ClusteringReport,
    ClusteringSpec,
    resolve_clustering,
)
from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.filters import FilterStatistics
from repro.dedup.pairs import CandidatePairGenerator, PairScore
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.relation import Relation
from repro.engine.schema import Column
from repro.engine.types import DataType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedQueryView

__all__ = ["OBJECT_ID_COLUMN", "DuplicateDetectionResult", "DuplicateDetector"]

#: Name of the cluster-id column appended by duplicate detection.
OBJECT_ID_COLUMN = "objectID"

#: Source-label column of the transformed union (same default as the
#: candidate generator's ``source_column``); bipartite-aware clustering
#: strategies read it when present.
SOURCE_COLUMN = "sourceID"


@dataclass
class DuplicateDetectionResult:
    """Everything duplicate detection produces.

    Attributes:
        relation: the input relation enriched with the ``objectID`` column.
        cluster_assignment: objectID per input row, in row order.
        classified: pairs segmented into sure / unsure / non-duplicates.
        scores: all fully compared pairs.
        selection: the attribute selection that was used.
        filter_statistics: how many pairs each stage (blocking, cross-source
            rule, upper-bound filter) pruned.
        clustering_report: what the clustering strategy did to the accepted
            pair graph (``None`` only for results built by legacy callers).
        accept_unsure: whether undecided unsure pairs counted as duplicates
            when this result was clustered.
    """

    relation: Relation
    cluster_assignment: List[int]
    classified: ClassifiedPairs
    scores: List[PairScore]
    selection: AttributeSelection
    filter_statistics: FilterStatistics
    clustering_report: Optional[ClusteringReport] = None
    accept_unsure: bool = True

    @property
    def cluster_count(self) -> int:
        """Number of distinct real-world objects found."""
        return len(set(self.cluster_assignment))

    @property
    def duplicate_pairs(self) -> List[Tuple[int, int]]:
        """The accepted duplicate index pairs that were clustered: sure
        duplicates plus unsure pairs accepted by a decision or, undecided,
        by the :attr:`accept_unsure` rule."""
        return self.classified.accepted_pairs(accept_unsure_by_default=self.accept_unsure)

    def clusters(self) -> Dict[int, List[int]]:
        """objectID → list of row indices."""
        grouped: Dict[int, List[int]] = {}
        for index, cluster in enumerate(self.cluster_assignment):
            grouped.setdefault(cluster, []).append(index)
        return grouped

    def multi_tuple_clusters(self) -> Dict[int, List[int]]:
        """Only the clusters with more than one tuple (the actual duplicates)."""
        return {cid: rows for cid, rows in self.clusters().items() if len(rows) > 1}


class DuplicateDetector:
    """Similarity-threshold duplicate detector with pluggable pair clustering.

    Args:
        threshold: pairs at or above this similarity are duplicates.
        uncertainty_band: width of the "unsure" band below the threshold.
        use_filter: apply the upper-bound filter before full comparison.
        cross_source_only: only compare tuples from different sources.
        selection: explicit attribute selection; when omitted the heuristics
            of :func:`select_interesting_attributes` run on the input.
        accept_unsure: whether undecided unsure pairs count as duplicates in
            the fully automatic pipeline (default True).
        keep_evidence: keep per-attribute evidence on every scored pair.
        blocking: candidate-pair blocking strategy — a
            :class:`~repro.dedup.blocking.BlockingStrategy` instance, a name
            (``"allpairs"``, ``"snm"``, ``"token"``, ``"union:snm+token"``)
            or ``None`` for the exact all-pairs baseline.
        clustering: duplicate-grouping strategy — a
            :class:`~repro.dedup.graphcluster.ClusteringStrategy` instance, a
            name (``"transitive"``, ``"graph"``, ``"biclique"``) or ``None``
            for the paper's transitive-closure baseline.
    """

    def __init__(
        self,
        threshold: float = 0.7,
        uncertainty_band: float = 0.1,
        use_filter: bool = True,
        cross_source_only: bool = False,
        selection: Optional[AttributeSelection] = None,
        accept_unsure: bool = True,
        keep_evidence: bool = False,
        blocking: BlockingSpec = None,
        clustering: ClusteringSpec = None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = threshold
        self.uncertainty_band = uncertainty_band
        self.use_filter = use_filter
        self.cross_source_only = cross_source_only
        self.selection = selection
        self.accept_unsure = accept_unsure
        self.keep_evidence = keep_evidence
        self.blocking = resolve_blocking(blocking)
        self.clustering = resolve_clustering(clustering)

    def detect(
        self,
        relation: Relation,
        selection: Optional[AttributeSelection] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
        prepared: Optional["PreparedQueryView"] = None,
    ) -> DuplicateDetectionResult:
        """Run duplicate detection on *relation* and append the objectID column.

        *selection* (the wizard's adjusted step-3 selection) wins over the
        detector's own; without either, the heuristics of
        :func:`select_interesting_attributes` run on *relation*.
        *progress_callback* fires once when pair scoring completes —
        ``("pairs_scored", candidates, candidates)``.  *prepared* (a
        prepared run's view) is handed to the blocking strategy.
        """
        selection = selection or self.selection or select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        generator = CandidatePairGenerator(
            measure,
            filter_threshold=self.threshold - self.uncertainty_band,
            use_filter=self.use_filter,
            cross_source_only=self.cross_source_only,
            keep_evidence=self.keep_evidence,
            blocking=self.blocking,
            progress_callback=progress_callback,
            prepared=prepared,
        )
        scores = generator.score_pairs(relation)
        classified = classify_pairs(scores, self.threshold, self.uncertainty_band)
        return self._clustered(
            relation, classified, scores, selection, generator.filter.statistics
        )

    def redetect_with_decisions(
        self, relation: Relation, result: DuplicateDetectionResult
    ) -> DuplicateDetectionResult:
        """Re-cluster after the user decided some unsure pairs (demo step 4).

        Comparison scores are reused; only the clustering and the objectID
        column are recomputed.
        """
        return self._clustered(
            relation, result.classified, result.scores, result.selection, result.filter_statistics
        )

    def _clustered(
        self,
        relation: Relation,
        classified: ClassifiedPairs,
        scores: List[PairScore],
        selection: AttributeSelection,
        statistics: FilterStatistics,
    ) -> DuplicateDetectionResult:
        """Group the accepted pairs with the configured clustering strategy and
        append the resulting objectID column."""
        scored = classified.accepted_scored_pairs(accept_unsure_by_default=self.accept_unsure)
        edges = [(pair.left_index, pair.right_index, pair.similarity) for pair in scored]
        sources = (
            relation.column(SOURCE_COLUMN)
            if relation.schema.has_column(SOURCE_COLUMN)
            else None
        )
        clustering = self.clustering.cluster(len(relation), edges, sources)
        return DuplicateDetectionResult(
            relation=relation.with_column(
                Column(OBJECT_ID_COLUMN, DataType.INTEGER), clustering.assignment
            ),
            cluster_assignment=clustering.assignment,
            classified=classified,
            scores=scores,
            selection=selection,
            filter_statistics=statistics,
            clustering_report=clustering.report,
            accept_unsure=self.accept_unsure,
        )
