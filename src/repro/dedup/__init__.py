"""Domain-independent duplicate detection (the DogmatiX method mapped to tables).

The second HumMer phase (paper §2.3).  Given the outer-unioned table produced
by schema matching:

1. :mod:`repro.dedup.descriptions` — heuristics choose the "interesting"
   attributes worth comparing (related to the object, usable by the measure,
   likely to distinguish duplicates from non-duplicates); the selection can
   be adjusted by the user.
2. :mod:`repro.dedup.blocking`, :mod:`repro.dedup.pairs` and
   :mod:`repro.dedup.filters` — a pluggable blocking strategy proposes
   candidate tuple pairs (all pairs, sorted-neighborhood windows or a token
   inverted index) which are then pruned with a cheap upper bound on the
   similarity measure, so only promising pairs are compared in full.
   :mod:`repro.dedup.executor` scores the surviving pairs in-process.
3. :mod:`repro.dedup.similarity_measure` — the full measure accounts for
   matched vs. unmatched attributes, data similarity (edit / numeric
   distance), the identifying power of a value (soft IDF) and treats
   contradictions as negative evidence while missing data is neutral.
4. :mod:`repro.dedup.clustering` and :mod:`repro.dedup.graphcluster` — a
   pluggable clustering strategy groups the accepted pairs into object
   clusters: transitive closure (union-find, the paper's §2.3 baseline),
   a min-cut audited component clustering, or a maximal-biclique cover of
   the cross-source pair graph; every tuple receives an ``objectID``.
5. :mod:`repro.dedup.classification` — pairs are segmented into sure
   duplicates, unsure cases and sure non-duplicates for the demo's
   confirmation step.
"""

from repro.dedup.blocking import (
    AllPairsBlocking,
    BlockingStrategy,
    SortedNeighborhoodBlocking,
    TokenBlocking,
    UnionBlocking,
    resolve_blocking,
)
from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.executor import SerialExecutor
from repro.dedup.enrichment import RelationshipSpec, enrich_with_children
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure, PairEvidence
from repro.dedup.filters import UpperBoundFilter, FilterStatistics
from repro.dedup.pairs import CandidatePairGenerator, PairScore
from repro.dedup.clustering import UnionFind, transitive_closure_clusters
from repro.dedup.graphcluster import (
    BicliqueClustering,
    ClusteringReport,
    ClusteringResult,
    ClusteringStrategy,
    GraphClustering,
    TransitiveClustering,
    resolve_clustering,
)
from repro.dedup.classification import PairClass, classify_pairs, ClassifiedPairs
from repro.dedup.detector import DuplicateDetector, DuplicateDetectionResult, OBJECT_ID_COLUMN

__all__ = [
    "BlockingStrategy",
    "AllPairsBlocking",
    "SortedNeighborhoodBlocking",
    "TokenBlocking",
    "UnionBlocking",
    "resolve_blocking",
    "SerialExecutor",
    "AttributeSelection",
    "select_interesting_attributes",
    "RelationshipSpec",
    "enrich_with_children",
    "DuplicateSimilarityMeasure",
    "PairEvidence",
    "UpperBoundFilter",
    "FilterStatistics",
    "CandidatePairGenerator",
    "PairScore",
    "UnionFind",
    "transitive_closure_clusters",
    "ClusteringStrategy",
    "ClusteringReport",
    "ClusteringResult",
    "TransitiveClustering",
    "GraphClustering",
    "BicliqueClustering",
    "resolve_clustering",
    "PairClass",
    "classify_pairs",
    "ClassifiedPairs",
    "DuplicateDetector",
    "DuplicateDetectionResult",
    "OBJECT_ID_COLUMN",
]
