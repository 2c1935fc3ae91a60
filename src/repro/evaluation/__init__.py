"""Evaluation metrics for the experiments (E1-E5).

* :mod:`repro.evaluation.matching_metrics` — precision / recall / F1 of
  attribute correspondences against the generator's ground truth.
* :mod:`repro.evaluation.dedup_metrics` — pairwise precision / recall / F1 of
  duplicate detection, plus cluster-level exactness.
* :mod:`repro.evaluation.fusion_metrics` — completeness, conciseness and
  correctness of a fused result (the data-fusion quality dimensions).
"""

from repro.evaluation.matching_metrics import PrecisionRecall, evaluate_correspondences
from repro.evaluation.dedup_metrics import (
    evaluate_clusters,
    evaluate_duplicate_pairs,
    pairs_from_clusters,
)
from repro.evaluation.fusion_metrics import FusionQuality, evaluate_fusion

__all__ = [
    "PrecisionRecall",
    "evaluate_correspondences",
    "evaluate_duplicate_pairs",
    "evaluate_clusters",
    "pairs_from_clusters",
    "FusionQuality",
    "evaluate_fusion",
]
