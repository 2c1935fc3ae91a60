"""Comparison-pruning filter.

"The number of pairwise comparisons are reduced by applying a filter (upper
bound to the similarity measure) and comparing only the remaining pairs."
(paper §2.3)

:class:`UpperBoundFilter` wraps the measure's cheap upper bound and keeps
statistics so experiment E2 can report how many full comparisons the filter
saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dedup.similarity_measure import DuplicateSimilarityMeasure

__all__ = ["FilterStatistics", "UpperBoundFilter"]


@dataclass
class FilterStatistics:
    """Counts of pairs at every pruning stage of candidate generation.

    Pairs flow through three gates, each cheaper than the next stage::

        all i<j pairs --blocking--> candidates --cross-source--> considered
                      --upper-bound filter--> compared in full

    Attributes:
        total_pairs: every ``i < j`` pair of the input relation.
        blocking_candidates: pairs proposed by the blocking strategy.
        cross_source_skipped: proposed pairs dropped because both tuples came
            from the same source (``cross_source_only``).
        considered: pairs that reached the upper-bound filter.
        pruned: pairs the upper-bound filter removed.
    """

    total_pairs: int = 0
    blocking_candidates: int = 0
    cross_source_skipped: int = 0
    considered: int = 0
    pruned: int = 0

    @property
    def compared(self) -> int:
        """Pairs that passed the filter and were fully compared."""
        return self.considered - self.pruned

    @property
    def pruning_ratio(self) -> float:
        """Fraction of considered pairs the upper-bound filter removed."""
        if self.considered == 0:
            return 0.0
        return self.pruned / self.considered

    @property
    def blocking_pruned(self) -> int:
        """Pairs the blocking strategy never proposed."""
        return max(0, self.total_pairs - self.blocking_candidates)

    @property
    def blocking_ratio(self) -> float:
        """Fraction of all pairs removed by blocking alone."""
        if self.total_pairs == 0:
            return 0.0
        return self.blocking_pruned / self.total_pairs

    def as_dict(self) -> dict:
        """All counters and ratios, for summaries and the experiment harness."""
        return {
            "total_pairs": self.total_pairs,
            "blocking_candidates": self.blocking_candidates,
            "blocking_pruned": self.blocking_pruned,
            "cross_source_skipped": self.cross_source_skipped,
            "considered": self.considered,
            "pruned": self.pruned,
            "compared": self.compared,
        }

    def reset(self) -> None:
        """Zero the counters."""
        self.total_pairs = 0
        self.blocking_candidates = 0
        self.cross_source_skipped = 0
        self.considered = 0
        self.pruned = 0


class UpperBoundFilter:
    """Prunes candidate pairs whose estimated similarity is below the threshold.

    The estimate (:meth:`DuplicateSimilarityMeasure.upper_bound`) is meant to
    over-estimate the full measure, but it is not a true bound: values that
    are close as dates or numbers yet share few characters score high and
    estimate low.  ``1999-12-31`` and ``2000-01-01`` score 0.993 with an
    estimate of 0.300, so the filter prunes a pair the full measure would
    accept; ``use_filter=False`` keeps it.
    """

    def __init__(self, measure: DuplicateSimilarityMeasure, threshold: float, enabled: bool = True):
        self.measure = measure
        self.threshold = threshold
        self.enabled = enabled
        self.statistics = FilterStatistics()

    def passes(self, left: Sequence, right: Sequence) -> bool:
        """Whether the pair survives the filter (True = compare it in full)."""
        self.statistics.considered += 1
        if not self.enabled:
            return True
        if self.measure.upper_bound(left, right) >= self.threshold:
            return True
        self.statistics.pruned += 1
        return False
