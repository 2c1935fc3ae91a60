"""Multi-relation schema matching.

"Since data fusion can take place for more than 2 relations, HumMer is able
to display correspondences simultaneously over many relations." (paper §2.2)
The demo favours the first source mentioned in the query as the preferred
schema; every other relation is matched pairwise against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.engine.relation import Relation
from repro.exceptions import InsufficientDuplicatesError
from repro.matching.correspondences import CorrespondenceSet
from repro.matching.dumas import DumasMatcher, MatchingResult
from repro.matching.duplicate_seed import SeedScoringStatistics, StatisticsMemo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedSources

__all__ = ["MultiMatchingResult", "MultiMatcher"]


@dataclass
class MultiMatchingResult:
    """Correspondences of every non-preferred relation against the preferred one."""

    preferred: str
    correspondences: CorrespondenceSet
    per_relation: Dict[str, MatchingResult] = field(default_factory=dict)
    failed_relations: List[str] = field(default_factory=list)

    def rename_mapping(self, relation_name: str) -> Dict[str, str]:
        """Old → new attribute mapping for one non-preferred relation."""
        return self.correspondences.rename_mapping(relation_name)

    def __repr__(self) -> str:
        return (
            f"MultiMatchingResult(preferred={self.preferred!r}, "
            f"{len(self.correspondences)} correspondences, "
            f"{len(self.failed_relations)} unmatched relations)"
        )


class MultiMatcher:
    """Match several relations against the first (preferred) one.

    Relations for which instance-based matching fails (no shared tuples) are
    recorded in ``failed_relations`` and optionally matched by a fallback
    matcher (e.g. the label-based baseline) instead of aborting the pipeline.
    """

    def __init__(self, matcher: Optional[DumasMatcher] = None, fallback=None):
        self.matcher = matcher or DumasMatcher()
        self.fallback = fallback

    def match(
        self,
        relations: Sequence[Relation],
        prepared: Optional["PreparedSources"] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
        scoring: Optional[SeedScoringStatistics] = None,
    ) -> MultiMatchingResult:
        """Match every relation after the first one against the first one,
        handing *prepared*, *progress_callback* and *scoring* to every
        pairwise :meth:`DumasMatcher.match`.  The pairwise matches share one
        :class:`StatisticsMemo`, so each relation's seeding statistics and
        field-corpus counts are built at most once per call."""
        if not relations:
            raise ValueError("need at least one relation")
        preferred = relations[0]
        combined = CorrespondenceSet()
        per_relation: Dict[str, MatchingResult] = {}
        failed: List[str] = []
        memo = StatisticsMemo()
        for other in relations[1:]:
            try:
                result = self.matcher.match(
                    preferred, other, prepared=prepared,
                    progress_callback=progress_callback, scoring=scoring, memo=memo,
                )
            except InsufficientDuplicatesError:
                result = None
            if result is None or len(result.correspondences) == 0:
                if self.fallback is not None:
                    fallback_set = self.fallback.match(preferred, other)
                    combined = combined.merge(fallback_set)
                    per_relation[other.name] = MatchingResult(correspondences=fallback_set)
                    continue
                failed.append(other.name or "unnamed")
                continue
            per_relation[other.name] = result
            combined = combined.merge(result.correspondences)
        return MultiMatchingResult(
            preferred=preferred.name or "preferred",
            correspondences=combined,
            per_relation=per_relation,
            failed_relations=failed,
        )
