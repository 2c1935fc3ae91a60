"""The HumMer fusion pipeline (Fig. 2 of the paper): its components and its steps.

The six wizard steps are modelled as an explicit, inspectable pipeline:

1. *Choose sources* — fetch the relational form of each alias from the
   catalog.
2. *Adjust matching* — instance-based schema matching proposes attribute
   correspondences; the caller may add/remove correspondences before
   continuing.
3. *Adjust duplicate definition* — heuristics select the "interesting"
   attributes; the caller may add/remove attributes.
4. *Confirm duplicates* — duplicate detection classifies pairs into sure /
   unsure / non-duplicates; the caller may decide unsure pairs.
5. *Specify resolution functions* — conflicts are sampled; the fusion spec
   (per-column resolution functions) is applied.
6. *Browse result set* — the clean, consistent result with value lineage.

Each step is defined exactly once, as a function of the running
:class:`~repro.core.session.FusionSession` in :data:`WIZARD_STEPS`; the
session's :meth:`~repro.core.session.FusionSession.advance` dispatches to
them one at a time (see :mod:`repro.core.session`).  :class:`FusionPipeline`
is the bundle of ready components those steps read, and
:meth:`FusionPipeline.run` — the "usual case" of the paper — advances one
session to completion.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.baselines.name_matcher import NameBasedMatcher
from repro.core.conflicts import ConflictReport, find_conflicts
from repro.core.fusion import FusionOperator, FusionResult, FusionSpec
from repro.core.resolution.base import ResolutionRegistry, default_registry
from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.detector import DuplicateDetectionResult, DuplicateDetector, OBJECT_ID_COLUMN
from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.exceptions import HummerError
from repro.matching.correspondences import CorrespondenceSet
from repro.matching.dumas import DumasMatcher
from repro.matching.duplicate_seed import SeedScoringStatistics
from repro.matching.multi import MultiMatcher, MultiMatchingResult
from repro.matching.transform import transform_sources
from repro.prepare import FIELD_KIND, SourcePreparer
from repro.prepare.artifacts import SEED_KIND

if TYPE_CHECKING:
    from repro.core.session import FusionSession

__all__ = ["PipelineTimings", "PipelineResult", "WizardStep", "WIZARD_STEPS", "FusionPipeline"]

#: The artifact kinds the matching phase consumes — the ``match`` slice of
#: the reuse/rebuild counters in :meth:`PipelineResult.summary`.
MATCH_ARTIFACT_KINDS = (SEED_KIND, FIELD_KIND)


@dataclass
class PipelineTimings:
    """Wall-clock seconds spent in each phase (experiment E4).

    Each phase sums the per-step clock readings (``StageEvent.seconds``) of
    the steps whose :data:`WIZARD_STEPS` row names it — the transform runs
    in ``attribute_selection`` and so counts toward ``duplicate_detection``.
    ``prepare`` is the artifact build/validate pass of a prepared run (an
    unprepared run has no prepare phase: it stays ``0.0``).  On a warm run
    over unchanged sources it collapses to digest validation, and the
    matching / candidate-generation shares of the later phases shrink
    because they merge prepared artifacts instead of recomputing.
    """

    fetch: float = 0.0
    prepare: float = 0.0
    matching: float = 0.0
    duplicate_detection: float = 0.0
    fusion: float = 0.0

    @property
    def total(self) -> float:
        """Total time across all phases."""
        return sum(astuple(self))

    def add(self, phase: str, seconds: float) -> None:
        """Count *seconds* toward *phase*."""
        vars(self)[phase] += seconds

    def as_dict(self) -> Dict[str, float]:
        """Phase → seconds mapping (plus the total)."""
        return {**asdict(self), "total": self.total}


@dataclass
class PipelineResult:
    """Everything a full pipeline run produces (the demo's intermediate artefacts).

    ``attribute_selection`` / ``detection`` / ``conflicts`` are ``None``
    only for runs that fused directly on natural keys (``FUSE BY (key)``)
    and therefore skipped duplicate detection.
    """

    sources: List[Relation]
    matching: Optional[MultiMatchingResult]
    transformed: Relation
    attribute_selection: Optional[AttributeSelection]
    detection: Optional[DuplicateDetectionResult]
    conflicts: Optional[ConflictReport]
    fusion: FusionResult
    timings: PipelineTimings
    #: Prepared-artifact report of this run (``None`` for unprepared runs):
    #: the participating aliases plus how many artifacts were reused vs
    #: rebuilt, per kind — see :meth:`PreparedSources.report`.
    prepared: Optional[Dict[str, Any]] = None

    @property
    def relation(self) -> Relation:
        """The clean and consistent result set (step 6)."""
        return self.fusion.relation

    @property
    def correspondences(self) -> CorrespondenceSet:
        """The attribute correspondences used (empty when only one source)."""
        if self.matching is None:
            return CorrespondenceSet()
        return self.matching.correspondences

    def summary(self) -> Dict[str, Any]:
        """Compact run summary for logging and the experiment harness."""
        summary = {
            "sources": len(self.sources),
            "input_tuples": sum(len(source) for source in self.sources),
            "correspondences": len(self.correspondences),
            "output_tuples": len(self.fusion.relation),
            "seconds": self.timings.total,
        }
        if self.detection is not None:
            summary["clusters"] = self.detection.cluster_count
            summary["duplicate_pairs"] = len(self.detection.duplicate_pairs)
            summary["candidate_pairs"] = self.detection.filter_statistics.blocking_candidates
            summary["compared_pairs"] = self.detection.filter_statistics.compared
            report = self.detection.clustering_report
            if report is not None:
                summary["clustering"] = report.strategy
                summary["largest_cluster"] = report.largest_cluster
                summary["chains_split"] = report.chains_split
        if self.conflicts is not None:
            summary["contradictions"] = self.conflicts.contradiction_count
            summary["uncertainties"] = self.conflicts.uncertainty_count
        if self.prepared is not None:
            summary["artifacts_reused"] = self.prepared.get("reused", 0)
            summary["artifacts_rebuilt"] = self.prepared.get("rebuilt", 0)
            # Matching-phase artifacts broken out, so warm matching is as
            # observable as warm dedup: seeding statistics + field corpora.
            reused_by_kind = self.prepared.get("reused_by_kind", {})
            rebuilt_by_kind = self.prepared.get("rebuilt_by_kind", {})
            summary["match_artifacts_reused"] = sum(
                reused_by_kind.get(kind, 0) for kind in MATCH_ARTIFACT_KINDS
            )
            summary["match_artifacts_rebuilt"] = sum(
                rebuilt_by_kind.get(kind, 0) for kind in MATCH_ARTIFACT_KINDS
            )
        return summary


# -- the wizard steps -------------------------------------------------------------
#
# Each step reads the session's earlier artefacts and the pipeline's
# components, stores its own artefact on the session and returns
# ``(artefact, payload)`` — what ``advance()`` returns and the StageEvent /
# step-report payload.  ``advance()`` times every step; no step reads a clock.


def _choose_sources(session: "FusionSession"):
    """Step 1: fetch the relational form of every alias."""
    if not session.aliases:
        raise HummerError("a fusion query needs at least one source alias")
    session.sources = session.pipeline.catalog.fetch_many(session.aliases)
    return session.sources, {
        "aliases": list(session.aliases),
        "tuples": sum(len(source) for source in session.sources),
    }


def _prepare(session: "FusionSession"):
    """Step 1b: build/validate the per-source artifacts (prepared runs only)."""
    preparer = session.pipeline.preparer
    if preparer is None:
        return None, {}
    session.prepared = preparer.prepare(session.aliases)
    return session.prepared, dict(session.prepared.report())


def _schema_matching(session: "FusionSession"):
    """Step 2: instance-based schema matching over all sources.

    With prepared artifacts, seeding statistics and field corpora are merged
    from the per-source artifacts instead of being recomputed.
    """
    pipeline = session.pipeline
    counters: Dict[str, int] = {"seeds_scored": 0, "field_matrices": 0}
    scoring = SeedScoringStatistics()

    # Counters accumulate across source pairs (MultiMatcher matches every
    # non-preferred source against the preferred one), so `done` is
    # cumulative over the whole step.
    def forward(phase: str, done: int, total: int) -> None:
        counters[phase] = counters.get(phase, 0) + 1
        session._emit_progress(phase, counters[phase], total)

    session.matching = None
    if len(session.sources) >= 2:
        fallback = NameBasedMatcher() if pipeline.use_name_fallback else None
        session.matching = MultiMatcher(pipeline.matcher, fallback=fallback).match(
            session.sources, prepared=session.prepared, progress_callback=forward, scoring=scoring
        )
    matching = session.matching
    return matching, {
        "correspondences": len(matching.correspondences) if matching is not None else 0,
        "seeds_scored": counters["seeds_scored"],
        "field_matrices": counters["field_matrices"],
        "seed_candidates": scoring.candidate_count,
        "seed_cosines": scoring.scored_count,
    }


def _attribute_selection(session: "FusionSession"):
    """Steps 2b + 3: rename, add sourceID and outer-union the sources (then
    apply the ``transform_filter``); heuristics select the dedup attributes."""
    matching = session.matching
    correspondences = matching.correspondences if matching else CorrespondenceSet()
    transformed = transform_sources(session.sources, correspondences)
    if session.transform_filter is not None:
        transformed = session.transform_filter(transformed)
    session.transformed = transformed
    if session.prepared is not None:
        session.prepared_view = session.prepared.view(
            transformed,
            correspondences=matching.correspondences if matching else None,
            preferred=matching.preferred if matching else None,
        )
    if session.skip_detection:
        return None, {"skipped": True}
    session.selection = select_interesting_attributes(transformed)
    return session.selection, {"attributes": list(session.selection.attributes)}


def _duplicate_detection(session: "FusionSession"):
    """Steps 3 + 4: detect duplicates; the caller may then confirm unsure pairs.

    With a prepared view, token indexes are merged from the per-source
    artifacts instead of being rebuilt from cell values.
    """
    if session.skip_detection:
        return None, {"skipped": True}
    session.detection = session.pipeline.detector.detect(
        session.transformed,
        selection=session.selection,
        progress_callback=session._emit_progress,
        prepared=session.prepared_view,
    )
    detection = session.detection
    statistics = detection.filter_statistics
    payload = {
        "clusters": detection.cluster_count,
        "counts": dict(detection.classified.counts),
        "candidate_pairs": statistics.blocking_candidates,
        "compared_pairs": statistics.compared,
        "pairs_scored": statistics.considered,
    }
    report = detection.clustering_report
    if report is not None:
        payload["clustering"] = report.strategy
        payload["largest_cluster"] = report.largest_cluster
        payload["chains_split"] = report.chains_split
    return detection, payload


def _conflict_resolution(session: "FusionSession"):
    """Step 5a: sample the conflicts among detected duplicates."""
    if session.skip_detection or session.skip_conflicts:
        return None, {"skipped": True}
    session.conflicts = find_conflicts(session.detection.relation)
    return session.conflicts, {
        "contradictions": session.conflicts.contradiction_count,
        "uncertainties": session.conflicts.uncertainty_count,
    }


def _fusion(session: "FusionSession"):
    """Steps 5b + 6: fuse each object into one tuple under the session's spec —
    the detected clusters, or the transformed union for ``skip_detection``."""
    operator = FusionOperator(
        session.spec or FusionSpec(key_columns=[OBJECT_ID_COLUMN]),
        registry=session.pipeline.registry,
        table_name="fused",
        metadata=session.metadata,
    )
    # one ("groups_resolved", done, total) event per fused group
    operator.progress_callback = session._emit_progress
    detection = session.detection
    session.fusion = operator.fuse(
        detection.relation if detection is not None else session.transformed
    )
    # timings is the session's live object: advance() adds this step's
    # seconds after it returns.
    session.result = PipelineResult(
        sources=session.sources,
        matching=session.matching,
        transformed=session.transformed,
        attribute_selection=session.selection,
        detection=detection,
        conflicts=session.conflicts,
        fusion=session.fusion,
        timings=session.timings,
        prepared=session.prepared.report() if session.prepared is not None else None,
    )
    return session.fusion, {
        "output_tuples": len(session.fusion.relation),
        "groups_resolved": session.fusion.output_tuple_count,
    }


class WizardStep(NamedTuple):
    """One row of the step table: the step's name, the :class:`PipelineTimings`
    phase its seconds count toward, and ``run(session) -> (artefact, payload)``."""

    name: str
    phase: str
    run: Callable[["FusionSession"], Tuple[Any, Dict[str, Any]]]


#: The step table: every wizard step in execution order, with its phase.
WIZARD_STEPS = (
    WizardStep("choose_sources", "fetch", _choose_sources),
    WizardStep("prepare", "prepare", _prepare),
    WizardStep("schema_matching", "matching", _schema_matching),
    WizardStep("attribute_selection", "duplicate_detection", _attribute_selection),
    WizardStep("duplicate_detection", "duplicate_detection", _duplicate_detection),
    WizardStep("conflict_resolution", "fusion", _conflict_resolution),
    WizardStep("fusion", "fusion", _fusion),
)


class FusionPipeline:
    """The ready components one fusion run uses — a bundle the wizard steps read.

    :class:`~repro.hummer.HumMer` builds this bundle from its
    :class:`~repro.config.FusionConfig` (:meth:`HumMer.pipeline`); direct
    construction takes already-built components.  :meth:`session` hands out
    a :class:`~repro.core.session.FusionSession` for step-by-step
    (adjust-then-continue) use: advance it, mutate ``session.matching`` /
    ``session.selection`` / ``session.detection``, continue.  :meth:`run`
    advances one session to completion.

    Args:
        catalog: metadata repository holding the registered sources.
        matcher: pairwise schema matcher (default: DUMAS).
        detector: duplicate detector (default settings).
        registry: resolution-function registry (default: all built-ins).
        use_name_fallback: when instance-based matching finds nothing for a
            relation, fall back to label-based matching instead of failing.
        prepare: the :class:`SourcePreparer` of a prepared run (see
            :mod:`repro.prepare`), or ``None`` for an unprepared one.
    """

    def __init__(
        self,
        catalog: Catalog,
        matcher: Optional[DumasMatcher] = None,
        detector: Optional[DuplicateDetector] = None,
        registry: Optional[ResolutionRegistry] = None,
        use_name_fallback: bool = True,
        prepare: Optional[SourcePreparer] = None,
    ):
        if prepare is not None and not isinstance(prepare, SourcePreparer):
            raise TypeError(
                "prepare must be a SourcePreparer or None; HumMer(config=...) "
                "builds one from config.prepare"
            )
        self.catalog = catalog
        self.matcher = matcher or DumasMatcher()
        self.detector = detector or DuplicateDetector()
        self.registry = registry or default_registry()
        self.use_name_fallback = use_name_fallback
        self.preparer = prepare

    def session(
        self,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
        skip_detection: bool = False,
        skip_conflicts: bool = False,
        transform_filter=None,
    ):
        """A single-use :class:`~repro.core.session.FusionSession` over *aliases*.

        The session exposes the wizard steps one
        :meth:`~repro.core.session.FusionSession.advance` at a time, with
        adjust-then-continue in between and subscribe-able
        :class:`~repro.core.session.StageEvent` progress.
        """
        from repro.core.session import FusionSession

        return FusionSession(
            self,
            aliases,
            spec=spec,
            metadata=metadata,
            skip_detection=skip_detection,
            skip_conflicts=skip_conflicts,
            transform_filter=transform_filter,
        )

    def run(
        self,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> PipelineResult:
        """Run all six steps automatically and return every intermediate artefact.

        Equivalent to advancing a fresh :meth:`session` to completion — the
        two spellings execute the same code path and produce bit-identical
        results.
        """
        return self.session(aliases, spec=spec, metadata=metadata).run()
