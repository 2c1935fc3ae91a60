"""``repro.core.session`` — the HumMer wizard as an explicit state machine.

The paper's demo (Fig. 2) is a six-step *wizard*: the user inspects and
adjusts intermediate state between steps.  The library equivalent used to be
three mutation callbacks (``adjust_matching`` / ``adjust_selection`` /
``adjust_duplicates``) threaded through the pipeline constructor;
:class:`FusionSession` replaces them with *adjust-then-continue*: each
:meth:`~FusionSession.advance` call executes exactly one step, leaves its
artefact on the session (``session.matching``, ``session.selection``,
``session.detection``, …), and the caller mutates the artefact directly
before advancing again::

    session = hummer.session(["EE_Students", "CS_Students"])
    session.advance_to(FusionSession.SCHEMA_MATCHING)
    session.matching.correspondences.remove("Age", "Years")   # wizard step 2
    session.advance_to(FusionSession.DUPLICATE_DETECTION)
    session.detection.classified.confirm_all(True)            # wizard step 4
    session.apply_duplicate_decisions()
    result = session.run()                                    # steps 5 + 6

Progress on long runs is observable through subscribe-able
:class:`StageEvent`\\ s carrying per-step wall-clock seconds and payloads
(artifact reuse counters, candidate-pair counts, classification counts).

Each step is defined once, in the step table
:data:`~repro.core.pipeline.WIZARD_STEPS`, and :meth:`FusionSession.advance`
— the only clock — dispatches to it.  :meth:`FusionPipeline.run` is a loop
over one session, so stepping manually and running automatically produce
bit-identical :class:`PipelineResult`\\ s.

Sessions survive process restarts: :meth:`FusionSession.to_dict` captures a
JSON-able snapshot (aliases, step cursor, per-step reports, duplicate
decisions, source content digests) and :meth:`FusionSession.from_dict`
rebuilds the session against a fresh pipeline by *replaying* the completed
steps — the pipeline is deterministic, so a resumed run is bit-identical to
an uninterrupted one (asserted in ``tests/core/test_session_snapshot.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.fusion import FusionSpec, ResolutionSpec
from repro.core.pipeline import WIZARD_STEPS, PipelineResult, PipelineTimings
from repro.core.resolution.base import ResolutionFunction
from repro.dedup.detector import OBJECT_ID_COLUMN
from repro.engine.relation import Relation
from repro.exceptions import HummerError, SnapshotError

__all__ = ["SESSION_STEPS", "SNAPSHOT_VERSION", "StageEvent", "ProgressEvent", "FusionSession"]

#: Version tag written into (and required from) session snapshots.
SNAPSHOT_VERSION = 1

#: The wizard steps, in execution order (the names of the step table
#: :data:`~repro.core.pipeline.WIZARD_STEPS`).  ``prepare`` is the paper's
#: step 1b (a no-op for unprepared sessions); the transform (step 2b) runs at
#: the start of ``attribute_selection``.
SESSION_STEPS = tuple(step.name for step in WIZARD_STEPS)

#: The duplicate-detection segments a snapshot records pair membership of.
SEGMENTS = ("sure_duplicates", "unsure", "sure_non_duplicates")

#: Terminal pseudo-step reported by :attr:`FusionSession.current_step`.
DONE = "done"


@dataclass(frozen=True)
class StageEvent:
    """One completed wizard step, for progress observation on long runs.

    Attributes:
        step: the completed step (one of :data:`SESSION_STEPS`).
        index: 1-based position of the step in the run.
        total: total number of steps in the run.
        seconds: wall-clock seconds the step took.
        payload: step-specific report — artifact reuse counters for
            ``prepare``, correspondence counts for ``schema_matching``, the
            blocking plan and classification counts for
            ``duplicate_detection``, output size for ``fusion``, …
    """

    step: str
    index: int
    total: int
    seconds: float
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ProgressEvent:
    """Intra-step progress on long runs, for streamed UIs.

    Where :class:`StageEvent` reports a *completed* step, progress events
    stream out while a step is still running: seeds scored and field
    matrices built during ``schema_matching``, candidate-pair batches scored
    during ``duplicate_detection``, groups resolved during ``fusion``.
    Counters are cumulative over the step (across source pairs / scoring
    batches); ``total`` is the work-item count of the current unit of work
    (one source pair's tuples, the run's candidate pairs, one fusion input's
    groups).

    Attributes:
        step: the running step (one of :data:`SESSION_STEPS`).
        phase: what is being counted (``"seeds_scored"``,
            ``"field_matrices"``, ``"pairs_scored"``, ``"groups_resolved"``).
        done: cumulative completed work items of this phase within the step.
        total: work items of the current unit of work.
    """

    step: str
    phase: str
    done: int
    total: int


def _spec_to_dict(spec: Optional[FusionSpec]) -> Optional[Dict[str, Any]]:
    """JSON-able form of a name-based :class:`FusionSpec` (``None`` passthrough).

    Raises :class:`HummerError` on resolutions carrying live
    :class:`ResolutionFunction` instances — a snapshot must be rebuildable in
    a process that never saw the instance.
    """
    if spec is None:
        return None
    resolutions = []
    for item in spec.resolutions:
        function = item.function
        if isinstance(function, ResolutionFunction):
            raise HummerError(
                f"the resolution for column {item.column!r} is a "
                "ResolutionFunction instance; session snapshots need "
                "name-based resolutions (a registry name or [name, args])"
            )
        if isinstance(function, tuple):
            function = [function[0], list(function[1])]
        resolutions.append(
            {"column": item.column, "function": function, "alias": item.alias}
        )
    return {
        "key_columns": list(spec.key_columns),
        "resolutions": resolutions,
        "keep_source_column": spec.keep_source_column,
    }


def _spec_from_dict(data: Dict[str, Any]) -> FusionSpec:
    """Inverse of :func:`_spec_to_dict`."""
    resolutions = []
    for item in data.get("resolutions", ()):
        function = item.get("function")
        if isinstance(function, list):
            name, arguments = function
            function = (_string(name), list(arguments))
        elif function is not None:
            function = _string(function)
        alias = item.get("alias")
        if alias is not None:
            _string(alias)
        resolutions.append(ResolutionSpec(_string(item["column"]), function, alias=alias))
    return FusionSpec(
        key_columns=_strings(data.get("key_columns", [OBJECT_ID_COLUMN])),
        resolutions=resolutions,
        keep_source_column=bool(data.get("keep_source_column", False)),
    )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _strings(values) -> List[str]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return [_string(value) for value in values]


def _snapshot_field(data: Dict[str, Any], name: str, parse, default=None):
    """Snapshot field *name* read by *parse*; *default* when absent or null.

    Raises :class:`SnapshotError` naming the field when its value has the
    wrong shape.
    """
    value = data.get(name)
    if value is None:
        return default
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed session snapshot field {name!r}: {error}"
        ) from None


class FusionSession:
    """Stateful, event-emitting execution of the six-step fusion wizard.

    Sessions are single-use: construct one per fusion run (via
    :meth:`HumMer.session` or :meth:`FusionPipeline.session`), advance it to
    completion, read :attr:`result`.

    Args:
        pipeline: the :class:`~repro.core.pipeline.FusionPipeline` whose
            components (catalog, matcher, detector, registry, preparer) the
            steps use.
        aliases: catalog aliases of the sources to fuse (wizard step 1).
        spec: fusion spec for step 5; ``None`` means fuse on ``objectID``
            with Coalesce everywhere.
        metadata: column metadata handed to metadata-based resolution
            functions.
        skip_detection: fuse directly on the transformed union without
            duplicate detection (the ``FUSE BY (key)`` query shape) — the
            selection / detection / conflict steps become no-ops.
        skip_conflicts: skip the conflict-sampling report (step 5a) — the
            SQL query path only needs the fused relation, and never paid
            for the report before the session existed.
        transform_filter: optional callable applied to the combined relation
            right after transformation (the query executor's WHERE push-in).
    """

    #: Step-name constants (mirrors :data:`SESSION_STEPS`).
    CHOOSE_SOURCES, PREPARE, SCHEMA_MATCHING, ATTRIBUTE_SELECTION, \
        DUPLICATE_DETECTION, CONFLICT_RESOLUTION, FUSION = SESSION_STEPS
    DONE = DONE

    def __init__(
        self,
        pipeline,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
        skip_detection: bool = False,
        skip_conflicts: bool = False,
        transform_filter: Optional[Callable[[Relation], Relation]] = None,
    ):
        if isinstance(aliases, str):
            raise TypeError(f"aliases must be a list, not the string {aliases!r}")
        self.pipeline = pipeline
        self.aliases = list(aliases)
        self.spec = spec
        self.metadata = metadata
        self.skip_detection = skip_detection
        self.skip_conflicts = skip_conflicts
        self.transform_filter = transform_filter

        # per-step artefacts (the wizard's intermediate state)
        self.sources: Optional[List[Relation]] = None
        self.prepared = None
        self.matching = None
        self.transformed: Optional[Relation] = None
        self.prepared_view = None
        self.selection = None
        self.detection = None
        self.conflicts = None
        self.fusion = None
        self.result: Optional[PipelineResult] = None

        #: Per-step reports recorded as steps complete — the
        #: :class:`StageEvent` payload plus wall-clock seconds, keyed by step
        #: name.  Carried into snapshots as the per-step artefact summaries.
        self.step_reports: Dict[str, Dict[str, Any]] = {}

        self.timings = PipelineTimings()
        self._cursor = 0
        self._decisions_applied = False
        self._listeners: List[Callable[[StageEvent], None]] = []
        self._progress_listeners: List[Callable[[ProgressEvent], None]] = []

    # -- state inspection ----------------------------------------------------------

    @property
    def current_step(self) -> str:
        """The next step :meth:`advance` will execute (or :data:`DONE`)."""
        if self._cursor >= len(SESSION_STEPS):
            return DONE
        return SESSION_STEPS[self._cursor]

    @property
    def completed_steps(self) -> Sequence[str]:
        """The steps executed so far, in order."""
        return SESSION_STEPS[: self._cursor]

    @property
    def is_done(self) -> bool:
        """Whether every step has executed and :attr:`result` is available."""
        return self._cursor >= len(SESSION_STEPS)

    # -- observation ---------------------------------------------------------------

    def subscribe(self, listener: Callable[[StageEvent], None]) -> Callable[[], None]:
        """Receive a :class:`StageEvent` after each completed step.

        Returns an unsubscribe callable.  Listener exceptions propagate to
        the advancing caller — observers are part of the run, not detached
        best-effort logging.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def subscribe_progress(
        self, listener: Callable[[ProgressEvent], None]
    ) -> Callable[[], None]:
        """Receive :class:`ProgressEvent`\\ s *while* long steps are running.

        Returns an unsubscribe callable.  Like :meth:`subscribe`, listener
        exceptions propagate to the advancing caller.
        """
        self._progress_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._progress_listeners:
                self._progress_listeners.remove(listener)

        return unsubscribe

    def _emit_progress(self, phase: str, done: int, total: int) -> None:
        """Report intra-step progress of the running (current) step."""
        if not self._progress_listeners:
            return
        event = ProgressEvent(step=self.current_step, phase=phase, done=done, total=total)
        for listener in list(self._progress_listeners):
            listener(event)

    # -- advancing -----------------------------------------------------------------

    def advance(self):
        """Execute the current step and return its artefact.

        Between calls the caller may adjust the produced artefacts in place
        (remove correspondences, change the attribute selection, decide
        unsure pairs + :meth:`apply_duplicate_decisions`) — the library
        counterpart of the demo's GUI interventions.

        The step runs from the step table and is timed here, once: that one
        reading is the :class:`StageEvent`'s ``seconds``, the step report's
        ``seconds`` and the step's share of :attr:`timings`.
        """
        if self.is_done:
            raise HummerError("the session is complete; construct a new one to re-run")
        step = WIZARD_STEPS[self._cursor]
        started = time.perf_counter()
        artefact, payload = step.run(self)
        seconds = time.perf_counter() - started
        self._cursor += 1
        # An unprepared run has no prepare phase: its no-op step counts nowhere.
        if step.name != self.PREPARE or self.prepared is not None:
            self.timings.add(step.phase, seconds)
        self.step_reports[step.name] = {"seconds": seconds, "payload": dict(payload)}
        event = StageEvent(
            step=step.name,
            index=self._cursor,
            total=len(SESSION_STEPS),
            seconds=seconds,
            payload=payload,
        )
        for listener in list(self._listeners):
            listener(event)
        return artefact

    def advance_to(self, step: str):
        """Advance until *step* (inclusive) has executed; return its artefact."""
        if step not in SESSION_STEPS:
            raise HummerError(
                f"unknown session step {step!r} (steps: {', '.join(SESSION_STEPS)})"
            )
        if step in self.completed_steps:
            raise HummerError(f"session step {step!r} has already executed")
        artefact = None
        while step not in self.completed_steps:
            artefact = self.advance()
        return artefact

    def run(self) -> PipelineResult:
        """Advance through every remaining step and return the result."""
        while not self.is_done:
            self.advance()
        return self.result

    # -- mid-session adjustment ----------------------------------------------------

    def apply_duplicate_decisions(self):
        """Re-cluster after deciding unsure pairs (wizard step 4 confirmation).

        Call after mutating ``session.detection.classified`` (e.g.
        ``confirm_all`` or per-pair decisions) and before advancing past
        duplicate detection's successor steps.  Comparison scores are
        reused; only the transitive closure and the objectID column are
        recomputed.
        """
        if self.detection is None:
            raise HummerError(
                "no duplicate detection to re-cluster; advance the session "
                "through duplicate_detection first"
            )
        if self.conflicts is not None or self.fusion is not None:
            raise HummerError(
                "duplicate decisions must be applied before conflict "
                "resolution and fusion run"
            )
        self.detection = self.pipeline.detector.redetect_with_decisions(
            self.transformed, self.detection
        )
        self._decisions_applied = True
        return self.detection

    # -- snapshot / restore --------------------------------------------------------

    @property
    def can_snapshot(self) -> bool:
        """Whether :meth:`to_dict` can succeed for this session.

        False for sessions holding process-local state a snapshot cannot
        carry: a ``transform_filter`` callable, or a spec with live
        :class:`ResolutionFunction` instances.  Durable services use this
        to skip journaling such sessions instead of failing their steps.
        """
        if self.transform_filter is not None:
            return False
        if self.spec is not None:
            for item in self.spec.resolutions:
                if isinstance(item.function, ResolutionFunction):
                    return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able snapshot of this session's progress.

        The snapshot captures everything needed to resume in another process
        (:meth:`from_dict`): aliases, the step cursor, per-step reports,
        user decisions on unsure pairs, the fusion spec (name-based only)
        and a content digest per source so a resume against changed data
        fails loudly instead of silently diverging.

        Raises:
            HummerError: for sessions that cannot be snapshotted — a
                ``transform_filter`` (an arbitrary callable) or a spec
                holding live :class:`ResolutionFunction` instances.
        """
        if self.transform_filter is not None:
            raise HummerError(
                "sessions with a transform_filter cannot be snapshotted "
                "(the filter is an arbitrary callable)"
            )
        decisions = []
        segments = None
        if self.detection is not None:
            classified = self.detection.classified
            decisions = [
                [int(left), int(right), bool(accept)]
                for (left, right), accept in sorted(classified.decisions.items())
            ]
            # Segment membership is snapshotted too: the wizard lets users
            # *move* pairs between segments (demote a sure duplicate to
            # unsure), and accepted_pairs() starts from sure_duplicates —
            # decisions alone would not reproduce such demotions on resume.
            segments = {
                name: [list(score.as_tuple()) for score in getattr(classified, name)]
                for name in SEGMENTS
            }
        digests = None
        if self.sources is not None:
            digests = [
                [alias, source.content_digest()]
                for alias, source in zip(self.aliases, self.sources)
            ]
        return {
            "version": SNAPSHOT_VERSION,
            "aliases": list(self.aliases),
            "completed_steps": list(self.completed_steps),
            "skip_detection": self.skip_detection,
            "skip_conflicts": self.skip_conflicts,
            "spec": _spec_to_dict(self.spec),
            "metadata": self.metadata,
            "decisions": decisions,
            "classified_segments": segments,
            "decisions_applied": self._decisions_applied,
            "step_reports": {
                step: dict(report) for step, report in self.step_reports.items()
            },
            "source_digests": digests,
        }

    @classmethod
    def from_dict(cls, pipeline, data: Dict[str, Any]) -> "FusionSession":
        """Rebuild a session from :meth:`to_dict` against a fresh *pipeline*.

        Completed steps are *replayed* — the pipeline is deterministic, so
        the replay reproduces the snapshotted artefacts bit-identically;
        recorded duplicate decisions are restored (and re-applied when they
        had been applied) at the point in the replay where they originally
        happened.  Source content digests are verified right after
        ``choose_sources``: resuming over changed data raises
        :class:`HummerError`.

        Raises:
            SnapshotError: for a malformed snapshot — not an object, an
                unsupported version, a step list that is not a prefix of the
                wizard steps, or a field of the wrong shape.  Every field is
                checked before the first step replays.
        """
        if not isinstance(data, dict):
            raise SnapshotError(
                f"a session snapshot must be an object, got {type(data).__name__}"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported session snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        completed = _snapshot_field(data, "completed_steps", _strings, [])
        if tuple(completed) != SESSION_STEPS[: len(completed)]:
            raise SnapshotError(
                "snapshot completed_steps "
                f"{completed!r} is not a prefix of the wizard steps"
            )
        aliases = _snapshot_field(data, "aliases", _strings, [])
        spec = _snapshot_field(data, "spec", _spec_from_dict)
        metadata = _snapshot_field(data, "metadata", dict)
        segments = _snapshot_field(data, "classified_segments", lambda value: value and {
            name: [(int(left), int(right)) for left, right in value.get(name, ())]
            for name in SEGMENTS
        })
        decisions = _snapshot_field(data, "decisions", lambda value: {
            (int(left), int(right)): bool(accept) for left, right, accept in value
        }, {})
        digests = _snapshot_field(data, "source_digests", lambda value: [
            (_string(alias), _string(digest)) for alias, digest in value
        ])
        decisions_applied = bool(data.get("decisions_applied", False))
        session = cls(
            pipeline,
            aliases,
            spec=spec,
            metadata=metadata,
            skip_detection=bool(data.get("skip_detection", False)),
            skip_conflicts=bool(data.get("skip_conflicts", False)),
        )
        for step in completed:
            session.advance()
            if step == cls.CHOOSE_SOURCES:
                session._verify_source_digests(digests)
            if step == cls.DUPLICATE_DETECTION and session.detection is not None:
                classified = session.detection.classified
                if segments:
                    by_pair = {
                        score.as_tuple(): score
                        for name in SEGMENTS
                        for score in getattr(classified, name)
                    }
                    for name in SEGMENTS:
                        setattr(classified, name, [
                            by_pair[pair] for pair in segments[name] if pair in by_pair
                        ])
                if decisions:
                    classified.decisions = decisions
                if decisions_applied:
                    session.apply_duplicate_decisions()
        return session

    def _verify_source_digests(self, digests) -> None:
        """Raise if any snapshotted source digest differs from the live one."""
        if not digests or self.sources is None:
            return
        current = {
            alias: source.content_digest()
            for alias, source in zip(self.aliases, self.sources)
        }
        for alias, digest in digests:
            if current.get(alias) != digest:
                raise HummerError(
                    f"source {alias!r} changed since the session was "
                    "snapshotted (content digest mismatch); re-run the "
                    "fusion instead of resuming"
                )
