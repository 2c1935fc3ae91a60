"""Tests for the stateful wizard session (``repro.core.session``).

The acceptance bar of ISSUE 5: a manually stepped :class:`FusionSession`
and :meth:`FusionPipeline.run` produce bit-identical results on the golden
fixtures, and the adjust-then-continue flow replaces the deprecated
``adjust_*`` mutation callbacks.
"""

import threading
from pathlib import Path

import pytest

from repro.config import DedupConfig, FusionConfig, ResolutionConfig
from repro.core.pipeline import FusionPipeline, PipelineResult
from repro.core.session import DONE, SESSION_STEPS, FusionSession, StageEvent
from repro.engine.io.csv_source import CsvSource
from repro.exceptions import HummerError
from repro.hummer import HumMer
from repro.matching.dumas import DumasMatcher
from repro.similarity.jaro import jaro_winkler_similarity

GOLDEN_DIR = Path(__file__).parent.parent / "fixtures" / "golden"


def golden_hummer(**components) -> HumMer:
    hummer = HumMer(**components)
    hummer.register("crm", CsvSource(GOLDEN_DIR / "crm_customers.csv", name="crm"))
    hummer.register("shop", CsvSource(GOLDEN_DIR / "shop_clients.csv", name="shop"))
    return hummer


def fingerprint(result: PipelineResult) -> tuple:
    """Everything the candidate stage influences, for bit-identity checks."""
    return (
        sorted(str(c) for c in result.correspondences),
        list(result.relation.column_names),
        [tuple(row) for row in result.relation.rows],
        sorted(result.detection.duplicate_pairs),
        result.detection.cluster_assignment,
        result.detection.filter_statistics.as_dict(),
    )


class TestStateMachine:
    def test_steps_execute_in_order(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        seen = []
        for expected in SESSION_STEPS:
            assert session.current_step == expected
            assert not session.is_done
            session.advance()
            seen.append(expected)
        assert session.current_step == DONE
        assert session.is_done
        assert list(session.completed_steps) == list(SESSION_STEPS)
        assert seen == list(SESSION_STEPS)

    def test_artefacts_accumulate_per_step(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        assert session.sources is None
        session.advance()  # choose_sources
        assert [s.name for s in session.sources] == ["EE_Students", "CS_Students"]
        session.advance()  # prepare (no-op: unprepared pipeline)
        assert session.prepared is None
        session.advance()  # schema_matching
        assert len(session.matching.correspondences) >= 2
        session.advance()  # attribute_selection
        assert session.transformed is not None
        assert len(session.selection) > 0
        session.advance()  # duplicate_detection
        assert session.detection.cluster_count == 5
        session.advance()  # conflict_resolution
        assert session.conflicts.contradiction_count >= 1
        session.advance()  # fusion
        assert session.result is not None
        assert len(session.result.relation) == 5

    def test_advance_returns_the_step_artefact(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students"])
        sources = session.advance()
        assert sources is session.sources

    def test_advance_to(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        matching = session.advance_to(FusionSession.SCHEMA_MATCHING)
        assert matching is session.matching
        assert session.current_step == FusionSession.ATTRIBUTE_SELECTION

    def test_advance_to_rejects_completed_and_unknown_steps(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students"])
        session.advance_to(FusionSession.SCHEMA_MATCHING)
        with pytest.raises(HummerError, match="already executed"):
            session.advance_to(FusionSession.CHOOSE_SOURCES)
        with pytest.raises(HummerError, match="unknown session step"):
            session.advance_to("transmogrify")

    def test_sessions_are_single_use(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students"])
        session.run()
        with pytest.raises(HummerError, match="complete"):
            session.advance()

    def test_run_finishes_from_any_point(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(FusionSession.DUPLICATE_DETECTION)
        result = session.run()
        assert result is session.result
        assert len(result.relation) == 5


class TestEvents:
    def test_every_step_emits_one_event(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        events = []
        session.subscribe(events.append)
        session.run()
        assert [event.step for event in events] == list(SESSION_STEPS)
        assert [event.index for event in events] == list(range(1, len(SESSION_STEPS) + 1))
        assert all(event.total == len(SESSION_STEPS) for event in events)
        assert all(isinstance(event, StageEvent) for event in events)
        assert all(event.seconds >= 0.0 for event in events)

    def test_event_payloads_carry_step_reports(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        by_step = {}
        session.subscribe(lambda event: by_step.__setitem__(event.step, event))
        session.run()
        assert by_step["choose_sources"].payload["tuples"] == 7
        assert by_step["schema_matching"].payload["correspondences"] >= 2
        assert "Name" in by_step["attribute_selection"].payload["attributes"]
        detection = by_step["duplicate_detection"].payload
        assert detection["clusters"] == 5
        assert detection["compared_pairs"] <= detection["candidate_pairs"]
        assert detection["clustering"] == "transitive"
        assert detection["largest_cluster"] == 2
        assert detection["chains_split"] == 0
        assert by_step["conflict_resolution"].payload["contradictions"] >= 1
        assert by_step["fusion"].payload["output_tuples"] == 5

    def test_unsubscribe(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students"])
        events = []
        unsubscribe = session.subscribe(events.append)
        session.advance()
        unsubscribe()
        session.run()
        assert len(events) == 1


class TestProgressEvents:
    """ISSUE 6 satellite: intra-step progress streams out of long steps."""

    def test_progress_streams_during_matching_and_fusion(self, catalog):
        from repro.core.session import ProgressEvent

        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        events = []
        session.subscribe_progress(events.append)
        session.run()

        assert events
        assert all(isinstance(event, ProgressEvent) for event in events)
        phases = {event.phase for event in events}
        assert {"seeds_scored", "field_matrices", "groups_resolved"} <= phases
        by_phase = {}
        for event in events:
            by_phase.setdefault(event.phase, []).append(event)
        # cumulative counters: strictly increasing within each phase
        for phase_events in by_phase.values():
            dones = [event.done for event in phase_events]
            assert dones == sorted(dones)
            assert dones[0] >= 1
        # phases are attributed to their steps
        assert all(
            event.step == FusionSession.SCHEMA_MATCHING
            for event in by_phase["seeds_scored"] + by_phase["field_matrices"]
        )
        assert all(
            event.step == FusionSession.FUSION
            for event in by_phase["groups_resolved"]
        )
        # one group event per output tuple (5 clusters)
        assert by_phase["groups_resolved"][-1].done == 5

    def test_stage_payloads_carry_intra_step_counters(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        by_step = {}
        session.subscribe(lambda event: by_step.__setitem__(event.step, event))
        session.run()
        matching = by_step["schema_matching"].payload
        assert matching["seeds_scored"] >= 1
        assert matching["field_matrices"] >= 1
        assert matching["seed_candidates"] >= matching["seed_cosines"] >= 1
        assert by_step["fusion"].payload["groups_resolved"] == 5

    def test_unsubscribe_progress(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        events = []
        unsubscribe = session.subscribe_progress(events.append)
        session.advance_to(FusionSession.SCHEMA_MATCHING)
        count_after_matching = len(events)
        assert count_after_matching > 0
        unsubscribe()
        session.run()
        assert len(events) == count_after_matching

    def test_concurrent_sessions_keep_their_own_progress(self):
        """Two sessions of one HumMer matching at once each receive exactly
        their own progress events and counters, as when run alone."""
        gate = {"barrier": None}

        def field_measure(left, right):
            # in the concurrent run every field comparison waits for the
            # other session's, so the two matching steps advance in lockstep
            if gate["barrier"] is not None:
                gate["barrier"].wait(timeout=30)
            return jaro_winkler_similarity(left, right)

        hummer = golden_hummer(matcher=DumasMatcher(field_measure=field_measure))

        def match_once():
            session = hummer.session(["crm", "shop"])
            progress, stages = [], []
            session.subscribe_progress(progress.append)
            session.subscribe(stages.append)
            session.advance_to(FusionSession.SCHEMA_MATCHING)
            return progress, stages[-1].payload

        solo = match_once()
        assert solo[1]["field_matrices"] >= 2

        gate["barrier"] = threading.Barrier(2)
        results = [None, None]

        def worker(index):
            results[index] = match_once()

        threads = [threading.Thread(target=worker, args=(index,)) for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == [solo, solo]

    def test_skip_detection_fusion_still_reports_groups(self, catalog):
        session = FusionPipeline(catalog).session(
            ["EE_Students"], skip_detection=True, skip_conflicts=True
        )
        from repro.core.fusion import FusionSpec

        session.spec = FusionSpec(key_columns=["Name"])
        by_step = {}
        session.subscribe(lambda event: by_step.__setitem__(event.step, event))
        session.run()
        assert by_step["fusion"].payload["groups_resolved"] == 4

    def test_query_executor_forwards_progress(self, hummer):
        from repro.core.session import ProgressEvent

        events = []
        hummer._executor.progress_listener = events.append
        hummer.query("SELECT * FUSE FROM EE_Students, CS_Students")
        assert events
        assert all(isinstance(event, ProgressEvent) for event in events)
        assert {"seeds_scored", "groups_resolved"} <= {e.phase for e in events}


class TestAdjustThenContinue:
    def test_adjust_matching_between_advances(self, catalog):
        """The session replaces the adjust_matching mutation callback."""
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(FusionSession.SCHEMA_MATCHING)
        session.matching.correspondences.remove("Age", "Years")
        result = session.run()
        # Years stays a separate column because its correspondence was removed
        assert "Years" in result.transformed.schema

    def test_adjust_selection_between_advances(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(FusionSession.ATTRIBUTE_SELECTION)
        assert "Name" in session.selection.attributes
        result = session.run()
        assert result.attribute_selection is session.selection

    def test_decide_duplicates_then_recluster(self, catalog):
        """The session replaces the adjust_duplicates callback + redetect."""
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(FusionSession.DUPLICATE_DETECTION)
        classified = session.detection.classified
        classified.confirm_all(False)
        for pair in list(classified.sure_duplicates):
            classified.sure_duplicates.remove(pair)
            classified.unsure.append(pair)
        classified.confirm_all(False)
        session.apply_duplicate_decisions()
        result = session.run()
        # with every pair rejected, nothing is merged
        assert len(result.relation) == 7

    def test_decisions_require_a_detection(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        with pytest.raises(HummerError, match="no duplicate detection"):
            session.apply_duplicate_decisions()

    def test_decisions_rejected_after_fusion_ran(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.run()
        with pytest.raises(HummerError, match="before conflict"):
            session.apply_duplicate_decisions()


class TestParity:
    def test_manual_session_is_bit_identical_to_pipeline_run(self):
        """ISSUE 5 acceptance: stepping manually == FusionPipeline.run."""
        manual = golden_hummer().session(["crm", "shop"])
        while not manual.is_done:
            manual.advance()
        automatic = golden_hummer().fuse(["crm", "shop"])
        assert fingerprint(manual.result) == fingerprint(automatic)

    def test_session_run_is_bit_identical_to_fuse(self):
        assert fingerprint(golden_hummer().session(["crm", "shop"]).run()) == \
            fingerprint(golden_hummer().fuse(["crm", "shop"]))

    def test_timings_phases_are_preserved(self, catalog):
        result = FusionPipeline(catalog).session(["EE_Students", "CS_Students"]).run()
        timings = result.timings.as_dict()
        assert set(timings) == {
            "fetch", "prepare", "matching", "duplicate_detection", "fusion", "total",
        }
        assert timings["prepare"] == 0.0  # unprepared session: no prepare work


class TestSkipConflicts:
    def test_skip_conflicts_leaves_the_report_out(self, catalog):
        """The SQL query path opts out of conflict sampling (it never paid
        for the report pre-session) — detection and fusion still run."""
        session = FusionPipeline(catalog).session(
            ["EE_Students", "CS_Students"], skip_conflicts=True
        )
        result = session.run()
        assert result.conflicts is None
        assert result.detection.cluster_count == 5
        assert len(result.relation) == 5

    def test_query_path_produces_the_same_relation(self, catalog):
        """skip_conflicts changes reporting, never the fused rows."""
        full = FusionPipeline(catalog).session(["EE_Students", "CS_Students"]).run()
        skipped = FusionPipeline(catalog).session(
            ["EE_Students", "CS_Students"], skip_conflicts=True
        ).run()
        assert [tuple(r) for r in skipped.relation.rows] == [
            tuple(r) for r in full.relation.rows
        ]


class TestPipelineConfig:
    def test_pipeline_accepts_matching_artifact_dir(self, tmp_path):
        """HumMer(config=...) builds the catalog's artifact store from
        config.prepare.artifact_dir, so its pipeline prepares against it."""
        from repro.config import PrepareConfig

        config = FusionConfig(
            prepare=PrepareConfig(mode="lazy", artifact_dir=str(tmp_path))
        )
        pipeline = HumMer(config=config).pipeline()
        assert pipeline.catalog.artifacts.directory == tmp_path
        assert pipeline.preparer is not None


class TestConfiguredSessions:
    def test_hummer_session_uses_the_config_tree(self, catalog):
        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(blocking="snm")))
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        session = hummer.session(["EE_Students", "CS_Students"])
        result = session.run()
        assert result.detection.cluster_count == 5
        assert session.pipeline.detector.blocking.name == "snm"

    def test_config_default_resolutions_apply(self, catalog):
        config = FusionConfig(
            resolution=ResolutionConfig(
                resolutions={"Name": "coalesce", "Age": "max"}
            )
        )
        hummer = HumMer(config=config)
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        result = hummer.fuse(["EE_Students", "CS_Students"])
        by_name = {row["Name"]: row["Age"] for row in result.relation}
        assert by_name["Anna Schmidt"] == 23  # max of 22 (EE) and 23 (CS)

    def test_explicit_resolutions_override_config(self, catalog):
        config = FusionConfig(
            resolution=ResolutionConfig(
                resolutions={"Name": "coalesce", "Age": "max"}
            )
        )
        hummer = HumMer(config=config)
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        result = hummer.fuse(
            ["EE_Students", "CS_Students"],
            resolutions={"Name": "coalesce", "Age": "min"},
        )
        by_name = {row["Name"]: row["Age"] for row in result.relation}
        assert by_name["Anna Schmidt"] == 22
