"""Tests for the six-step fusion pipeline (Fig. 2)."""

import pytest

from repro.core.fusion import FusionSpec, ResolutionSpec
from repro.core.pipeline import FusionPipeline
from repro.dedup.detector import OBJECT_ID_COLUMN, DuplicateDetector
from repro.exceptions import HummerError
from repro.matching.transform import SOURCE_ID_COLUMN


def make_pipeline(catalog, **overrides):
    """Pipeline over the EE/CS demo tables (default settings)."""
    overrides.setdefault("detector", DuplicateDetector())
    return FusionPipeline(catalog, **overrides)


class TestPipelineSteps:
    """Each wizard step, driven through a session with ``advance_to``."""

    def test_choose_sources(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        sources = session.advance_to(session.CHOOSE_SOURCES)
        assert [s.name for s in sources] == ["EE_Students", "CS_Students"]

    def test_choose_sources_requires_aliases(self, catalog):
        session = FusionPipeline(catalog).session([])
        with pytest.raises(HummerError):
            session.advance_to(session.CHOOSE_SOURCES)

    def test_schema_matching_step(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        matching = session.advance_to(session.SCHEMA_MATCHING)
        assert matching is not None
        assert len(matching.correspondences) >= 2

    def test_schema_matching_skipped_for_single_source(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students"])
        assert session.advance_to(session.SCHEMA_MATCHING) is None

    def test_transform_step_adds_source_id(self, catalog):
        session = FusionPipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(session.ATTRIBUTE_SELECTION)
        combined = session.transformed
        assert SOURCE_ID_COLUMN in combined.schema
        assert len(combined) == 7

    def test_detection_step_adds_object_id(self, catalog):
        session = make_pipeline(catalog).session(["EE_Students", "CS_Students"])
        detection = session.advance_to(session.DUPLICATE_DETECTION)
        assert OBJECT_ID_COLUMN in detection.relation.schema
        # Anna and Ben appear in both faculties: 7 tuples, 5 real persons
        assert detection.cluster_count == 5


class TestPipelineRun:
    def test_full_run_produces_clean_result(self, catalog):
        result = make_pipeline(catalog).run(["EE_Students", "CS_Students"])
        assert len(result.relation) == 5
        assert result.fusion.output_tuple_count == 5
        names = set(result.relation.column("Name"))
        assert "Anna Schmidt" in names
        assert "Elena Wolf" in names

    def test_run_with_explicit_resolution(self, catalog):
        spec = FusionSpec(resolutions=[
            ResolutionSpec("Name"), ResolutionSpec("Age", "max"),
        ])
        result = make_pipeline(catalog).run(["EE_Students", "CS_Students"], spec=spec)
        anna = [row for row in result.relation if row["Name"] == "Anna Schmidt"][0]
        assert anna["Age"] == 23  # max of 22 (EE) and 23 (CS)

    def test_run_single_source_is_identity_modulo_bookkeeping(self, catalog):
        result = FusionPipeline(catalog).run(["EE_Students"])
        assert len(result.relation) == 4
        assert result.matching is None

    def test_timings_are_recorded(self, catalog):
        result = FusionPipeline(catalog).run(["EE_Students", "CS_Students"])
        timings = result.timings.as_dict()
        assert timings["total"] > 0
        assert set(timings) == {
            "fetch",
            "prepare",
            "matching",
            "duplicate_detection",
            "fusion",
            "total",
        }
        assert timings["prepare"] == 0.0  # unprepared pipeline: no prepare phase work

    def test_summary_keys(self, catalog):
        summary = make_pipeline(catalog).run(["EE_Students", "CS_Students"]).summary()
        assert summary["sources"] == 2
        assert summary["input_tuples"] == 7
        assert summary["output_tuples"] == 5

    def test_conflict_report_present(self, catalog):
        result = make_pipeline(catalog).run(["EE_Students", "CS_Students"])
        # Anna's age conflicts between the two faculties
        assert result.conflicts.contradiction_count >= 1


class TestSessionAdjustment:
    """Mid-run adjustment is the session's adjust-then-continue flow."""

    def test_session_can_remove_correspondences(self, catalog):
        session = make_pipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(session.SCHEMA_MATCHING)
        assert len(session.matching.correspondences) >= 2
        session.matching.correspondences.remove("Age", "Years")
        result = session.run()
        # Years stays a separate column because its correspondence was removed
        assert "Years" in result.transformed.schema

    def test_session_exposes_the_attribute_selection(self, catalog):
        session = make_pipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(session.ATTRIBUTE_SELECTION)
        assert "Name" in list(session.selection.attributes)

    def test_session_can_reject_every_pair(self, catalog):
        session = make_pipeline(catalog).session(["EE_Students", "CS_Students"])
        session.advance_to(session.DUPLICATE_DETECTION)
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
