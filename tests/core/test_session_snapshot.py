"""Session snapshot round-trips (``FusionSession.to_dict``/``from_dict``).

ISSUE 7 satellite: a stepped run snapshotted mid-way and restored against a
fresh pipeline resumes to a bit-identical result on the golden fixtures —
the service layer leans on this to survive restarts.
"""

import json
from pathlib import Path

import pytest

from repro.core.fusion import FusionSpec, ResolutionSpec
from repro.core.resolution import ResolutionContext, ResolutionFunction
from repro.core.session import SNAPSHOT_VERSION, FusionSession
from repro.engine.io.csv_source import CsvSource
from repro.exceptions import HummerError, SnapshotError
from repro.hummer import HumMer

GOLDEN_DIR = Path(__file__).parent.parent / "fixtures" / "golden"


def golden_hummer() -> HumMer:
    hummer = HumMer()
    hummer.register("crm", CsvSource(GOLDEN_DIR / "crm_customers.csv", name="crm"))
    hummer.register("shop", CsvSource(GOLDEN_DIR / "shop_clients.csv", name="shop"))
    return hummer


def fingerprint(result) -> tuple:
    return (
        sorted(str(c) for c in result.correspondences),
        list(result.relation.column_names),
        [tuple(row) for row in result.relation.rows],
        sorted(result.detection.duplicate_pairs),
        result.detection.cluster_assignment,
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "pause_at",
        ["prepare", "schema_matching", "duplicate_detection", "fusion"],
    )
    def test_resume_is_bit_identical(self, pause_at):
        original = golden_hummer().session(["crm", "shop"])
        original.advance_to(pause_at)
        snapshot = original.to_dict()
        reference = original.run()

        restored = golden_hummer().restore_session(snapshot)
        assert list(restored.completed_steps) == snapshot["completed_steps"]
        assert fingerprint(restored.run()) == fingerprint(reference)

    def test_snapshot_survives_json_serialisation(self):
        session = golden_hummer().session(
            ["crm", "shop"], resolutions={"name": "coalesce", "city": "vote"}
        )
        session.advance_to(session.DUPLICATE_DETECTION)
        wire = json.dumps(session.to_dict())
        reference = session.run()

        restored = golden_hummer().restore_session(json.loads(wire))
        assert fingerprint(restored.run()) == fingerprint(reference)

    def test_completed_session_replays_fully(self):
        original = golden_hummer().session(["crm", "shop"])
        reference = original.run()
        snapshot = original.to_dict()
        assert snapshot["version"] == SNAPSHOT_VERSION

        restored = golden_hummer().restore_session(snapshot)
        assert restored.is_done
        assert fingerprint(restored.result) == fingerprint(reference)

    def test_fresh_session_snapshot_is_resumable(self):
        snapshot = golden_hummer().session(["crm", "shop"]).to_dict()
        assert snapshot["completed_steps"] == []
        assert snapshot["source_digests"] is None
        restored = golden_hummer().restore_session(snapshot)
        assert restored.result is None
        assert len(restored.run().relation) > 0

    def test_spec_with_function_arguments_round_trips(self):
        spec = FusionSpec(
            key_columns=("person",),
            resolutions=[ResolutionSpec("status", ("most_recent", ("updated",)))],
        )
        rows_a = [
            {"person": "Anna", "status": "missing", "updated": "2005-01-02"},
            {"person": "Ben", "status": "safe", "updated": "2005-01-05"},
        ]
        rows_b = [{"person": "Anna", "status": "safe", "updated": "2005-02-20"}]

        def build():
            hummer = HumMer()
            hummer.register("a", rows_a)
            hummer.register("b", rows_b)
            return hummer

        original = build().pipeline().session(["a", "b"], spec=spec, skip_detection=True)
        original.advance_to(original.SCHEMA_MATCHING)
        snapshot = original.to_dict()
        reference = original.run()

        restored = build().restore_session(snapshot)
        name, arguments = restored.spec.resolutions[0].function
        assert (name, list(arguments)) == ("most_recent", ["updated"])
        assert restored.run().relation.rows == reference.relation.rows


class TestDecisions:
    def test_applied_decisions_are_reapplied_on_restore(self, catalog):
        def build():
            hummer = HumMer()
            hummer.register("EE_Students", catalog.fetch("EE_Students"))
            hummer.register("CS_Students", catalog.fetch("CS_Students"))
            return hummer

        original = build().session(["EE_Students", "CS_Students"])
        original.advance_to(original.DUPLICATE_DETECTION)
        classified = original.detection.classified
        classified.confirm_all(False)
        for pair in list(classified.sure_duplicates):
            classified.sure_duplicates.remove(pair)
            classified.unsure.append(pair)
        classified.confirm_all(False)
        original.apply_duplicate_decisions()
        snapshot = original.to_dict()
        assert snapshot["decisions_applied"]
        assert len(snapshot["decisions"]) > 0
        reference = original.run()
        assert len(reference.relation) == 7  # every pair rejected: no merges

        restored = build().restore_session(snapshot)
        assert fingerprint(restored.run()) == fingerprint(reference)

    def test_unapplied_decisions_are_restored_but_not_applied(self, catalog):
        hummer = HumMer()
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        original = hummer.session(["EE_Students", "CS_Students"])
        original.advance_to(original.DUPLICATE_DETECTION)
        original.detection.classified.confirm_all(True)
        snapshot = original.to_dict()
        assert not snapshot["decisions_applied"]

        restored = hummer.restore_session(snapshot)
        assert restored.detection.classified.decisions == (
            original.detection.classified.decisions
        )


class TestRejectedSnapshots:
    def test_transform_filter_sessions_cannot_snapshot(self):
        session = golden_hummer().pipeline().session(
            ["crm", "shop"], transform_filter=lambda relation: relation
        )
        with pytest.raises(HummerError, match="transform_filter"):
            session.to_dict()

    def test_live_resolution_function_cannot_snapshot(self):
        class Youngest(ResolutionFunction):
            name = "youngest"

            def resolve(self, context: ResolutionContext):
                return min(context.non_null_values, default=None)

        spec = FusionSpec(resolutions=[ResolutionSpec("age", Youngest())])
        session = golden_hummer().pipeline().session(["crm", "shop"], spec=spec)
        with pytest.raises(HummerError, match="ResolutionFunction"):
            session.to_dict()

    def test_unsupported_version_rejected(self):
        snapshot = golden_hummer().session(["crm", "shop"]).to_dict()
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(HummerError, match="snapshot version"):
            golden_hummer().restore_session(snapshot)

    def test_non_prefix_steps_rejected(self):
        snapshot = golden_hummer().session(["crm", "shop"]).to_dict()
        snapshot["completed_steps"] = ["schema_matching"]
        with pytest.raises(HummerError, match="prefix"):
            golden_hummer().restore_session(snapshot)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda snapshot: [1, 2],
            lambda snapshot: "x",
            lambda snapshot: {**snapshot, "spec": "x"},
            lambda snapshot: {**snapshot, "spec": {"resolutions": [5]}},
            lambda snapshot: {**snapshot, "spec": {"resolutions": [{"column": 5}]}},
            lambda snapshot: {**snapshot, "classified_segments": ["a"]},
            lambda snapshot: {**snapshot, "aliases": ["crm", 7]},
            lambda snapshot: {**snapshot, "decisions": [[0, 1]]},
            lambda snapshot: {**snapshot, "metadata": [1, 2]},
        ],
        ids=[
            "list", "string", "spec", "resolution", "column", "segments",
            "aliases", "decisions", "metadata",
        ],
    )
    def test_malformed_snapshot_raises_snapshot_error(self, corrupt):
        """Malformed snapshots fail typed, before any step replays."""
        session = golden_hummer().session(["crm", "shop"])
        session.advance_to(session.DUPLICATE_DETECTION)
        snapshot = session.to_dict()
        with pytest.raises(SnapshotError) as caught:
            golden_hummer().restore_session(corrupt(snapshot))
        # typed as bad input: the service maps ValueError to 400
        assert isinstance(caught.value, ValueError)
        assert isinstance(caught.value, HummerError)

    def test_changed_source_data_rejected(self, catalog):
        hummer = HumMer()
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        session = hummer.session(["EE_Students", "CS_Students"])
        session.advance_to(session.PREPARE)
        snapshot = session.to_dict()

        drifted = HumMer()
        drifted.register("EE_Students", [{"Name": "Somebody Else", "Age": 99}])
        drifted.register("CS_Students", catalog.fetch("CS_Students"))
        with pytest.raises(HummerError, match="digest"):
            drifted.restore_session(snapshot)


class TestProgressCounters:
    def test_pair_scoring_emits_progress_and_counters(self):
        session = golden_hummer().session(["crm", "shop"])
        events = []
        session.subscribe_progress(events.append)
        session.run()

        scored = [e for e in events if e.phase == "pairs_scored"]
        assert scored, "duplicate detection should report pair-scoring progress"
        assert all(e.step == session.DUPLICATE_DETECTION for e in scored)
        final = scored[-1]
        assert final.done == final.total > 0

        payload = session.step_reports[session.DUPLICATE_DETECTION]["payload"]
        assert payload["pairs_scored"] == final.done
        assert len(scored) == 1
