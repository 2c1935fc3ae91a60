"""Characterisation of the wizard's observable stream on the golden fixtures.

The service streams :class:`StageEvent` and :class:`ProgressEvent` payloads
to clients and journals ``step_reports`` into session snapshots, so their
exact content is an interface.  This suite freezes all three (wall-clock
``seconds`` excluded) for an unprepared run, a lazily prepared run (cold,
then warm) and a ``FUSE BY (key)`` query session, which skips duplicate
detection.
"""

from pathlib import Path

import pytest

from repro.config import FusionConfig, PrepareConfig
from repro.core.pipeline import FusionPipeline
from repro.engine.io.csv_source import CsvSource
from repro.hummer import HumMer

GOLDEN_DIR = Path(__file__).parent.parent / "fixtures" / "golden"

CHOOSE_SOURCES = {"aliases": ["crm", "shop"], "tuples": 11}
UNPREPARED = {}
PREPARED_COLD = {
    "sources": ["crm", "shop"],
    "reused": 0,
    "rebuilt": 6,
    "reused_by_kind": {},
    "rebuilt_by_kind": {"token_index": 2, "seed_statistics": 2, "field_corpus": 2},
}
PREPARED_WARM = {
    "sources": ["crm", "shop"],
    "reused": 6,
    "rebuilt": 0,
    "reused_by_kind": {"token_index": 2, "seed_statistics": 2, "field_corpus": 2},
    "rebuilt_by_kind": {},
}
SCHEMA_MATCHING = {
    "correspondences": 4,
    "seeds_scored": 6,
    "field_matrices": 3,
    "seed_candidates": 3,
    "seed_cosines": 3,
}
DETECTED = {
    "attribute_selection": {"attributes": ["name", "age", "city", "email"]},
    "duplicate_detection": {
        "clusters": 8,
        "counts": {"sure_duplicates": 3, "unsure": 0, "sure_non_duplicates": 39},
        "candidate_pairs": 55,
        "compared_pairs": 42,
        "pairs_scored": 55,
        "clustering": "transitive",
        "largest_cluster": 2,
        "chains_split": 0,
    },
    "conflict_resolution": {"contradictions": 3, "uncertainties": 0},
    "fusion": {"output_tuples": 8, "groups_resolved": 8},
}
SKIPPED = {
    "attribute_selection": {"skipped": True},
    "duplicate_detection": {"skipped": True},
    "conflict_resolution": {"skipped": True},
    "fusion": {"output_tuples": 10, "groups_resolved": 10},
}

MATCHING_PROGRESS = [("schema_matching", "seeds_scored", done, 6) for done in range(1, 7)] + [
    ("schema_matching", "field_matrices", done, 3) for done in range(1, 4)
]
DETECTED_PROGRESS = (
    MATCHING_PROGRESS
    + [("duplicate_detection", "pairs_scored", 55, 55)]
    + [("fusion", "groups_resolved", done, 8) for done in range(1, 9)]
)
SKIPPED_PROGRESS = MATCHING_PROGRESS + [
    ("fusion", "groups_resolved", done, 10) for done in range(1, 11)
]


def payloads(prepare, tail):
    return {
        "choose_sources": CHOOSE_SOURCES,
        "prepare": prepare,
        "schema_matching": SCHEMA_MATCHING,
        **tail,
    }


def golden_hummer(config=None) -> HumMer:
    hummer = HumMer(config=config)
    hummer.register("crm", CsvSource(GOLDEN_DIR / "crm_customers.csv", name="crm"))
    hummer.register("shop", CsvSource(GOLDEN_DIR / "shop_clients.csv", name="shop"))
    return hummer


class Recorder:
    """Everything one session makes observable, minus wall-clock seconds."""

    def __init__(self, session):
        self.session = session
        self.stages = []
        self.progress = []
        session.subscribe(
            lambda event: self.stages.append(
                (event.step, event.index, event.total, event.payload)
            )
        )
        session.subscribe_progress(
            lambda event: self.progress.append(
                (event.step, event.phase, event.done, event.total)
            )
        )

    def check(self, expected_payloads, expected_progress):
        steps = list(expected_payloads)
        assert self.stages == [
            (step, index, len(steps), expected_payloads[step])
            for index, step in enumerate(steps, start=1)
        ]
        assert self.progress == expected_progress
        assert list(self.session.step_reports) == steps
        assert {
            step: report["payload"] for step, report in self.session.step_reports.items()
        } == expected_payloads
        assert all(
            set(report) == {"seconds", "payload"}
            for report in self.session.step_reports.values()
        )


def run_session(hummer) -> Recorder:
    recorder = Recorder(hummer.session(["crm", "shop"]))
    recorder.session.run()
    return recorder


def test_unprepared_session_stream():
    run_session(golden_hummer()).check(
        payloads(UNPREPARED, DETECTED), DETECTED_PROGRESS
    )


def test_lazily_prepared_session_stream():
    hummer = golden_hummer(FusionConfig(prepare=PrepareConfig(mode="lazy")))
    run_session(hummer).check(payloads(PREPARED_COLD, DETECTED), DETECTED_PROGRESS)
    run_session(hummer).check(payloads(PREPARED_WARM, DETECTED), DETECTED_PROGRESS)


@pytest.mark.parametrize("mode", [None, "lazy"])
def test_fuse_by_key_query_session_stream(monkeypatch, mode):
    """The SQL path builds its own session; record it as the executor runs it."""
    recorders = []
    build_session = FusionPipeline.session

    def recorded_session(self, *args, **kwargs):
        session = build_session(self, *args, **kwargs)
        recorders.append(Recorder(session))
        return session

    monkeypatch.setattr(FusionPipeline, "session", recorded_session)
    hummer = golden_hummer(FusionConfig(prepare=PrepareConfig(mode=mode)))
    result = hummer.query(
        "SELECT name, RESOLVE(age, max) FUSE FROM crm, shop FUSE BY (name)"
    )
    assert len(result) == 10
    [recorder] = recorders
    assert recorder.session.skip_detection
    prepare = UNPREPARED if mode is None else PREPARED_COLD
    recorder.check(payloads(prepare, SKIPPED), SKIPPED_PROGRESS)
