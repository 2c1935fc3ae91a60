"""Golden end-to-end regression test for the full HumMer pipeline.

Runs fusion over two small committed CSV sources (heterogeneous schemas,
typo'd duplicates, one age conflict) and compares everything the candidate
stage influences — fused rows, duplicate pairs, cluster count, the
``FilterStatistics`` counters, every cell's lineage, the conflict report
and the resolved-conflict count — against a checked-in golden file.  A
refactor of blocking, filtering, scoring, clustering, grouping or
resolution that silently changes fusion results fails here even if every
unit test still passes.

To regenerate after an *intentional* behaviour change::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_pipeline.py

then review the golden diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.engine.io.csv_source import CsvSource
from repro.hummer import HumMer

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_PATH = FIXTURE_DIR / "expected_fusion.json"


def _jsonable(value):
    """Cell value → JSON-stable form (floats rounded against FP drift)."""
    if isinstance(value, float):
        return round(value, 9)
    return value


def run_golden_pipeline():
    hummer = HumMer()
    hummer.register("crm", CsvSource(FIXTURE_DIR / "crm_customers.csv", name="crm"))
    hummer.register("shop", CsvSource(FIXTURE_DIR / "shop_clients.csv", name="shop"))
    result = hummer.fuse(["crm", "shop"])
    return {
        "correspondences": sorted(str(c) for c in result.correspondences),
        "columns": list(result.relation.column_names),
        "rows": [[_jsonable(value) for value in row] for row in result.relation.rows],
        "duplicate_pairs": [list(pair) for pair in result.detection.duplicate_pairs],
        "cluster_count": result.detection.cluster_count,
        "filter_statistics": result.detection.filter_statistics.as_dict(),
        "lineage": [
            [object_id, column, sources, merged]
            for object_id, column, sources, merged in sorted(
                (record.object_id, record.column, sorted(record.sources), record.merged)
                for record in result.fusion.lineage
            )
        ],
        "conflicts": [
            [conflict.object_id, conflict.column, conflict.kind.value]
            for conflict in result.conflicts.conflicts
        ],
        "resolved_conflict_count": result.fusion.resolved_conflict_count,
    }


def test_golden_end_to_end_fusion():
    actual = run_golden_pipeline()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1) + "\n")
        pytest.skip("golden file regenerated; review and commit the diff")
    expected = json.loads(GOLDEN_PATH.read_text())
    assert actual == expected, (
        "end-to-end fusion output drifted from the golden file; if the change "
        "is intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def test_golden_fixture_finds_the_planted_duplicates():
    """Independent of the golden bytes: the three planted duplicate pairs
    (exact copy, name typo, name typo + conflicting age) must be found."""
    actual = run_golden_pipeline()
    assert actual["cluster_count"] == 8  # 11 input tuples, 3 duplicate pairs
    assert len(actual["duplicate_pairs"]) == 3
