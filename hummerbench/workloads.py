"""The benchmark's workloads, their generated inputs and their output checks.

Every input is generated from the run's seed by ``repro.datagen`` and handed
to the program as CSV text or files, with the generator's ground truth kept
on the benchmark's side for the quality metrics.

Sizes differ from the HumMer demo's headline (10k students, 5k CDs) so that
one run measures many fusions within its time budget; README.md records the
quality pathologies of the larger sizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Inputs of one run are drawn from ``seed * SEED_STRIDE + index``.
SEED_STRIDE = 1000
#: Index of the small untimed warm-up input.
WARMUP_INDEX = SEED_STRIDE - 1
WARMUP_ENTITIES = 60


@dataclass(frozen=True)
class Workload:
    """One workload: what is generated, how it is configured, how it runs.

    Attributes:
        kind: ``"cold"`` (fresh ``HumMer`` per fuse), ``"warm"`` (re-fuses
            over eagerly prepared sources) or ``"service"`` (HTTP wizard
            sessions against ``repro.cli serve``).
        scenario: the ``repro.datagen`` scenario.
        inputs: distinct generated inputs per run (cycled); several inputs
            keep one unlucky draw from setting a run's median.
        key: (fused column, clean attribute) aligning fused tuples with
            ground-truth entities for ``evaluate_fusion``.
        refuses: warm re-fuses per set-up (``warm`` only).
    """

    name: str
    kind: str
    scenario: str
    entities: int
    smoke_entities: int
    inputs: int
    default_seed: int
    key: Tuple[str, str]
    scenario_options: Mapping[str, Any] = field(default_factory=dict)
    dedup: Mapping[str, Any] = field(default_factory=dict)
    prepare: Optional[str] = None
    resolutions: Optional[Mapping[str, str]] = None
    refuses: int = 0

    def config(self):
        from repro import DedupConfig, FusionConfig, PrepareConfig

        return FusionConfig(
            dedup=DedupConfig(**self.dedup), prepare=PrepareConfig(mode=self.prepare)
        )

    def generate(self, seed: int, index: int, entities: int):
        """The generated dataset for input *index* of a run with *seed*."""
        from repro.datagen.corruptor import CorruptionConfig
        from repro.datagen.scenarios import cd_stores_scenario, students_scenario

        builders = {"students": students_scenario, "cds": cd_stores_scenario}
        options = dict(self.scenario_options)
        if options.pop("corruption", None) == "low":
            options["corruption"] = CorruptionConfig.low()
        return builders[self.scenario](
            entity_count=entities, seed=seed * SEED_STRIDE + index, **options
        )


CDS_RESOLUTIONS = {
    "title": "longest",
    "artist": "vote",
    "year": "vote",
    "genre": "vote",
    "label": "vote",
    "price": "min",
}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in [
        # Pair scoring is ~67% of a cold fuse here (traced baseline), the
        # largest share of the in-process workloads, so scoring-kernel work
        # shows.  The
        # token-block cap of 10 keeps candidates sub-quadratic at this size
        # (the default cap of 50 proposes near all pairs below ~5k entities
        # and costs ~12 s per fuse at 2k).
        Workload(
            name="students",
            kind="cold",
            scenario="students",
            entities=1500,
            smoke_entities=120,
            inputs=3,
            default_seed=47,
            key=("name", "name"),
            scenario_options={"corruption": "low"},
            dedup={"blocking": "token", "blocking_options": {"max_block_size": 10}},
        ),
        # Interactive re-query over prepared sources, the only in-process
        # workload that prepares: fusion (~33%), pair scoring (~30%, only
        # ~300 compared pairs per fuse) and duplicate seeding (~26%) share
        # a warm fuse (traced baseline).
        Workload(
            name="cds-warm",
            kind="warm",
            scenario="cds",
            entities=2000,
            smoke_entities=80,
            inputs=2,
            default_seed=43,
            key=("title", "title"),
            scenario_options={"store_count": 4},
            dedup={"blocking": "token", "blocking_options": {"max_block_size": 10}},
            prepare="eager",
            resolutions=CDS_RESOLUTIONS,
            refuses=4,
        ),
        # The only workload through HTTP, admission, the journal and on-disk
        # artifacts; closed-loop rounds of 2 concurrent sessions.
        Workload(
            name="service-wizard",
            kind="service",
            scenario="cds",
            entities=40,
            smoke_entities=15,
            inputs=32,
            default_seed=1000,
            key=("title", "title"),
            scenario_options={"store_count": 3},
        ),
    ]
}


def truth_of(dataset) -> Dict[str, Any]:
    """The JSON-able ground truth the quality metrics need."""
    origin = dataset.combined_row_origin()
    return {
        "pairs": sorted(dataset.truth.duplicate_pairs_within(origin)),
        "origin": [alias for alias, _ in origin],
        "clean": dataset.truth.clean_records,
    }


def csv_texts(dataset) -> List[Tuple[str, str]]:
    """(alias, CSV text) per source, in generation order."""
    from repro.engine.io.csv_source import relation_to_csv_text

    return [(alias, relation_to_csv_text(relation)) for alias, relation in dataset.sources.items()]


def write_input(dataset, directory: Path) -> Dict[str, Any]:
    """Write one dataset's CSV files and truth; return its descriptor."""
    directory.mkdir(parents=True, exist_ok=True)
    sources = []
    for alias, text in csv_texts(dataset):
        path = directory / f"{alias}.csv"
        path.write_text(text, encoding="utf-8")
        sources.append([alias, str(path)])
    truth = directory / "truth.json"
    truth.write_text(json.dumps(truth_of(dataset)), encoding="utf-8")
    return {"sources": sources, "truth": str(truth)}


def digest(relation) -> str:
    """Content digest of a fused relation (its CSV rendering)."""
    from repro.engine.io.csv_source import relation_to_csv_text

    return hashlib.sha256(relation_to_csv_text(relation).encode("utf-8")).hexdigest()


def check_digests(digests: Mapping[Any, Sequence[str]]) -> List[str]:
    """Failures for every input whose repeated fusions disagree."""
    return [
        f"input {key}: {len(set(values))} different fused digests over {len(values)} fusions"
        for key, values in digests.items()
        if len(set(values)) > 1
    ]


def evaluate(result, truth: Mapping[str, Any], key: Tuple[str, str]):
    """Quality of one pipeline result against its ground truth.

    Returns ``(quality, failures)``; a failure means the transformed
    relation's row order no longer matches the truth's row origin, which
    would silently misalign every pair metric.
    """
    from repro.evaluation import evaluate_clusters, evaluate_fusion
    from repro.matching import SOURCE_ID_COLUMN

    failures = []
    if list(result.transformed.column(SOURCE_ID_COLUMN)) != list(truth["origin"]):
        failures.append("transformed row order does not match the generated row origin")
    pairs = evaluate_clusters(
        result.detection.cluster_assignment, [tuple(pair) for pair in truth["pairs"]]
    )
    fusion = evaluate_fusion(result.relation, truth["clean"], key[0], key[1])
    quality = {
        "pair_precision": pairs.precision,
        "pair_recall": pairs.recall,
        "pair_f1": pairs.f1,
        "fusion_correctness": fusion.correctness,
    }
    return quality, failures


def mean_quality(qualities: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-metric mean over the inputs of one run."""
    if not qualities:
        return {}
    return {
        name: sum(quality[name] for quality in qualities) / len(qualities)
        for name in qualities[0]
    }
