"""E3 — conflict-resolution strategies vs. plain UNION and GROUP BY baselines.

Fuse By-style experiment (Bleiholder & Naumann, ADBIS 2005): fuse the CD-store
catalogs with different per-column resolution strategies and measure the
data-fusion quality dimensions — completeness, conciseness, correctness —
against the generator's clean catalog; compare with

* the plain outer UNION (no duplicate handling at all), and
* SQL GROUP BY on the (dirty) title key with a standard aggregate.

Expected shape: UNION is complete but maximally redundant (low conciseness);
GROUP BY on a dirty key is concise only for exact key matches; every Fuse By
strategy reaches full conciseness, with correctness depending on the strategy
(vote/min/coalesce differ only on genuinely conflicting attributes).
"""

from benchmarks.conftest import print_table
from repro.baselines.groupby_fusion import groupby_fusion
from repro.baselines.naive_union import naive_union
from repro.core.fusion import FusionSpec, ResolutionSpec, FusionOperator
from repro.core.pipeline import FusionPipeline
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario
from repro.engine.catalog import Catalog
from repro.evaluation import evaluate_fusion

STRATEGIES = {
    "coalesce (default)": {},
    "vote": {"artist": "vote", "title": "vote", "year": "vote", "genre": "vote", "label": "vote"},
    "min price / vote rest": {"price": "min", "year": "vote", "genre": "vote"},
    "longest strings": {"artist": "longest", "title": "longest", "label": "longest"},
    "most precise numerics": {"price": "most_precise", "year": "vote"},
}

ATTRIBUTES = ["artist", "year", "genre", "label", "price"]


def build():
    dataset = cd_stores_scenario(
        entity_count=70, store_count=3, overlap=0.6,
        corruption=CorruptionConfig.low(), seed=33,
    )
    catalog = Catalog()
    for alias, relation in dataset.sources.items():
        catalog.register(alias, relation)
    session = FusionPipeline(catalog).session(list(dataset.sources))
    detection = session.advance_to(session.DUPLICATE_DETECTION)
    return dataset, session.pipeline, session.sources, session.matching, detection


def quality(relation, dataset):
    return evaluate_fusion(
        relation,
        dataset.truth.clean_records,
        entity_key_column="title",
        entity_key_attribute="title",
        attributes=[a for a in ATTRIBUTES if relation.schema.has_column(a)],
    )


def test_e3_resolution_strategies_vs_baselines(benchmark):
    dataset, pipeline, sources, matching, detection = build()
    rows = []

    union_result = naive_union(sources, matching.correspondences)
    union_quality = quality(union_result, dataset)
    rows.append(("UNION (no fusion)",) + tuple(union_quality.as_dict().values()))

    groupby_result = groupby_fusion(
        union_result.without_columns(["sourceID"]), ["title"], aggregate="min"
    )
    groupby_quality = quality(groupby_result, dataset)
    rows.append(("GROUP BY title / MIN",) + tuple(groupby_quality.as_dict().values()))

    strategy_qualities = {}
    for label, preferences in STRATEGIES.items():
        resolutions = [
            ResolutionSpec(column.name, preferences.get(column.name.lower()))
            for column in detection.relation.schema
            if column.name.lower() not in ("objectid", "sourceid")
        ]
        # one detection, fused under every strategy
        fusion = FusionOperator(
            FusionSpec(resolutions=resolutions),
            registry=pipeline.registry,
            table_name="fused",
        ).fuse(detection.relation)
        strategy_quality = quality(fusion.relation, dataset)
        strategy_qualities[label] = strategy_quality
        rows.append((f"FUSE BY: {label}",) + tuple(strategy_quality.as_dict().values()))

    print_table(
        "E3: fusion quality per strategy (CD stores)",
        ["strategy", "completeness", "conciseness", "correctness", "tuples", "entities"],
        rows,
    )

    # Expected shape: every Fuse By strategy removes more redundancy than the
    # plain UNION (far fewer tuples, higher conciseness) and at least as much
    # as GROUP BY on the dirty natural key (which cannot merge typo'd keys).
    for label, strategy_quality in strategy_qualities.items():
        assert strategy_quality.conciseness > union_quality.conciseness, label
        assert strategy_quality.tuple_count <= groupby_quality.tuple_count, label
        assert strategy_quality.tuple_count < union_quality.tuple_count, label

    default_spec = FusionSpec()
    benchmark.pedantic(
        lambda: FusionOperator(default_spec).fuse(detection.relation), rounds=1, iterations=1
    )
