"""Merged per-source artifacts must equal the cold combined-relation structures.

These are the load-bearing guarantees of the prepared-source layer: the
merged token index is *member-identical* (same tokens, same ascending row
lists) to tokenising the outer-unioned relation from scratch, and the merged
planner profile carries exactly the statistics cold profiling computes —
so preparing can change runtimes but never results.
"""

import pytest

from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import students_scenario
from repro.dedup.blocking.adaptive import profile_relation
from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.descriptions import select_interesting_attributes
from repro.engine.catalog import Catalog
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources
from repro.prepare import SourcePreparer


@pytest.fixture(scope="module")
def prepared_setup():
    """Catalog + prepared artifacts + matched and combined student sources."""
    dataset = students_scenario(
        entity_count=80, corruption=CorruptionConfig.low(), seed=41
    )
    catalog = Catalog()
    for alias, relation in dataset.sources.items():
        catalog.register(alias, relation)
    aliases = list(dataset.sources)
    prepared = SourcePreparer(catalog).prepare(aliases)
    sources = catalog.fetch_many(aliases)
    matching = MultiMatcher(DumasMatcher()).match(sources)
    combined = transform_sources(sources, matching.correspondences)
    view = prepared.view(combined, matching.correspondences, matching.preferred)
    attributes = list(select_interesting_attributes(combined).attributes)
    return prepared, view, combined, attributes


class TestTokenIndexMerge:
    def test_merged_index_equals_cold_build(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        merged = view.token_index(combined, attributes)
        cold = TokenBlocking().build_index(combined, attributes)
        assert merged is not None
        assert merged.keys() == cold.keys()
        for token, members in cold.items():
            assert merged[token] == members  # same rows, same ascending order

    def test_merged_index_yields_identical_candidate_pairs(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        cold_strategy = TokenBlocking()
        cold_pairs = list(cold_strategy.pairs(combined, attributes))
        warm_strategy = TokenBlocking()
        assert set(warm_strategy.pairs(combined, attributes, view)) == set(cold_pairs)

    def test_foreign_relation_is_declined(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        clone = combined.copy()
        assert view.token_index(clone, attributes) is None

    def test_source_id_attribute_is_declined(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        assert view.token_index(combined, list(attributes) + ["sourceID"]) is None

    def test_parameter_mismatch_is_declined(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        qgram_strategy = TokenBlocking(qgram=3)
        assert (
            view.merged_profile(combined, attributes, qgram_strategy, 4) is None
        )


class TestProfileMerge:
    def test_merged_profile_equals_cold_profile(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        token_strategy = TokenBlocking()
        merged = view.merged_profile(combined, attributes, token_strategy, 4)
        cold = profile_relation(
            combined, attributes, token_strategy=token_strategy, max_attributes=4
        )
        assert merged is not None
        assert merged.tuple_count == cold.tuple_count
        assert merged.total_pairs == cold.total_pairs
        assert merged.token_count == cold.token_count
        assert merged.dropped_block_count == cold.dropped_block_count
        assert merged.mean_block_size == cold.mean_block_size
        assert len(merged.attributes) == len(cold.attributes)
        for merged_attr, cold_attr in zip(merged.attributes, cold.attributes):
            assert merged_attr.attribute == cold_attr.attribute
            # exact float equality: same operands, same operations
            assert merged_attr.null_rate == cold_attr.null_rate
            assert merged_attr.distinct_ratio == cold_attr.distinct_ratio
            assert merged_attr.corruption_estimate == cold_attr.corruption_estimate
        assert merged.corruption_estimate == cold.corruption_estimate

    def test_merged_profile_respects_attribute_cap(self, prepared_setup):
        _, view, combined, attributes = prepared_setup
        merged = view.merged_profile(combined, attributes, TokenBlocking(), 2)
        assert merged is not None
        assert len(merged.attributes) == min(2, len(attributes))


class TestSeedStatisticsLookup:
    def test_bundle_statistics_match_cold_computation(self, prepared_setup):
        from repro.matching.duplicate_seed import compute_seed_statistics

        prepared, _, _, _ = prepared_setup
        for bundle in prepared.bundles:
            cold = compute_seed_statistics(bundle.relation, 500)
            assert bundle.seeds.documents == cold.documents
            assert bundle.seeds.document_frequency == cold.document_frequency
            assert bundle.seeds.indices == cold.indices

    def test_lookup_is_by_object_identity(self, prepared_setup):
        prepared, _, _, _ = prepared_setup
        relation = prepared.bundles[0].relation
        assert prepared.seed_statistics(relation, 500) is prepared.bundles[0].seeds
        assert prepared.seed_statistics(relation.copy(), 500) is None
        assert prepared.seed_statistics(relation, 123) is None  # wrong sample limit
