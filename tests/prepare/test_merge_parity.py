"""Merged per-source artifacts must equal the cold combined-relation structures.

These are the load-bearing guarantees of the prepared-source layer: the
merged token index is *member-identical* (same tokens, same ascending row
lists) to tokenising the outer-unioned relation from scratch, and the
prebuilt seeding statistics equal the cold computation — so preparing can
change runtimes but never results.
"""

from types import SimpleNamespace

import pytest

from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
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
    return prepare_and_combine(
        students_scenario(entity_count=80, corruption=CorruptionConfig.low(), seed=41)
    )


@pytest.fixture(scope="module", params=["students", "cds"])
def any_setup(request, prepared_setup):
    """The students setup, and three CD stores (a merge over three sources)."""
    if request.param == "students":
        return prepared_setup
    return prepare_and_combine(cd_stores_scenario(entity_count=60, store_count=3, seed=7))


def prepare_and_combine(dataset):
    """The prepared bundle, its merge view, the combined relation and its
    interesting attributes, for *dataset*'s matched sources."""
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


class TestCappedMerge:
    """``pairs()`` hands its cap to the merge, which leaves out every token
    whose merged block must exceed it: the candidate sequence is the
    uncapped merge's, and its set the cold path's."""

    @pytest.mark.parametrize("cap", [2, 3, 10, 50])
    def test_capped_merge_keeps_the_candidate_sequence(self, any_setup, cap):
        _, view, combined, attributes = any_setup
        strategy = TokenBlocking(max_block_size=cap, max_block_fraction=1.0)
        uncapped = SimpleNamespace(
            token_index=lambda relation, attributes, cap: view.token_index(relation, attributes)
        )
        capped = list(strategy.pairs(combined, attributes, view))
        assert capped == list(strategy.pairs(combined, attributes, uncapped))
        assert set(capped) == set(strategy.pairs(combined, attributes))

    @pytest.mark.parametrize("cap", [2, 3, 10, 50])
    def test_every_omitted_token_has_a_block_above_the_cap(self, any_setup, cap):
        _, view, combined, attributes = any_setup
        full = view.token_index(combined, attributes)
        capped = view.token_index(combined, attributes, cap)
        assert list(capped) == [token for token in full if token in capped]
        omitted = [token for token in full if token not in capped]
        assert all(capped[token] == full[token] for token in capped)
        assert all(len(full[token]) > cap for token in omitted)
        if cap <= 3:
            assert omitted  # the cap bites on these inputs


class TestSeedStatisticsLookup:
    def test_bundle_statistics_match_cold_computation(self, prepared_setup):
        from repro.matching.duplicate_seed import compute_seed_statistics

        prepared, _, _, _ = prepared_setup
        for bundle in prepared.bundles:
            cold = compute_seed_statistics(bundle.relation, 500)
            assert bundle.seeds.vocabulary == cold.vocabulary
            for name in ("terms", "counts", "offsets"):
                assert getattr(bundle.seeds, name).tolist() == getattr(cold, name).tolist()
            assert bundle.seeds.document_frequency == cold.document_frequency
            assert bundle.seeds.indices == cold.indices

    def test_lookup_is_by_object_identity(self, prepared_setup):
        prepared, _, _, _ = prepared_setup
        relation = prepared.bundles[0].relation
        assert prepared.seed_statistics(relation, 500) is prepared.bundles[0].seeds
        assert prepared.seed_statistics(relation.copy(), 500) is None
        assert prepared.seed_statistics(relation, 123) is None  # wrong sample limit
