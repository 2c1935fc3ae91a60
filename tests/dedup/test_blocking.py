"""Tests for the pluggable blocking subsystem."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.dedup.blocking import (
    AllPairsBlocking,
    SortedNeighborhoodBlocking,
    TokenBlocking,
    UnionBlocking,
    resolve_blocking,
)
from repro.dedup.detector import DuplicateDetector
from repro.engine.relation import Relation
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources


@pytest.fixture
def people():
    return Relation.from_dicts(
        [
            {"name": "Anna Schmidt", "city": "Berlin"},
            {"name": "Anna Schmitd", "city": "Berlin"},
            {"name": "Ben Mueller", "city": "Hamburg"},
            {"name": "Carla Weber", "city": "Munich"},
            {"name": "Zoe Young", "city": "Dresden"},
        ],
        name="people",
    )


def combined_relation(dataset):
    sources = dataset.source_list
    matching = MultiMatcher(DumasMatcher()).match(sources)
    return transform_sources(sources, matching.correspondences)


class TestResolveBlocking:
    def test_none_is_allpairs(self):
        assert isinstance(resolve_blocking(None), AllPairsBlocking)

    def test_names_resolve(self):
        assert isinstance(resolve_blocking("allpairs"), AllPairsBlocking)
        assert isinstance(resolve_blocking("snm"), SortedNeighborhoodBlocking)
        assert isinstance(resolve_blocking("token"), TokenBlocking)

    def test_options_are_forwarded(self):
        strategy = resolve_blocking("snm", window=4)
        assert strategy.window == 4

    def test_instances_pass_through(self):
        strategy = TokenBlocking()
        assert resolve_blocking(strategy) is strategy

    def test_instance_with_options_rejected(self):
        with pytest.raises(ValueError):
            resolve_blocking(TokenBlocking(), window=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown blocking strategy"):
            resolve_blocking("sorted")

    def test_deleted_adaptive_planner_is_an_unknown_name(self):
        message = r"unknown blocking strategy 'adaptive' \(known: allpairs, snm, token, union\)"
        with pytest.raises(ValueError, match=message):
            resolve_blocking("adaptive")
        with pytest.raises(ValueError, match="unknown blocking strategy 'adaptive'"):
            resolve_blocking("union:snm+adaptive")


class TestResolveSpellings:
    def test_union_resolves_with_default_children(self):
        strategy = resolve_blocking("union")
        assert isinstance(strategy, UnionBlocking)
        assert [child.name for child in strategy.children] == ["snm", "token"]

    def test_union_composite_spelling(self):
        strategy = resolve_blocking("union:snm+token")
        assert isinstance(strategy, UnionBlocking)
        assert [child.name for child in strategy.children] == ["snm", "token"]

    def test_union_composite_single_child(self):
        strategy = resolve_blocking("union:token")
        assert [child.name for child in strategy.children] == ["token"]

    def test_union_composite_empty_rejected(self):
        with pytest.raises(ValueError, match="union blocking spec"):
            resolve_blocking("union:")

    def test_union_composite_unknown_child_rejected(self):
        with pytest.raises(ValueError, match="unknown blocking strategy"):
            resolve_blocking("union:snm+bogus")

    def test_union_composite_with_options_rejected(self):
        with pytest.raises(ValueError, match="composite union spec"):
            resolve_blocking("union:snm+token", window=4)

    def test_union_needs_a_child(self):
        with pytest.raises(ValueError, match="at least one child"):
            UnionBlocking([])


class TestUnionBlocking:
    def test_union_is_superset_of_children(self, people):
        attributes = ["name", "city"]
        snm = SortedNeighborhoodBlocking(window=2)
        token = TokenBlocking()
        union = UnionBlocking([snm, token])
        union_pairs = set(union.pairs(people, attributes))
        assert set(snm.pairs(people, attributes)) <= union_pairs
        assert set(token.pairs(people, attributes)) <= union_pairs

    def test_union_dedups_and_orders_pairs(self, people):
        union = UnionBlocking(["snm", "token"])
        pairs = list(union.pairs(people, ["name", "city"]))
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)


class TestAllPairsBlocking:
    def test_enumerates_every_pair(self, people):
        pairs = list(AllPairsBlocking().pairs(people, ["name", "city"]))
        assert pairs == [(i, j) for i in range(5) for j in range(i + 1, 5)]


class TestSortedNeighborhoodBlocking:
    def test_window_must_cover_a_neighbour(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocking(window=1)

    def test_key_style_validated(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocking(key_style="fancy")

    def test_window_sliding_pairs_only_neighbours(self, people):
        # Single pass on city with the minimal window: exactly the adjacent
        # tuples in sorted key order are paired.
        strategy = SortedNeighborhoodBlocking(window=2, keys=["city"], key_style="value")
        pairs = set(strategy.pairs(people, ["name", "city"]))
        # sorted cities: berlin(0), berlin(1), dresden(4), hamburg(2), munich(3)
        assert pairs == {(0, 1), (1, 4), (2, 4), (2, 3)}

    def test_wider_window_reaches_further(self, people):
        narrow = set(
            SortedNeighborhoodBlocking(window=2, keys=["city"]).pairs(people, ["city"])
        )
        wide = set(
            SortedNeighborhoodBlocking(window=5, keys=["city"]).pairs(people, ["city"])
        )
        assert narrow < wide
        assert wide == {(i, j) for i in range(5) for j in range(i + 1, 5)}

    def test_multi_pass_dedups_pairs(self, people):
        # Both passes propose (0, 1); the union must not repeat it.
        strategy = SortedNeighborhoodBlocking(window=3, keys=["name", "city"])
        pairs = list(strategy.pairs(people, ["name", "city"]))
        assert len(pairs) == len(set(pairs))

    def test_null_keys_sit_out_the_pass(self):
        relation = Relation.from_dicts(
            [
                {"name": "Anna", "city": None},
                {"name": "Bert", "city": None},
                {"name": "Cara", "city": "Ulm"},
                {"name": "Dora", "city": "Ulm"},
            ],
            name="sparse",
        )
        strategy = SortedNeighborhoodBlocking(window=4, keys=["city"])
        pairs = set(strategy.pairs(relation, ["city"]))
        assert pairs == {(2, 3)}

    def test_rare_first_key_canonicalises_word_swaps(self):
        relation = Relation.from_dicts(
            [
                {"affiliation": "Freie Universitaet Berlin"},
                {"affiliation": "Humboldt Universitaet Berlin"},
                {"affiliation": "Freie Berlin Universitaet"},
                {"affiliation": "TU Muenchen"},
            ],
            name="unis",
        )
        rare = SortedNeighborhoodBlocking(window=2, keys=["affiliation"])
        pairs = set(rare.pairs(relation, ["affiliation"]))
        # word order is canonicalised, so the two Freie variants are adjacent
        assert (0, 2) in pairs

    def test_max_keys_caps_defaulted_passes_only(self, people):
        capped = SortedNeighborhoodBlocking(window=3, max_keys=1)
        assert capped.pass_keys(["name", "city"]) == ["name"]
        explicit = SortedNeighborhoodBlocking(window=3, keys=["name", "city"], max_keys=1)
        assert explicit.pass_keys(["ignored"]) == ["name", "city"]


class TestTokenBlocking:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBlocking(qgram=1)
        with pytest.raises(ValueError):
            TokenBlocking(max_block_size=1)
        with pytest.raises(ValueError):
            TokenBlocking(max_block_fraction=0.0)

    def test_pairs_share_a_token(self, people):
        pairs = set(TokenBlocking().pairs(people, ["name", "city"]))
        assert (0, 1) in pairs  # share "anna" and "berlin"
        assert (3, 4) not in pairs  # no shared token

    def test_pairs_are_deduplicated(self, people):
        # (0, 1) shares both "anna" and "berlin" — proposed once.
        pairs = list(TokenBlocking().pairs(people, ["name", "city"]))
        assert len(pairs) == len(set(pairs))

    def test_block_frequency_capping(self):
        rows = [{"tag": "common", "id": f"unique{i:03d}"} for i in range(8)]
        relation = Relation.from_dicts(rows, name="tags")
        capped = TokenBlocking(max_block_size=4)
        # "common" appears in all 8 rows > cap of 4 — no pairs at all
        assert list(capped.pairs(relation, ["tag", "id"])) == []
        uncapped = TokenBlocking(max_block_size=50, max_block_fraction=1.0)
        assert len(set(uncapped.pairs(relation, ["tag", "id"]))) == 8 * 7 // 2

    def test_fractional_cap(self):
        strategy = TokenBlocking(max_block_size=1000, max_block_fraction=0.5)
        assert strategy.effective_cap(100) == 50
        assert strategy.effective_cap(2) == 2  # never below 2

    def test_qgram_tokens_survive_typos(self):
        strategy = TokenBlocking(qgram=3)
        left = strategy.tokens("Schmidt")
        right = strategy.tokens("Schmitd")
        assert left & right  # shared leading trigrams

    def test_min_token_length_drops_fragments(self):
        assert "de" not in TokenBlocking().tokens("ben m de mail")
        assert "mail" in TokenBlocking().tokens("ben m de mail")

    def test_index_build_allocates_no_rows(self, people, monkeypatch):
        # ISSUE 9: the columnar index build reads the blocking attributes
        # through zero-copy column accessors — no Row object (materialised
        # or lazy view) may be constructed for any tuple.
        from repro.engine.relation import Row

        allocations = []
        original_init = Row.__init__
        original_view = Row.view.__func__

        def counting_init(self, schema, values):
            allocations.append("init")
            original_init(self, schema, values)

        def counting_view(cls, schema, store, index):
            allocations.append("view")
            return original_view(cls, schema, store, index)

        monkeypatch.setattr(Row, "__init__", counting_init)
        monkeypatch.setattr(Row, "view", classmethod(counting_view))
        index = TokenBlocking().build_index(people, ["name", "city"])
        assert allocations == []
        assert index  # the build still produced postings

    def test_index_build_matches_row_at_a_time_reference(self, people):
        # Same postings, same token order, as a naive per-row rebuild that
        # adds each cell's tokens in sorted order.
        strategy = TokenBlocking()
        expected = {}
        for index, row in enumerate(people):
            tokens = {}
            for attribute in ("name", "city"):
                value = row[attribute]
                if value is None:
                    continue
                tokens.update(dict.fromkeys(sorted(strategy.tokens(value))))
            for token in tokens:
                expected.setdefault(token, []).append(index)
        index = strategy.build_index(people, ["name", "city"])
        assert list(index.items()) == list(expected.items())

    def test_index_provider_serves_prepared_index(self, people, monkeypatch):
        # A prepared run hands pairs() its view, whose token_index merges
        # per-source postings; when it serves, no tokenisation happens.
        strategy = TokenBlocking()
        prepared = TokenBlocking().build_index(people, ["name", "city"])
        expected = set(strategy.pairs(people, ["name", "city"]))

        def fail_build(self, relation, attributes):  # pragma: no cover - guard
            raise AssertionError("cold build must not run when the view serves")

        view = SimpleNamespace(token_index=lambda relation, attributes, cap: prepared)
        monkeypatch.setattr(TokenBlocking, "build_index", fail_build)
        assert set(strategy.pairs(people, ["name", "city"], view)) == expected

    def test_index_provider_declining_falls_back_to_cold_build(self, people):
        # A view returning None (foreign relation, parameter mismatch)
        # means "build it yourself" — results are unchanged either way.
        strategy = TokenBlocking()
        baseline = set(TokenBlocking().pairs(people, ["name", "city"]))
        calls = []

        def declining(relation, attributes, cap):
            calls.append((tuple(attributes), cap))
            return None

        view = SimpleNamespace(token_index=declining)
        assert set(strategy.pairs(people, ["name", "city"], view)) == baseline
        # pairs() hands the view its block-size cap
        assert calls == [(("name", "city"), strategy.effective_cap(len(people)))]

    def test_mutated_relation_is_not_served_stale_candidates(self, people):
        # Without a prepared view every pairs() call tokenises the
        # relation as it currently is (index reuse lives in the catalog's
        # artifact store, which validates content digests), so even a caller
        # that mutates row storage in place gets fresh candidates.
        strategy = TokenBlocking()
        before = set(strategy.pairs(people, ["name", "city"]))
        assert (0, 1) in before
        people.store.column(0)[1] = "Completely Different"
        people.store.column(1)[1] = "Elsewhere"
        after = set(strategy.pairs(people, ["name", "city"]))
        assert (0, 1) not in after  # row 1 no longer shares a token with row 0

    def test_hash_colliding_content_is_not_conflated(self):
        # hash(True) == hash(1) but str(True) != str(1): indexes must keep
        # the relations' textual cell forms apart.
        strategy = TokenBlocking(min_token_length=1)
        bools = Relation.from_dicts(
            [{"flag": True, "name": "anna"}, {"flag": True, "name": "anna b"}],
            name="bools",
        )
        ints = Relation.from_dicts(
            [{"flag": 1, "name": "anna"}, {"flag": 1, "name": "anna b"}],
            name="ints",
        )
        bool_index = strategy.indexed_blocks(bools, ["flag", "name"])
        int_index = strategy.indexed_blocks(ints, ["flag", "name"])
        assert "true" in bool_index and "true" not in int_index
        assert "1" in int_index and "1" not in bool_index

    def test_accents_normalised_like_the_measure(self):
        # Blocking shares the measure's accent-stripping normalisation, so
        # accented variants land in the same blocks / sort adjacently.
        relation = Relation.from_dicts(
            [
                {"name": "Jörg Müller", "city": "München"},
                {"name": "Jorg Muller", "city": "Munchen"},
                {"name": "Zoe Young", "city": "Dresden"},
            ],
            name="accents",
        )
        assert (0, 1) in set(TokenBlocking().pairs(relation, ["name", "city"]))
        snm = SortedNeighborhoodBlocking(window=2, keys=["name"])
        assert (0, 1) in set(snm.pairs(relation, ["name"]))


# Fuses a 60-entity students input with token blocking, cold and over
# eagerly prepared sources, and prints every scored pair in detection order.
SCORE_ORDER_SCRIPT = """
from repro import DedupConfig, FusionConfig, HumMer, PrepareConfig
from repro.datagen.scenarios import students_scenario

dataset = students_scenario(entity_count=60, seed=7)
for mode in (None, "eager"):
    config = FusionConfig(dedup=DedupConfig(blocking="token"), prepare=PrepareConfig(mode=mode))
    hummer = HumMer(config=config)
    for alias, relation in dataset.sources.items():
        hummer.register(alias, relation)
    result = hummer.fuse(list(dataset.sources))
    print(mode)
    for score in result.detection.scores:
        print(score.left_index, score.right_index, score.similarity.hex())
"""


def test_token_blocking_score_order_does_not_depend_on_the_hash_seed():
    # A row's tokens must not be read in the order of a set: that order
    # follows string hashing, which PYTHONHASHSEED varies per process.
    source = str(Path(__file__).resolve().parents[2] / "src")

    def scored(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", SCORE_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.splitlines()

    first = scored("1")
    assert len(first) > 100
    assert scored("2") == first


class TestDetectorIntegration:
    def test_detector_accepts_strategy_names(self, people):
        for blocking in ["allpairs", "snm", "token"]:
            result = DuplicateDetector(threshold=0.7, blocking=blocking).detect(people)
            assignment = result.cluster_assignment
            assert assignment[0] == assignment[1]

    def test_statistics_report_blocking_stage(self, people):
        result = DuplicateDetector(threshold=0.7, blocking="token").detect(people)
        stats = result.filter_statistics
        assert stats.total_pairs == 10
        assert 0 < stats.blocking_candidates < stats.total_pairs
        assert stats.blocking_pruned == stats.total_pairs - stats.blocking_candidates
        assert 0.0 < stats.blocking_ratio < 1.0
        assert stats.considered == stats.blocking_candidates
        assert set(stats.as_dict()) >= {
            "total_pairs",
            "blocking_candidates",
            "blocking_pruned",
            "cross_source_skipped",
            "considered",
            "pruned",
            "compared",
        }

    def test_hummer_configured_blocking_reaches_detector(self):
        from repro.config import DedupConfig, FusionConfig
        from repro.hummer import HumMer

        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(blocking="token")))
        assert isinstance(hummer.detector.blocking, TokenBlocking)

    def test_allpairs_statistics_unchanged(self, people):
        stats = DuplicateDetector(blocking="allpairs").detect(people).filter_statistics
        assert stats.blocking_candidates == stats.total_pairs == 10
        assert stats.blocking_pruned == 0


@pytest.mark.parametrize("strategy", ["snm", "token"])
class TestRecallParity:
    """Blocked detection recovers the identical accepted duplicate-pair set.

    The acceptance bar for the blocking subsystem: on the low-corruption
    students and CD-store scenarios, `snm` and `token` accept exactly the
    pairs the all-pairs baseline accepts while proposing fewer candidates.
    """

    def assert_parity(self, combined, strategy):
        baseline = DuplicateDetector(blocking="allpairs").detect(combined)
        blocked = DuplicateDetector(blocking=strategy).detect(combined)
        assert set(blocked.duplicate_pairs) == set(baseline.duplicate_pairs)
        assert blocked.cluster_assignment == baseline.cluster_assignment
        assert (
            blocked.filter_statistics.blocking_candidates
            < baseline.filter_statistics.blocking_candidates
        )

    def test_students_low_corruption(self, small_students_dataset, strategy):
        self.assert_parity(combined_relation(small_students_dataset), strategy)

    def test_cd_store_low_corruption(self, small_cds_dataset, strategy):
        self.assert_parity(combined_relation(small_cds_dataset), strategy)


class TestCrossSourceStatistics:
    def test_cross_source_skips_are_counted(self):
        relation = Relation.from_dicts(
            [
                {"name": "Anna Schmidt", "sourceID": "a"},
                {"name": "Anna Schmidt", "sourceID": "a"},
                {"name": "Anna Schmidt", "sourceID": "b"},
            ],
            name="people",
        )
        result = DuplicateDetector(cross_source_only=True).detect(relation)
        stats = result.filter_statistics
        assert stats.cross_source_skipped == 1  # the a/a pair
        assert stats.considered == 2

    def test_absent_source_column_skips_nothing(self, people):
        result = DuplicateDetector(cross_source_only=True).detect(people)
        assert result.filter_statistics.cross_source_skipped == 0
