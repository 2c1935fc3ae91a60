"""DuplicateSeeder: ordering guarantees, sampling, thresholds, degenerate inputs."""

from types import SimpleNamespace

import pytest

from repro.engine.relation import Relation
from repro.matching.duplicate_seed import (
    DuplicateSeeder,
    compute_seed_statistics,
    sample_indices,
)


def relation_of(names, name="rel"):
    return Relation.from_dicts([{"name": value} for value in names], name=name)


class TestSeedOrdering:
    def test_seeds_sorted_by_similarity_then_indices(self):
        # Three identical values on each side produce a 3x3 block of
        # equal-similarity pairs; the documented order is
        # (similarity desc, left_index asc, right_index asc).
        left = relation_of(["anna schmidt", "anna schmidt", "anna schmidt"])
        right = relation_of(["anna schmidt", "anna schmidt", "anna schmidt"])
        seeds = DuplicateSeeder(max_seeds=9, min_similarity=0.0).find_seeds(left, right)
        assert [(seed.left_index, seed.right_index) for seed in seeds] == [
            (i, j) for i in range(3) for j in range(3)
        ]
        assert len({seed.similarity for seed in seeds}) == 1

    def test_boundary_ties_prefer_smaller_indices(self):
        # More equal-similarity candidates than max_seeds: the kept subset
        # must be the smallest (left, right) pairs, not whichever entries the
        # heap happened to retain.
        left = relation_of(["bob miller"] * 4)
        right = relation_of(["bob miller"] * 4)
        seeds = DuplicateSeeder(max_seeds=5, min_similarity=0.0).find_seeds(left, right)
        assert [(seed.left_index, seed.right_index) for seed in seeds] == [
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
        ]

    def test_ordering_is_stable_across_runs(self):
        left = relation_of(["carla", "carla", "dora", "dora"])
        right = relation_of(["carla", "dora", "carla"])
        seeder = DuplicateSeeder(max_seeds=4, min_similarity=0.0)
        first = seeder.find_seeds(left, right)
        second = seeder.find_seeds(left, right)
        assert first == second


class TestSampling:
    @pytest.mark.parametrize(
        "size,limit,expected",
        [
            # at the limit and one under: no sampling at all
            (10, 10, list(range(10))),
            (9, 10, list(range(9))),
            # one over: stride stays 1 (11 // 10), capped to the first 10
            (11, 10, list(range(10))),
            # well over: every n-th row
            (20, 10, list(range(0, 20, 2))),
            (0, 10, []),
            (5, None, list(range(5))),
        ],
    )
    def test_sample_indices_stride(self, size, limit, expected):
        assert sample_indices(size, limit) == expected

    def test_seeder_samples_large_relations(self):
        values = [f"person {i:03d} name{i:03d}" for i in range(40)]
        left = relation_of(values)
        right = relation_of(values[:5])
        seeder = DuplicateSeeder(max_seeds=5, min_similarity=0.0, max_tuples_per_relation=10)
        seeds = seeder.find_seeds(left, right)
        sampled = set(sample_indices(40, 10))
        assert seeds
        assert all(seed.left_index in sampled for seed in seeds)

    @pytest.mark.parametrize("limit", [0, -1, -3, 2.5, True, "10"])
    def test_unusable_sample_limits_are_rejected(self, limit):
        # 0 used to fail later with ZeroDivisionError, a negative limit kept
        # size + limit rows, and -1 sampled a one-row relation empty
        with pytest.raises(ValueError, match="max_tuples_per_relation"):
            DuplicateSeeder(max_tuples_per_relation=limit)
        with pytest.raises(ValueError, match="max_tuples_per_relation"):
            sample_indices(10, limit)

    def test_limit_of_one_keeps_one_row(self):
        seeder = DuplicateSeeder(min_similarity=0.0, max_tuples_per_relation=1)
        seeds = seeder.find_seeds(relation_of(["anna schmidt"]), relation_of(["anna schmidt"]))
        assert [(seed.left_index, seed.right_index) for seed in seeds] == [(0, 0)]
        assert sample_indices(10, 1) == [0]

    def test_statistics_record_sampling_parameters(self):
        relation = relation_of([f"row {i}" for i in range(25)])
        statistics = compute_seed_statistics(relation, 10)
        assert statistics.row_count == 25
        assert statistics.sample_limit == 10
        assert statistics.indices == sample_indices(25, 10)
        assert statistics.document_count == len(statistics.indices)


class TestThresholdsAndDegenerateInputs:
    def test_min_similarity_filters_even_below_max_seeds(self):
        left = relation_of(["anna schmidt berlin", "completely different tokens"])
        right = relation_of(["anna schmidt berlin", "unrelated words here"])
        strict = DuplicateSeeder(max_seeds=10, min_similarity=0.95)
        seeds = strict.find_seeds(left, right)
        assert [(s.left_index, s.right_index) for s in seeds] == [(0, 0)]
        assert all(seed.similarity >= 0.95 for seed in seeds)

    def test_empty_relation_yields_no_seeds(self):
        empty = Relation.from_dicts([], name="empty")
        other = relation_of(["anna"])
        seeder = DuplicateSeeder(min_similarity=0.0)
        assert seeder.find_seeds(empty, other) == []
        assert seeder.find_seeds(other, empty) == []
        assert seeder.find_seeds(empty, empty) == []

    def test_all_null_relation_yields_no_seeds(self):
        nulls = Relation.from_dicts([{"name": None}, {"name": None}], name="nulls")
        other = relation_of(["anna", "bob"])
        seeder = DuplicateSeeder(min_similarity=0.0)
        assert seeder.find_seeds(nulls, other) == []
        assert seeder.find_seeds(nulls, nulls) == []


class TestPreparedStatistics:
    def test_provider_statistics_reproduce_cold_seeds(self):
        left = relation_of(["anna schmidt", "bob miller", "carla meyer"], name="left")
        right = relation_of(["anna schmidt", "derek chu"], name="right")
        seeder = DuplicateSeeder(max_seeds=5, min_similarity=0.0)
        cold = seeder.find_seeds(left, right)

        prebuilt = {
            id(left): compute_seed_statistics(left, seeder.max_tuples_per_relation),
            id(right): compute_seed_statistics(right, seeder.max_tuples_per_relation),
        }
        calls = []

        def provider(relation, limit):
            calls.append(limit)
            return prebuilt[id(relation)]

        prepared = SimpleNamespace(seed_statistics=provider)
        assert seeder.find_seeds(left, right, prepared=prepared) == cold
        assert calls == [seeder.max_tuples_per_relation] * 2

    def test_mismatched_provider_statistics_are_ignored(self):
        left = relation_of(["anna schmidt", "bob miller"], name="left")
        right = relation_of(["anna schmidt"], name="right")
        seeder = DuplicateSeeder(max_seeds=5, min_similarity=0.0)
        cold = seeder.find_seeds(left, right)
        # statistics sampled under a different limit must not be trusted
        prepared = SimpleNamespace(
            seed_statistics=lambda relation, limit: compute_seed_statistics(relation, 1)
        )
        assert seeder.find_seeds(left, right, prepared=prepared) == cold
