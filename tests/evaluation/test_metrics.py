"""Tests for the evaluation metrics."""

import pytest

from repro.engine.relation import Relation
from repro.evaluation import (
    FusionQuality,
    PrecisionRecall,
    evaluate_clusters,
    evaluate_correspondences,
    evaluate_duplicate_pairs,
    evaluate_fusion,
    pairs_from_clusters,
)
from repro.matching.correspondences import Correspondence, CorrespondenceSet


class TestPrecisionRecall:
    def test_perfect(self):
        metrics = PrecisionRecall.from_sets({1, 2}, {1, 2})
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0

    def test_partial(self):
        metrics = PrecisionRecall.from_sets({1, 2, 3}, {1, 4})
        assert metrics.true_positives == 1
        assert metrics.precision == pytest.approx(1 / 3)
        assert metrics.recall == pytest.approx(1 / 2)
        assert metrics.f1 == pytest.approx(0.4)

    def test_empty_edge_cases(self):
        assert PrecisionRecall.from_sets(set(), set()).precision == 1.0
        assert PrecisionRecall.from_sets(set(), set()).recall == 1.0
        assert PrecisionRecall.from_sets(set(), {1}).f1 == 0.0

    def test_as_dict(self):
        metrics = PrecisionRecall.from_sets({1}, {1})
        assert metrics.as_dict()["tp"] == 1


class TestCorrespondenceMetrics:
    def test_case_insensitive_comparison(self):
        predicted = CorrespondenceSet(
            [Correspondence("a", "Name", "b", "StudentName", 0.9)]
        )
        metrics = evaluate_correspondences(predicted, [("name", "studentname")])
        assert metrics.f1 == 1.0

    def test_false_positive_and_negative(self):
        predicted = CorrespondenceSet(
            [Correspondence("a", "Name", "b", "Wrong", 0.9)]
        )
        metrics = evaluate_correspondences(predicted, [("Name", "StudentName")])
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1


class TestDedupMetrics:
    def test_pairs_from_clusters(self):
        assert pairs_from_clusters([0, 0, 1, 0]) == {(0, 1), (0, 3), (1, 3)}
        assert pairs_from_clusters([0, 1, 2]) == set()

    def test_evaluate_duplicate_pairs_normalises_order(self):
        metrics = evaluate_duplicate_pairs([(2, 1)], [(1, 2)])
        assert metrics.f1 == 1.0

    def test_evaluate_clusters_penalises_overmerge(self):
        truth = {(0, 1)}
        perfect = evaluate_clusters([0, 0, 1, 2], truth)
        overmerged = evaluate_clusters([0, 0, 0, 0], truth)
        assert perfect.f1 == 1.0
        assert overmerged.precision < 1.0
        assert overmerged.recall == 1.0

    def test_evaluate_clusters_penalises_undermerge(self):
        truth = {(0, 1), (1, 2), (0, 2)}
        metrics = evaluate_clusters([0, 0, 1], truth)
        assert metrics.recall == pytest.approx(1 / 3)

    def test_empty_assignment(self):
        assert pairs_from_clusters([]) == set()
        metrics = evaluate_clusters([], set())
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_all_singletons_predicts_no_pairs(self):
        assignment = list(range(6))
        assert pairs_from_clusters(assignment) == set()
        metrics = evaluate_clusters(assignment, {(0, 1)})
        assert metrics.precision == 1.0  # nothing predicted, nothing wrong
        assert metrics.recall == 0.0

    def test_one_giant_cluster_implies_all_pairs(self):
        assignment = [0] * 5
        assert len(pairs_from_clusters(assignment)) == 10  # C(5, 2)
        metrics = evaluate_clusters(assignment, {(0, 1), (2, 3)})
        assert metrics.recall == 1.0
        assert metrics.precision == pytest.approx(2 / 10)

    def test_non_dense_cluster_ids_are_accepted(self):
        # ids need not be 0..k-1 — only equality of labels matters
        sparse = pairs_from_clusters([17, 42, 17, 99])
        assert sparse == {(0, 2)}
        dense = evaluate_clusters([0, 1, 0, 2], {(0, 2)})
        assert evaluate_clusters([17, 42, 17, 99], {(0, 2)}).f1 == dense.f1 == 1.0


class TestFusionQuality:
    def make_result(self):
        return Relation.from_dicts(
            [
                {"title": "Abbey Road", "artist": "The Beatles", "price": 12.99},
                {"title": "Kind of Blue", "artist": None, "price": 9.99},
            ],
            name="fused",
        )

    def make_truth(self):
        return {
            "cd_1": {"title": "Abbey Road", "artist": "The Beatles", "price": 12.99},
            "cd_2": {"title": "Kind of Blue", "artist": "Miles Davis", "price": 9.99},
        }

    def test_quality_dimensions(self):
        quality = evaluate_fusion(
            self.make_result(), self.make_truth(), entity_key_column="title",
            entity_key_attribute="title", attributes=["artist", "price"],
        )
        assert quality.entity_count == 2
        assert quality.conciseness == 1.0
        assert quality.completeness == pytest.approx(3 / 4)
        assert quality.correctness == 1.0

    def test_wrong_value_reduces_correctness(self):
        result = Relation.from_dicts(
            [{"title": "Abbey Road", "artist": "The Rolling Stones", "price": 12.99}],
            name="fused",
        )
        quality = evaluate_fusion(
            result, self.make_truth(), "title", "title", attributes=["artist", "price"]
        )
        assert quality.correctness == pytest.approx(0.5)

    def test_redundant_result_reduces_conciseness(self):
        result = Relation.from_dicts(
            [
                {"title": "Abbey Road", "artist": "The Beatles"},
                {"title": "Abbey Road", "artist": "The Beatles"},
            ],
            name="fused",
        )
        quality = evaluate_fusion(
            result, self.make_truth(), "title", "title", attributes=["artist"]
        )
        assert quality.conciseness == pytest.approx(0.5)

    def test_numeric_tolerance(self):
        result = Relation.from_dicts(
            [{"title": "Abbey Road", "price": 13.0}], name="fused"
        )
        quality = evaluate_fusion(
            result, self.make_truth(), "title", "title", attributes=["price"]
        )
        assert quality.correctness == 1.0

    def test_as_dict(self):
        quality = FusionQuality(1.0, 1.0, 1.0, 2, 2)
        assert quality.as_dict()["tuples"] == 2

