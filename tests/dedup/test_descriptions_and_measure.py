"""Tests for attribute selection heuristics and the duplicate similarity measure."""

import pytest

from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.relation import Relation


@pytest.fixture
def dirty_people():
    return Relation.from_dicts(
        [
            {"name": "Anna Schmidt", "age": 22, "city": "Berlin", "constant": "x", "sparse": None, "sourceID": "a"},
            {"name": "Anna Schmitd", "age": 22, "city": "Berlin", "constant": "x", "sparse": None, "sourceID": "b"},
            {"name": "Ben Mueller", "age": 25, "city": "Hamburg", "constant": "x", "sparse": None, "sourceID": "a"},
            {"name": "Carla Weber", "age": 23, "city": "Berlin", "constant": "x", "sparse": "y", "sourceID": "b"},
            {"name": "David Fischer", "age": 27, "city": "Munich", "constant": "x", "sparse": None, "sourceID": "a"},
        ],
        name="people",
    )


class TestAttributeSelection:
    def test_system_columns_rejected(self, dirty_people):
        selection = select_interesting_attributes(dirty_people)
        assert "sourceID" not in selection
        assert "sourceID" in selection.rejected

    def test_sparse_column_rejected(self, dirty_people):
        # sparse is null in 4 of 5 rows; with a stricter null budget it is dropped
        selection = select_interesting_attributes(dirty_people, max_null_ratio=0.7)
        assert "sparse" not in selection
        assert "sparse" in selection.rejected

    def test_constant_column_rejected(self, dirty_people):
        # constant has a single value; with a stricter distinctness bar it is dropped
        selection = select_interesting_attributes(dirty_people, min_distinctness=0.25)
        assert "constant" not in selection
        assert "constant" in selection.rejected

    def test_identifying_columns_kept_with_high_weight(self, dirty_people):
        selection = select_interesting_attributes(dirty_people)
        assert "name" in selection
        assert selection.weights["name"] >= selection.weights["city"]

    def test_always_include_overrides_heuristics(self, dirty_people):
        selection = select_interesting_attributes(dirty_people, always_include=["constant"])
        assert "constant" in selection

    def test_exclude_overrides_heuristics(self, dirty_people):
        selection = select_interesting_attributes(dirty_people, exclude=["name"])
        assert "name" not in selection

    def test_user_adjustment_add_remove(self, dirty_people):
        selection = select_interesting_attributes(dirty_people)
        selection.remove("city")
        assert "city" not in selection
        assert "city" in selection.rejected
        selection.add("city", weight=0.5)
        assert "city" in selection
        assert selection.weights["city"] == 0.5

    def test_len_and_iter(self, dirty_people):
        selection = select_interesting_attributes(dirty_people)
        assert len(selection) == len(list(selection))


class TestDuplicateSimilarityMeasure:
    def make_measure(self, relation, **kwargs):
        selection = select_interesting_attributes(relation)
        return DuplicateSimilarityMeasure(selection, **kwargs).fit(relation)

    def test_identical_rows_score_one(self, dirty_people):
        measure = self.make_measure(dirty_people)
        row = dirty_people.rows[0]
        assert measure.compare_rows(row, row) == pytest.approx(1.0)

    def test_typo_duplicate_scores_higher_than_different_person(self, dirty_people):
        measure = self.make_measure(dirty_people)
        rows = dirty_people.rows
        duplicate_score = measure.compare_rows(rows[0], rows[1])
        different_score = measure.compare_rows(rows[0], rows[2])
        assert duplicate_score > 0.75
        assert different_score < duplicate_score

    def test_missing_values_are_neutral(self, dirty_people):
        measure = self.make_measure(dirty_people)
        evidence = measure.explain_rows(dirty_people.rows[0], dirty_people.rows[1])
        # "sparse" is not selected at all; nothing about missing data lowers the score
        assert evidence.similarity > 0.75

    def test_explain_reports_contradictions(self, dirty_people):
        measure = self.make_measure(dirty_people)
        evidence = measure.explain_rows(dirty_people.rows[0], dirty_people.rows[2])
        assert "name" in evidence.contradicting_attributes or "name" in evidence.per_attribute

    def test_soft_idf_rare_values_weigh_more(self, dirty_people):
        measure = self.make_measure(dirty_people)
        rare = measure.soft_idf("city", "Munich")     # appears once
        common = measure.soft_idf("city", "Berlin")   # appears three times
        assert rare > common

    def test_soft_idf_null_is_zero(self, dirty_people):
        measure = self.make_measure(dirty_people)
        assert measure.soft_idf("city", None) == 0.0

    def test_upper_bound_never_below_true_similarity(self, dirty_people):
        measure = self.make_measure(dirty_people)
        rows = dirty_people.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert measure.upper_bound(rows[i], rows[j]) >= measure.compare_rows(
                    rows[i], rows[j]
                ) - 1e-9

    def test_upper_bound_does_not_depend_on_call_history(self):
        # 0.0 == -0.0 and the rows hash alike, but their text differs; a
        # per-row memo keyed by the row's hash served r0's trigrams for r1
        relation = Relation.from_dicts(
            [
                {"name": "anna", "price": 0.0},
                {"name": "anna", "price": -0.0},
                {"name": "zzzz", "price": "-0.0"},
            ]
        )
        selection = AttributeSelection(["name", "price"], weights={"name": 1.0, "price": 1.0})
        r0, r1, r2 = relation.rows
        warmed = DuplicateSimilarityMeasure(selection).fit(relation)
        warmed.upper_bound(r0, r2)
        fresh = DuplicateSimilarityMeasure(selection).fit(relation)
        assert warmed.upper_bound(r1, r2) == fresh.upper_bound(r1, r2)
        assert fresh.upper_bound(r1, r2) == fresh.columnar_scorer(relation).upper_bound(1, 2)

    def test_numeric_range_scaling_separates_ages(self):
        relation = Relation.from_dicts(
            [{"name": f"P{i}", "age": 18 + i} for i in range(12)], name="ages"
        )
        selection = select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        same_age = measure._attribute_similarity("age", 20, 20)
        far_age = measure._attribute_similarity("age", 18, 29)
        assert same_age == pytest.approx(1.0)
        assert far_age < 0.1

    def test_sharpness_one_reproduces_raw_similarity(self, dirty_people):
        selection = select_interesting_attributes(dirty_people)
        soft = DuplicateSimilarityMeasure(selection, sharpness=1.0).fit(dirty_people)
        sharp = DuplicateSimilarityMeasure(selection, sharpness=3.0).fit(dirty_people)
        rows = dirty_people.rows
        assert soft.compare_rows(rows[0], rows[2]) >= sharp.compare_rows(rows[0], rows[2])

    def test_unknown_columns_in_selection_are_ignored(self, dirty_people):
        selection = AttributeSelection(attributes=["name", "ghost_column"])
        measure = DuplicateSimilarityMeasure(selection).fit(dirty_people)
        assert measure.compare_rows(dirty_people.rows[0], dirty_people.rows[0]) == 1.0

    def test_empty_selection_scores_zero(self, dirty_people):
        selection = AttributeSelection(attributes=[])
        measure = DuplicateSimilarityMeasure(selection).fit(dirty_people)
        assert measure.compare_rows(dirty_people.rows[0], dirty_people.rows[1]) == 0.0
