"""Tests for multi-relation matching and the data-transformation step."""

import pytest

from repro.baselines.name_matcher import NameBasedMatcher
from repro.datagen.scenarios import cd_stores_scenario
from repro.engine.relation import Relation
from repro.matching import dumas, duplicate_seed
from repro.matching.correspondences import Correspondence, CorrespondenceSet
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import (
    SOURCE_ID_COLUMN,
    add_source_id,
    apply_correspondences,
    transform_sources,
)


def fingerprint(result):
    """Seeds and correspondences of a pairwise match, exact floats included."""
    return (
        [(s.left_index, s.right_index, s.similarity) for s in result.seeds],
        [(c.left_attribute, c.right_attribute, c.score) for c in result.correspondences],
    )


class TestMultiMatcher:
    def test_two_relations(self, ee_students, cs_students):
        result = MultiMatcher().match([ee_students, cs_students])
        assert result.preferred == "EE_Students"
        assert len(result.correspondences) >= 2

    def test_three_relations(self, small_cds_dataset):
        sources = small_cds_dataset.source_list
        result = MultiMatcher().match(sources)
        # every non-preferred relation contributed correspondences
        assert set(result.per_relation) == {s.name for s in sources[1:]}

    def test_single_relation(self, ee_students):
        result = MultiMatcher().match([ee_students])
        assert len(result.correspondences) == 0

    def test_requires_input(self):
        with pytest.raises(ValueError):
            MultiMatcher().match([])

    def test_fallback_used_when_instances_do_not_overlap(self, ee_students):
        disjoint = Relation.from_dicts(
            [{"Name": "Zora Quux", "Age": 99, "Major": "Alchemy"}], name="Other"
        )
        without_fallback = MultiMatcher(DumasMatcher())
        assert without_fallback.match([ee_students, disjoint]).failed_relations == ["Other"]
        with_fallback = MultiMatcher(DumasMatcher(), fallback=NameBasedMatcher())
        result = with_fallback.match([ee_students, disjoint])
        assert result.failed_relations == []
        assert len(result.correspondences) >= 2

    def test_cold_match_builds_each_relation_statistics_once(self, monkeypatch):
        """The preferred store is in every pairwise match, yet its seeding
        statistics and field-corpus counts are built once per match() call,
        and every pairwise result equals a standalone pairwise match."""
        sources = cd_stores_scenario(entity_count=40, store_count=4, seed=7).source_list
        builds = []
        for module, name in (
            (duplicate_seed, "compute_seed_statistics"),
            (dumas, "field_corpus_counts"),
        ):
            def counting(relation, *args, original=getattr(module, name), name=name):
                builds.append((name, relation.name))
                return original(relation, *args)

            monkeypatch.setattr(module, name, counting)

        result = MultiMatcher().match(sources)
        assert sorted(builds) == sorted(
            (name, source.name)
            for name in ("compute_seed_statistics", "field_corpus_counts")
            for source in sources
        )
        assert set(result.per_relation) == {source.name for source in sources[1:]}
        for other in sources[1:]:
            alone = DumasMatcher().match(sources[0], other)
            assert fingerprint(result.per_relation[other.name]) == fingerprint(alone)

    def test_rename_mapping_for_relation(self, ee_students, cs_students):
        result = MultiMatcher().match([ee_students, cs_students])
        mapping = result.rename_mapping("CS_Students")
        assert mapping.get("StudentName") == "Name"


class TestTransform:
    def test_add_source_id(self, ee_students):
        tagged = add_source_id(ee_students)
        assert tagged.column(SOURCE_ID_COLUMN) == ["EE_Students"] * len(ee_students)

    def test_add_source_id_idempotent(self, ee_students):
        tagged = add_source_id(add_source_id(ee_students))
        assert tagged.column_names.count(SOURCE_ID_COLUMN) == 1

    def test_apply_correspondences_renames_non_preferred(self, cs_students):
        correspondences = CorrespondenceSet(
            [Correspondence("EE_Students", "Name", "CS_Students", "StudentName", 0.9)]
        )
        renamed = apply_correspondences(cs_students, correspondences, "EE_Students")
        assert "Name" in renamed.schema
        assert "StudentName" not in renamed.schema

    def test_apply_correspondences_keeps_preferred_untouched(self, ee_students):
        correspondences = CorrespondenceSet(
            [Correspondence("EE_Students", "Name", "CS_Students", "StudentName", 0.9)]
        )
        assert apply_correspondences(ee_students, correspondences, "EE_Students") is ee_students

    def test_apply_correspondences_avoids_collisions(self):
        relation = Relation.from_dicts([{"title": "a", "name": "b"}], name="R")
        correspondences = CorrespondenceSet(
            [Correspondence("P", "name", "R", "title", 0.9)]
        )
        renamed = apply_correspondences(relation, correspondences, "P")
        # renaming title->name would collide with the existing name column
        assert set(renamed.column_names) == {"title", "name"}

    def test_transform_sources_produces_outer_union_with_source_ids(
        self, ee_students, cs_students
    ):
        correspondences = CorrespondenceSet(
            [
                Correspondence("EE_Students", "Name", "CS_Students", "StudentName", 1.0),
                Correspondence("EE_Students", "Age", "CS_Students", "Years", 0.9),
                Correspondence("EE_Students", "Major", "CS_Students", "Field", 0.9),
                Correspondence("EE_Students", "Email", "CS_Students", "Mail", 0.9),
            ]
        )
        combined = transform_sources([ee_students, cs_students], correspondences)
        assert len(combined) == len(ee_students) + len(cs_students)
        assert set(combined.column_names) == {
            "Name", "Age", "Major", "Email", SOURCE_ID_COLUMN,
        }
        assert set(combined.column(SOURCE_ID_COLUMN)) == {"EE_Students", "CS_Students"}

    def test_transform_sources_without_correspondences_pads_with_nulls(
        self, ee_students, cs_students
    ):
        combined = transform_sources([ee_students, cs_students], CorrespondenceSet())
        # un-aligned: both schemata side by side
        assert "StudentName" in combined.schema
        assert combined.cell(0, "StudentName") is None

    def test_transform_requires_input(self):
        with pytest.raises(ValueError):
            transform_sources([], CorrespondenceSet())
