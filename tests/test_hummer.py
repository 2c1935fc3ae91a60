"""Tests for the HumMer facade (public API) and the package top level."""

import pytest

import repro
from repro import HumMer
from repro.core.pipeline import FusionPipeline
from repro.core.resolution import ResolutionFunction
from repro.engine.relation import Relation
from repro.exceptions import CatalogError


class TestPackageTopLevel:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ["HumMer", "Relation", "Schema", "FusionPipeline", "DuplicateDetector"]:
            assert hasattr(repro, name)


class TestSourceManagement:
    def test_register_and_list(self, ee_students):
        hummer = HumMer()
        hummer.register("EE_Students", ee_students)
        hummer.register("people", [{"name": "X"}])
        assert hummer.sources() == ["EE_Students", "people"]
        assert len(hummer.relation("people")) == 1

    def test_register_duplicate_rejected(self, ee_students):
        hummer = HumMer()
        hummer.register("t", ee_students)
        with pytest.raises(CatalogError):
            hummer.register("t", ee_students)
        hummer.register("t", ee_students, replace=True)

    def test_unregister(self, ee_students):
        hummer = HumMer()
        hummer.register("t", ee_students)
        hummer.unregister("t")
        assert hummer.sources() == []


class TestQueries:
    def test_paper_query(self, hummer):
        result = hummer.query(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Students, CS_Students FUSE BY (Name)"
        )
        assert len(result) == 5

    def test_plain_sql_query(self, hummer):
        result = hummer.query("SELECT Name FROM EE_Students WHERE Age >= 25 ORDER BY Name")
        assert result.column("Name") == ["Ben Mueller", "David Fischer"]

    def test_explain(self, hummer):
        plan = hummer.explain("SELECT * FUSE FROM EE_Students, CS_Students")
        assert plan.is_fusion

    def test_fusion_query_honours_the_matching_config(self):
        """``use_name_fallback=False`` reaches SQL fusion queries, not just ``fuse``:
        two sources with no shared instances and only label-similar columns
        stay unmatched both ways."""
        from repro import FusionConfig, MatchingConfig

        hummer = HumMer(config=FusionConfig(matching=MatchingConfig(use_name_fallback=False)))
        hummer.register("a", [
            {"student_name": "Anna Schmidt", "email": "anna@hu-berlin.de"},
            {"student_name": "Ben Mueller", "email": "ben@hu-berlin.de"},
        ])
        hummer.register("b", [
            {"studentname": "Carla Weber", "e_mail": "carla@tu-berlin.de"},
            {"studentname": "David Fischer", "e_mail": "david@tu-berlin.de"},
        ])
        fused = hummer.fuse(["a", "b"]).relation
        queried = hummer.query("SELECT * FUSE FROM a, b")
        expected = {"student_name", "email", "studentname", "e_mail"}
        assert expected <= set(fused.column_names)
        assert expected <= set(queried.column_names)
        assert len(queried) == len(fused) == 4


class TestFuse:
    def test_automatic_fusion(self, hummer):
        result = hummer.fuse(["EE_Students", "CS_Students"])
        assert len(result.relation) == 5
        assert result.detection.cluster_count == 5
        assert len(result.correspondences) >= 2

    def test_fusion_with_resolutions(self, hummer):
        result = hummer.fuse(
            ["EE_Students", "CS_Students"],
            resolutions={"Name": "coalesce", "Age": "max"},
        )
        by_name = {row["Name"]: row["Age"] for row in result.relation}
        assert by_name["Anna Schmidt"] == 23

    def test_fusion_with_metadata_for_most_recent(self):
        hummer = HumMer()
        hummer.register(
            "reports_a",
            [
                {"person": "Anna Schmidt", "status": "missing", "updated": "2005-01-02"},
                {"person": "Ben Mueller", "status": "safe", "updated": "2005-01-05"},
            ],
        )
        hummer.register(
            "reports_b",
            [
                {"person": "Anna Schmidt", "status": "safe", "updated": "2005-02-20"},
            ],
        )
        result = hummer.query(
            "SELECT person, RESOLVE(status, most_recent('updated')) "
            "FUSE FROM reports_a, reports_b FUSE BY (person)"
        )
        by_person = {row["person"]: row["status"] for row in result}
        assert by_person["Anna Schmidt"] == "safe"

    def test_session_exposes_selection_mid_run(self, hummer):
        session = hummer.session(["EE_Students", "CS_Students"])
        session.advance_to(session.ATTRIBUTE_SELECTION)
        assert len(session.selection) > 0
        session.run()


class TestAliasLists:
    """A bare string is rejected where a list of aliases belongs — it would
    otherwise be split into one-character aliases."""

    def test_fuse_rejects_a_string(self, hummer):
        with pytest.raises(TypeError, match="aliases"):
            hummer.fuse("EE_Students")

    def test_session_rejects_a_string(self, hummer):
        with pytest.raises(TypeError, match="aliases"):
            hummer.session("EE_Students")

    def test_pipeline_session_rejects_a_string(self, catalog):
        with pytest.raises(TypeError, match="aliases"):
            FusionPipeline(catalog).session("EE_Students")

    def test_prepare_rejects_a_string(self, hummer):
        hummer.enable_prepare("lazy")
        with pytest.raises(TypeError, match="aliases"):
            hummer.prepare("EE_Students")
        assert hummer.prepare(["EE_Students"])["sources"] == ["EE_Students"]

    def test_tuples_are_still_accepted(self, hummer):
        assert len(hummer.fuse(("EE_Students", "CS_Students")).relation) == 5


class TestResolutionMaps:
    """Resolutions map column names to functions; any other shape is a
    ``TypeError`` naming the argument, not an ``AttributeError`` deep in
    spec construction."""

    @pytest.mark.parametrize("resolutions", [["x"], "x", [("Age", "max")]])
    def test_session_rejects_a_non_mapping(self, hummer, resolutions):
        with pytest.raises(TypeError, match="resolutions"):
            hummer.session(["EE_Students", "CS_Students"], resolutions=resolutions)


class TestExtensibility:
    def test_custom_resolution_function_usable_from_query(self, hummer):
        class CheapestPlusShipping(ResolutionFunction):
            """Example of a user-defined resolution function."""

            name = "youngest_age"

            def resolve(self, context):
                values = [v for v in context.non_null_values if isinstance(v, (int, float))]
                return min(values) if values else None

        hummer.register_resolution_function(CheapestPlusShipping())
        assert "youngest_age" in hummer.resolution_functions()
        result = hummer.query(
            "SELECT Name, RESOLVE(Age, youngest_age) "
            "FUSE FROM EE_Students, CS_Students FUSE BY (Name)"
        )
        by_name = {row["Name"]: row["Age"] for row in result}
        assert by_name["Anna Schmidt"] == 22
