"""Tests for the metadata repository (catalog)."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.io.inline import InlineSource
from repro.engine.relation import Relation
from repro.exceptions import CatalogError


@pytest.fixture
def relation():
    return Relation.from_dicts([{"a": 1}, {"a": 2}], name="numbers")


class TestRegistration:
    def test_register_relation(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        assert catalog.has("numbers")
        assert len(catalog) == 1

    def test_register_dicts(self):
        catalog = Catalog()
        catalog.register("people", [{"name": "X"}, {"name": "Y"}])
        assert len(catalog.fetch("people")) == 2

    def test_register_data_source(self, relation):
        catalog = Catalog()
        catalog.register("numbers", InlineSource(relation))
        assert catalog.fetch("numbers").column("a") == [1, 2]

    def test_duplicate_alias_rejected(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        with pytest.raises(CatalogError):
            catalog.register("NUMBERS", relation)

    def test_replace_allows_overwrite(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        catalog.register("numbers", [{"a": 9}], replace=True)
        assert catalog.fetch("numbers").column("a") == [9]

    def test_unregister(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        catalog.unregister("numbers")
        assert not catalog.has("numbers")

    def test_unregister_unknown_raises(self):
        with pytest.raises(CatalogError):
            Catalog().unregister("ghost")


class TestFetch:
    def test_fetch_renames_to_alias(self, relation):
        catalog = Catalog()
        catalog.register("my_numbers", relation)
        assert catalog.fetch("my_numbers").name == "my_numbers"

    def test_fetch_unknown_raises_with_known_aliases(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        with pytest.raises(CatalogError) as excinfo:
            catalog.fetch("ghost")
        assert "numbers" in str(excinfo.value)

    def test_fetch_is_cached(self, relation):
        calls = []

        class CountingSource(InlineSource):
            def load(self):
                calls.append(1)
                return super().load()

        catalog = Catalog()
        catalog.register("numbers", CountingSource(relation))
        catalog.fetch("numbers")
        catalog.fetch("numbers")
        assert len(calls) == 1

    def test_invalidate_forces_reload(self, relation):
        calls = []

        class CountingSource(InlineSource):
            def load(self):
                calls.append(1)
                return super().load()

        catalog = Catalog()
        catalog.register("numbers", CountingSource(relation))
        catalog.fetch("numbers")
        catalog.invalidate("numbers")
        catalog.fetch("numbers")
        assert len(calls) == 2

    def test_fetch_many_order(self, relation):
        catalog = Catalog()
        catalog.register("a", relation)
        catalog.register("b", [{"x": 1}])
        relations = catalog.fetch_many(["b", "a"])
        assert relations[0].name == "b"
        assert relations[1].name == "a"

    def test_transformations_are_applied(self, relation):
        catalog = Catalog()
        catalog.register(
            "numbers",
            relation,
            transformations=[lambda rel: rel.with_column("doubled", lambda row: row["a"] * 2)],
        )
        assert catalog.fetch("numbers").column("doubled") == [2, 4]

    def test_contains_and_aliases(self, relation):
        catalog = Catalog()
        catalog.register("numbers", relation)
        assert "numbers" in catalog
        assert 5 not in catalog
        assert catalog.aliases() == ["numbers"]


class TestReplaceOrdering:
    """register(replace=True) keeps the alias's original registration slot."""

    def test_replace_keeps_registration_order(self):
        catalog = Catalog()
        catalog.register("first", [{"x": 1}])
        catalog.register("second", [{"x": 2}])
        catalog.register("third", [{"x": 3}])
        catalog.register("second", [{"x": 99}], replace=True)
        # the replaced alias stays in its original slot, never moves to the end
        assert catalog.aliases() == ["first", "second", "third"]
        assert catalog.fetch("second").column("x") == [99]

    def test_replace_updates_alias_spelling_in_place(self):
        catalog = Catalog()
        catalog.register("alpha", [{"x": 1}])
        catalog.register("beta", [{"x": 2}])
        catalog.register("ALPHA", [{"x": 3}], replace=True)
        # same slot, new casing: replacement addresses the same logical source
        assert catalog.aliases() == ["ALPHA", "beta"]
        assert catalog.fetch("alpha").column("x") == [3]

    def test_replace_invalidates_prepared_artifacts(self):
        from repro.prepare import ARTIFACT_KINDS, SourcePreparer

        catalog = Catalog()
        catalog.register("numbers", [{"x": 1}])
        SourcePreparer(catalog).prepare(["numbers"])
        assert len(catalog.artifacts) == len(ARTIFACT_KINDS)
        catalog.register("numbers", [{"x": 2}], replace=True)
        assert len(catalog.artifacts) == 0
