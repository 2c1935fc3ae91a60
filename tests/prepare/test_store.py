"""ArtifactStore: digest validation, counters, persistence, invalidation."""

import os
import subprocess
import sys
from pathlib import Path

from repro.engine.relation import Relation
from repro.prepare.store import ArtifactStore


def relation_of(rows, name="rel"):
    return Relation.from_dicts(rows, name=name)


class TestGetOrBuild:
    def test_builds_once_then_reuses(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        builds = []

        def builder():
            builds.append(1)
            return {"index": 1}

        first = store.get_or_build("src", "token_index", (), relation, builder)
        second = store.get_or_build("src", "token_index", (), relation, builder)
        assert first is second
        assert builds == [1]
        assert store.counters.total_rebuilt == 1
        assert store.counters.total_reused == 1

    def test_changed_content_rebuilds(self):
        store = ArtifactStore()
        store.get_or_build("src", "token_index", (), relation_of([{"a": 1}]), lambda: "v1")
        rebuilt = store.get_or_build(
            "src", "token_index", (), relation_of([{"a": 2}]), lambda: "v2"
        )
        assert rebuilt == "v2"
        assert store.counters.total_rebuilt == 2
        assert store.counters.total_reused == 0

    def test_params_key_entries_are_independent(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        store.get_or_build("src", "token_index", (None, 3), relation, lambda: "words")
        store.get_or_build("src", "token_index", (3, 3), relation, lambda: "qgrams")
        assert store.peek("src", "token_index", (None, 3)) == "words"
        assert store.peek("src", "token_index", (3, 3)) == "qgrams"
        assert len(store) == 2

    def test_alias_is_case_insensitive(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        store.get_or_build("Src", "token_index", (), relation, lambda: "x")
        store.get_or_build("SRC", "token_index", (), relation, lambda: "y")
        assert store.counters.total_reused == 1

    def test_counters_diff(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        store.get_or_build("src", "k", (), relation, lambda: 1)
        snapshot = store.counters.snapshot()
        store.get_or_build("src", "k", (), relation, lambda: 1)
        delta = store.counters.diff(snapshot)
        assert delta.total_reused == 1
        assert delta.total_rebuilt == 0


class TestInvalidation:
    def test_invalidate_single_alias(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        store.get_or_build("one", "k", (), relation, lambda: 1)
        store.get_or_build("two", "k", (), relation, lambda: 2)
        store.invalidate("one")
        assert store.peek("one", "k", ()) is None
        assert store.peek("two", "k", ()) == 2

    def test_invalidate_all(self):
        store = ArtifactStore()
        relation = relation_of([{"a": 1}])
        store.get_or_build("one", "k", (), relation, lambda: 1)
        store.invalidate()
        assert len(store) == 0


class TestPersistence:
    def test_disk_roundtrip_across_store_instances(self, tmp_path):
        relation = relation_of([{"a": 1}, {"a": 2}])
        first = ArtifactStore(str(tmp_path))
        first.get_or_build("src", "k", ("p",), relation, lambda: {"data": [1, 2]})
        assert list(tmp_path.glob("*.pkl"))

        second = ArtifactStore(str(tmp_path))
        loaded = second.get_or_build(
            "src", "k", ("p",), relation, lambda: (_ for _ in ()).throw(AssertionError)
        )
        assert loaded == {"data": [1, 2]}
        assert second.counters.total_reused == 1
        assert second.counters.total_rebuilt == 0

    def test_disk_entry_with_stale_digest_is_rebuilt(self, tmp_path):
        first = ArtifactStore(str(tmp_path))
        first.get_or_build("src", "k", (), relation_of([{"a": 1}]), lambda: "old")
        second = ArtifactStore(str(tmp_path))
        rebuilt = second.get_or_build("src", "k", (), relation_of([{"a": 2}]), lambda: "new")
        assert rebuilt == "new"
        assert second.counters.total_rebuilt == 1

    def test_corrupt_file_is_treated_as_miss(self, tmp_path):
        relation = relation_of([{"a": 1}])
        first = ArtifactStore(str(tmp_path))
        first.get_or_build("src", "k", (), relation, lambda: "good")
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        second = ArtifactStore(str(tmp_path))
        assert second.get_or_build("src", "k", (), relation, lambda: "rebuilt") == "rebuilt"

    def test_invalidate_removes_persisted_files(self, tmp_path):
        relation = relation_of([{"a": 1}])
        store = ArtifactStore(str(tmp_path))
        store.get_or_build("src", "k", (), relation, lambda: "x")
        store.invalidate("src")
        assert not list(tmp_path.glob("*.pkl"))

    def test_truncated_pickle_is_a_miss_and_gets_overwritten(self, tmp_path):
        # the shape a kill mid-write leaves behind: a prefix of valid pickle
        relation = relation_of([{"a": 1}])
        first = ArtifactStore(str(tmp_path))
        first.get_or_build("src", "k", (), relation, lambda: {"payload": list(range(64))})
        (victim,) = tmp_path.glob("*.pkl")
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

        second = ArtifactStore(str(tmp_path))
        rebuilt = second.get_or_build("src", "k", (), relation, lambda: "rebuilt")
        assert rebuilt == "rebuilt"
        assert second.counters.total_rebuilt == 1
        # the rebuild overwrote the truncated file with a loadable one
        third = ArtifactStore(str(tmp_path))
        assert (
            third.get_or_build("src", "k", (), relation, lambda: "never") == "rebuilt"
        )

    def test_invalidate_alias_unlinks_only_that_aliases_files(self, tmp_path):
        relation = relation_of([{"a": 1}])
        store = ArtifactStore(str(tmp_path))
        store.get_or_build("users", "k", (), relation, lambda: "u1")
        store.get_or_build("users", "other_kind", ("p",), relation, lambda: "u2")
        store.get_or_build("orders", "k", (), relation, lambda: "o1")
        assert len(list(tmp_path.glob("*.pkl"))) == 3

        store.invalidate("users")
        # in-memory: the alias is gone, the other survives
        assert store.peek("users", "k", ()) is None
        assert store.peek("orders", "k", ()) == "o1"
        # on disk: only the alias's prefixed files were unlinked
        remaining = [path.name for path in tmp_path.glob("*.pkl")]
        assert len(remaining) == 1
        assert remaining[0].startswith("orders")

    def test_a_write_removes_the_kinds_files_under_other_params(self, tmp_path):
        relation = relation_of([{"a": 1}])
        old = ArtifactStore(str(tmp_path))
        old.get_or_build("users", "k", ("retired",), relation, lambda: "old")
        old.get_or_build("users", "other_kind", ("retired",), relation, lambda: "kept")
        old.get_or_build("orders", "k", ("retired",), relation, lambda: "kept")

        store = ArtifactStore(str(tmp_path))
        store.get_or_build("users", "k", ("current",), relation, lambda: "new")
        assert not store._path(store._key("users", "k", ("retired",))).exists()
        assert store._path(store._key("users", "k", ("current",))).exists()
        assert store._path(store._key("users", "other_kind", ("retired",))).exists()
        assert store._path(store._key("orders", "k", ("retired",))).exists()
        assert len(list(tmp_path.glob("*.pkl"))) == 3

    def test_unwritable_artifact_dir_never_fails_a_query(self, tmp_path):
        import os

        import pytest

        if os.geteuid() == 0:
            pytest.skip("root ignores directory permission bits")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o500)  # no write permission
        try:
            relation = relation_of([{"a": 1}])
            store = ArtifactStore(str(blocked))
            # the write is best-effort: the build result is still served
            assert store.get_or_build("src", "k", (), relation, lambda: "x") == "x"
            assert store.peek("src", "k", ()) == "x"
            assert not list(blocked.glob("*.pkl"))
        finally:
            blocked.chmod(0o700)

    def test_unwritable_artifact_dir_is_ignored_via_monkeypatched_dump(
        self, tmp_path, monkeypatch
    ):
        # root-safe variant: force the dump itself to fail like a full disk
        import pickle

        relation = relation_of([{"a": 1}])
        store = ArtifactStore(str(tmp_path))

        def exploding_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", exploding_dump)
        assert store.get_or_build("src", "k", (), relation, lambda: "x") == "x"
        assert store.peek("src", "k", ()) == "x"


class TestContentDigest:
    def test_digest_is_stable_for_equal_content(self):
        assert (
            relation_of([{"a": 1}]).content_digest()
            == relation_of([{"a": 1}]).content_digest()
        )

    def test_digest_separates_types_and_values(self):
        assert (
            relation_of([{"a": 1}]).content_digest()
            != relation_of([{"a": "1"}]).content_digest()
        )
        assert (
            relation_of([{"a": 1}]).content_digest()
            != relation_of([{"a": 2}]).content_digest()
        )

    def test_fresh_process_invalidate_removes_other_processes_files(self, tmp_path):
        # a store that never loaded the entries (fresh process) must still
        # delete the persisted files of an invalidated alias
        relation = relation_of([{"a": 1}])
        first = ArtifactStore(str(tmp_path))
        first.get_or_build("users", "k", (), relation, lambda: "x")
        first.get_or_build("other", "k", (), relation, lambda: "y")

        fresh = ArtifactStore(str(tmp_path))
        fresh.invalidate("users")
        remaining = [path.name for path in tmp_path.glob("*.pkl")]
        assert len(remaining) == 1
        assert remaining[0].startswith("other")


# Persists the field corpus of one cd store through an ArtifactStore and
# prints its document frequencies in dict order.
FIELD_CORPUS_SCRIPT = """
import sys
from repro.datagen.scenarios import cd_stores_scenario
from repro.prepare.artifacts import FIELD_KIND, build_field_corpus
from repro.prepare.store import ArtifactStore

source = cd_stores_scenario(entity_count=40, store_count=3, seed=1000).source_list[0]
store = ArtifactStore(sys.argv[1])
corpus = store.get_or_build(source.name, FIELD_KIND, (), source, lambda: build_field_corpus(source))
print(corpus.document_count, list(corpus.document_frequency.items()))
"""


def test_field_corpus_does_not_depend_on_the_hash_seed(tmp_path):
    # A cell's terms must not be counted in the order of a set: that order
    # follows string hashing, which PYTHONHASHSEED varies per process.
    source = str(Path(__file__).resolve().parents[2] / "src")

    def persisted(hash_seed):
        directory = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = source + os.pathsep + env.get("PYTHONPATH", "")
        items = subprocess.run(
            [sys.executable, "-c", FIELD_CORPUS_SCRIPT, str(directory)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        (artifact,) = directory.glob("*.pkl")
        return items, artifact.read_bytes()

    items, artifact = persisted("1")
    assert len(items) > 1000
    assert persisted("2") == (items, artifact)
