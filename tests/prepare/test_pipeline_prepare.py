"""Prepared pipelines: warm reuse, invalidation, and output parity end to end."""

import pickle
import sys

import pytest

from repro.config import DedupConfig, FusionConfig, PrepareConfig
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import students_scenario
from repro.exceptions import ConfigError
from repro.hummer import HumMer
from repro.prepare import ARTIFACT_KINDS

#: Artifacts one prepare pass builds (or reuses) per source.
PER_SOURCE = len(ARTIFACT_KINDS)


@pytest.fixture(scope="module")
def dataset():
    return students_scenario(entity_count=60, corruption=CorruptionConfig.low(), seed=41)


def build_hummer(dataset, prepare=None, blocking=None, artifact_dir=None):
    config = FusionConfig(
        dedup=DedupConfig(blocking=blocking),
        prepare=PrepareConfig(mode=prepare, artifact_dir=artifact_dir),
    )
    hummer = HumMer(config=config)
    for alias, relation in dataset.sources.items():
        hummer.register(alias, relation)
    return hummer


def fusion_fingerprint(result):
    """Everything observable about a fusion run's output."""
    return (
        result.relation.schema.names,
        result.relation.rows,
        sorted(result.detection.duplicate_pairs),
        result.detection.cluster_assignment,
        [str(c) for c in result.correspondences],
    )


class TestWarmRuns:
    def test_second_fuse_rebuilds_zero_artifacts(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        first = hummer.fuse(aliases)
        second = hummer.fuse(aliases)
        assert first.summary()["artifacts_rebuilt"] == PER_SOURCE * len(aliases)
        assert set(first.prepared["rebuilt_by_kind"]) == set(ARTIFACT_KINDS)
        assert second.summary()["artifacts_rebuilt"] == 0
        assert second.summary()["artifacts_reused"] == PER_SOURCE * len(aliases)

    def test_summary_reports_match_artifact_reuse(self, dataset):
        """ISSUE 6: the summary breaks out the matching-specific artifacts."""
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        cold = hummer.fuse(aliases)
        warm = hummer.fuse(aliases)
        # seeding statistics + field corpus, one of each per source
        assert cold.summary()["match_artifacts_rebuilt"] == 2 * len(aliases)
        assert cold.summary()["match_artifacts_reused"] == 0
        assert warm.summary()["match_artifacts_rebuilt"] == 0
        assert warm.summary()["match_artifacts_reused"] == 2 * len(aliases)

    def test_warm_output_is_bit_identical_to_cold(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        cold = hummer.fuse(aliases)
        warm = hummer.fuse(aliases)
        assert fusion_fingerprint(cold) == fusion_fingerprint(warm)
        # scored similarities too, not just accepted pairs
        assert [
            (s.left_index, s.right_index, s.similarity) for s in cold.detection.scores
        ] == [(s.left_index, s.right_index, s.similarity) for s in warm.detection.scores]

    @pytest.mark.parametrize("blocking", ["token", "union:snm+token"], ids=["token", "union"])
    def test_prepared_run_matches_unprepared_run(self, dataset, blocking):
        aliases = list(dataset.sources)
        unprepared = build_hummer(dataset, blocking=blocking).fuse(aliases)
        prepared = build_hummer(dataset, blocking=blocking, prepare="eager").fuse(aliases)
        assert fusion_fingerprint(unprepared) == fusion_fingerprint(prepared)

    def test_eager_registration_prebuilds_artifacts(self, dataset):
        hummer = build_hummer(dataset, prepare="eager")
        aliases = list(dataset.sources)
        # registration already built everything: the first fuse is warm
        result = hummer.fuse(aliases)
        assert result.summary()["artifacts_rebuilt"] == 0
        assert result.summary()["artifacts_reused"] == PER_SOURCE * len(aliases)

    def test_enable_prepare_then_prepare_call_enables_reuse(self, dataset):
        hummer = build_hummer(dataset)  # no mode at construction
        hummer.enable_prepare("lazy")
        report = hummer.prepare()
        assert report["rebuilt"] == PER_SOURCE * len(dataset.sources)
        result = hummer.fuse(list(dataset.sources))
        assert result.summary()["artifacts_rebuilt"] == 0

    def test_prepare_without_mode_is_rejected(self, dataset):
        hummer = build_hummer(dataset)
        with pytest.raises(ConfigError, match="enable_prepare"):
            hummer.prepare()

    def test_unprepared_instance_reports_no_artifacts(self, dataset):
        result = build_hummer(dataset).fuse(list(dataset.sources))
        assert result.prepared is None
        assert "artifacts_rebuilt" not in result.summary()


class TestInvalidation:
    def test_replacing_a_source_rebuilds_its_artifacts_only(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        hummer.fuse(aliases)
        replaced = aliases[0]
        hummer.register(replaced, dataset.sources[replaced], replace=True)
        result = hummer.fuse(aliases)
        assert result.summary()["artifacts_rebuilt"] == PER_SOURCE
        assert result.summary()["artifacts_reused"] == PER_SOURCE * (len(aliases) - 1)

    def test_replaced_data_is_never_served_stale(self, dataset):
        """New rows must flow into candidates and IDF, not the old artifacts."""
        aliases = list(dataset.sources)
        hummer = build_hummer(dataset, prepare="lazy")
        hummer.fuse(aliases)

        # replace the first source with visibly different content
        replaced = aliases[0]
        original = dataset.sources[replaced]
        mutated_rows = [dict(row) for row in original.to_dicts()]
        for row in mutated_rows:
            for key, value in row.items():
                if isinstance(value, str):
                    row[key] = f"changed {value}"
        hummer.register(replaced, mutated_rows, replace=True)
        warm_after_replace = hummer.fuse(aliases)

        # a fresh, unprepared instance over the same new data is the truth
        reference = HumMer()
        reference.register(replaced, mutated_rows)
        for alias in aliases[1:]:
            reference.register(alias, dataset.sources[alias])
        cold_reference = reference.fuse(aliases)

        assert fusion_fingerprint(warm_after_replace) == fusion_fingerprint(cold_reference)

    def test_invalidate_alias_forces_rebuild(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        hummer.fuse(aliases)
        hummer.catalog.invalidate(aliases[0])
        result = hummer.fuse(aliases)
        assert result.summary()["artifacts_rebuilt"] == PER_SOURCE

    def test_unregister_drops_artifacts(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        hummer.fuse(aliases)
        before = len(hummer.catalog.artifacts)
        hummer.unregister(aliases[0])
        assert len(hummer.catalog.artifacts) == before - PER_SOURCE


class TestPersistence:
    def test_restarted_instance_starts_warm_from_artifact_dir(self, dataset, tmp_path):
        aliases = list(dataset.sources)
        first = build_hummer(dataset, prepare="lazy", artifact_dir=str(tmp_path))
        cold = first.fuse(aliases)
        assert cold.summary()["artifacts_rebuilt"] == PER_SOURCE * len(aliases)

        # a new process would construct a fresh HumMer over the same directory
        second = build_hummer(dataset, prepare="lazy", artifact_dir=str(tmp_path))
        warm = second.fuse(aliases)
        assert warm.summary()["artifacts_rebuilt"] == 0
        assert fusion_fingerprint(cold) == fusion_fingerprint(warm)

    def test_seed_artifacts_of_the_previous_layout_are_rebuilt(self, dataset, tmp_path):
        """A seed-statistics file pickled under the previous layout (one dict
        per document, keyed without a layout version) still unpickles and
        passes the digest check, so it must never be looked up: a fresh
        instance over the directory rebuilds it and fuses as a cold run."""
        from repro.matching.duplicate_seed import SeedStatistics
        from repro.prepare import SEED_KIND
        from repro.prepare.store import ArtifactStore

        aliases = list(dataset.sources)
        cold = build_hummer(dataset).fuse(aliases)
        store = ArtifactStore(str(tmp_path))
        for alias, relation in dataset.sources.items():
            previous = SeedStatistics.__new__(SeedStatistics)
            previous.__dict__.update(
                row_count=len(relation), sample_limit=500, indices=[0],
                documents=[{"anna": 1}], document_frequency={"anna": 1},
            )
            path = store._path(store._key(alias, SEED_KIND, (500,)))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps(
                {"digest": relation.content_digest(), "artifact": previous}
            ))

        hummer = build_hummer(dataset, prepare="lazy", artifact_dir=str(tmp_path))
        result = hummer.fuse(aliases)
        assert result.prepared["rebuilt_by_kind"][SEED_KIND] == len(aliases)
        assert fusion_fingerprint(result) == fusion_fingerprint(cold)


    def test_files_under_retired_keys_are_removed(self, dataset, tmp_path):
        """The previous layout's seed files are deleted once a fresh instance
        writes their replacements: one file per (alias, kind) is left."""
        from repro.matching.duplicate_seed import SeedStatistics
        from repro.prepare import SEED_KIND
        from repro.prepare.store import ArtifactStore

        aliases = list(dataset.sources)
        cold = build_hummer(dataset).fuse(aliases)
        store = ArtifactStore(str(tmp_path))
        retired = []
        for alias, relation in dataset.sources.items():
            previous = SeedStatistics.__new__(SeedStatistics)
            previous.__dict__.update(row_count=len(relation), sample_limit=500)
            path = store._path(store._key(alias, SEED_KIND, (500,)))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps(
                {"digest": relation.content_digest(), "artifact": previous}
            ))
            retired.append(path.name)

        hummer = build_hummer(dataset, prepare="eager", artifact_dir=str(tmp_path))
        names = [path.name for path in tmp_path.glob("*.pkl")]
        assert not set(retired) & set(names)
        assert len(names) == PER_SOURCE * len(aliases)
        assert len({tuple(name.split("__")[:2]) for name in names}) == len(names)
        assert fusion_fingerprint(hummer.fuse(aliases)) == fusion_fingerprint(cold)


class TestPrepareWork:
    """One eager prepare reads each source column's dictionary, built once,
    and tokenises each distinct non-null source cell once for all three
    artifact kinds."""

    @staticmethod
    def count_calls(monkeypatch, function):
        """Every call of *function*, through any module that imported it."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(function.__name__) is function:
                monkeypatch.setattr(module, function.__name__, counting)
        return calls

    def test_csv_sources_tokenise_each_distinct_cell_once(self, dataset, tmp_path, monkeypatch):
        from repro.engine.columnar import encode
        from repro.engine.io import CsvSource, write_csv
        from repro.similarity.tokenize import tokenize

        for alias, relation in dataset.sources.items():
            write_csv(relation, tmp_path / f"{alias}.csv")
        tokenised = self.count_calls(monkeypatch, tokenize)
        encoded = self.count_calls(monkeypatch, encode)
        hummer = HumMer(config=FusionConfig(prepare=PrepareConfig(mode="eager")))
        for alias in dataset.sources:
            hummer.register(alias, CsvSource(tmp_path / f"{alias}.csv", name=alias))
        cells = [
            str(value)
            for alias in dataset.sources
            for column in hummer.relation(alias).store.columns
            for value in column.dictionary[0]
        ]
        assert sorted(args[0] for args in tokenised) == sorted(cells)
        assert encoded == []  # the loader hands every column its dictionary

    def test_in_memory_sources_encode_each_column_once(self, dataset, monkeypatch):
        from repro.engine.columnar import encode

        sources = {alias: relation.copy() for alias, relation in dataset.sources.items()}
        encoded = self.count_calls(monkeypatch, encode)
        hummer = HumMer(config=FusionConfig(prepare=PrepareConfig(mode="eager")))
        for alias, relation in sources.items():
            hummer.register(alias, relation)
        assert len(encoded) == sum(len(relation.schema) for relation in sources.values())


class TestValidation:
    def test_invalid_prepare_mode_rejected(self):
        with pytest.raises(ValueError):
            HumMer(config=FusionConfig(prepare=PrepareConfig(mode="sometimes")))

    def test_invalid_register_prepare_mode_rejected(self, dataset):
        hummer = HumMer()
        with pytest.raises(ValueError):
            hummer.register("x", [{"a": 1}], prepare="always")

    def test_register_prepare_without_instance_mode_rejected(self, dataset):
        """The historical implicit instance-wide promotion is gone."""
        hummer = HumMer()
        with pytest.raises(ConfigError, match="enable_prepare"):
            hummer.register("x", [{"a": 1}], prepare="eager")
        assert hummer.prepare_mode is None


class TestQueryPath:
    """HumMer.query() fusion statements go through the prepared path too."""

    def test_warm_query_rebuilds_zero_artifacts(self, dataset):
        hummer = build_hummer(dataset, prepare="lazy")
        aliases = list(dataset.sources)
        statement = f"SELECT * FUSE FROM {', '.join(aliases)}"
        cold = hummer.query(statement)
        counters = hummer.catalog.artifacts.counters
        assert counters.total_rebuilt == PER_SOURCE * len(aliases)
        snapshot = counters.snapshot()
        warm = hummer.query(statement)
        delta = counters.diff(snapshot)
        assert delta.total_rebuilt == 0
        assert delta.total_reused == PER_SOURCE * len(aliases)
        assert warm.rows == cold.rows

    def test_filtered_query_matches_unprepared_result(self, dataset):
        aliases = list(dataset.sources)
        first_column = dataset.sources[aliases[0]].column_names[0]
        statement = (
            f"SELECT * FUSE FROM {', '.join(aliases)} "
            f"WHERE {first_column} IS NOT NULL"
        )
        prepared_hummer = build_hummer(dataset, prepare="lazy")
        unprepared_hummer = build_hummer(dataset)
        # WHERE changes the combined rows, so the merge view declines and
        # detection runs cold — results must be identical either way
        assert prepared_hummer.query(statement).rows == unprepared_hummer.query(statement).rows


def count_cold_builds(monkeypatch):
    """Call counts of the three cold builders a warm run must skip."""
    import repro.matching.dumas as dumas_module
    import repro.matching.duplicate_seed as seed_module
    from repro.dedup.blocking.token import TokenBlocking

    calls = {"seed_statistics": 0, "field_corpus": 0, "token_index": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    class CountingSoftTfIdf(dumas_module.SoftTfIdfSimilarity):
        def __init__(self, corpus=None, **kwargs):
            if corpus is not None:
                calls["field_corpus"] += 1
            super().__init__(corpus=corpus, **kwargs)

    monkeypatch.setattr(
        seed_module, "compute_seed_statistics",
        counting("seed_statistics", seed_module.compute_seed_statistics),
    )
    monkeypatch.setattr(dumas_module, "SoftTfIdfSimilarity", CountingSoftTfIdf)
    monkeypatch.setattr(
        TokenBlocking, "build_index", counting("token_index", TokenBlocking.build_index)
    )
    return calls


NO_COLD_BUILDS = {"seed_statistics": 0, "field_corpus": 0, "token_index": 0}


class TestWarmRunComputesNothingCold:
    """A warm run merges every matching and blocking structure from artifacts.

    Results are bit-identical whether or not a consumer receives the run's
    prepared artifacts, so a dropped ``prepared`` argument would only show as
    a slower warm run.  This guard counts the cold builders instead: after
    eager registration (which runs them to build the artifacts) the first
    fusion query must call none of them.
    """

    @pytest.mark.parametrize("blocking", ["token", "union:snm+token"], ids=["token", "union"])
    def test_first_fuse_after_eager_registration(self, dataset, monkeypatch, blocking):
        # the union's token child reads the merged index like plain token blocking
        hummer = build_hummer(dataset, prepare="eager", blocking=blocking)
        cold_builds = count_cold_builds(monkeypatch)
        hummer.fuse(list(dataset.sources))
        assert cold_builds == NO_COLD_BUILDS

    def test_first_query_after_eager_registration(self, dataset, monkeypatch):
        hummer = build_hummer(dataset, prepare="eager", blocking="token")
        cold_builds = count_cold_builds(monkeypatch)
        hummer.query(f"SELECT * FUSE FROM {', '.join(dataset.sources)}")
        assert cold_builds == NO_COLD_BUILDS
