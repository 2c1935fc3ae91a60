"""Tests for the declarative config tree (``repro.config``).

Covers the ISSUE 5 satellite: lossless round-tripping
(``FusionConfig.from_dict(cfg.to_dict()) == cfg``), CLI-flag ↔ config-file
parity on ``fuse``/``demo`` (see ``tests/test_cli.py``), and the
construction-time validation that replaced the scattered ``ValueError``\\ s.
"""

import json
import re

import pytest

from repro.config import (
    DedupConfig,
    FusionConfig,
    MatchingConfig,
    PrepareConfig,
    ResolutionConfig,
)
from repro.dedup.blocking import SortedNeighborhoodBlocking, UnionBlocking
from repro.dedup.graphcluster import BicliqueClustering, GraphClustering
from repro.exceptions import ConfigError, HummerError


def full_config() -> FusionConfig:
    """A tree with every section away from its defaults."""
    return FusionConfig(
        matching=MatchingConfig(
            max_seeds=7,
            min_seed_similarity=0.3,
            correspondence_threshold=0.4,
            use_name_fallback=False,
        ),
        dedup=DedupConfig(
            threshold=0.8,
            uncertainty_band=0.05,
            cross_source_only=True,
            keep_evidence=True,
            blocking="snm",
            blocking_options={"window": 6},
            clustering="graph",
            clustering_options={"min_cohesion": 0.5},
        ),
        prepare=PrepareConfig(mode="lazy", artifact_dir="/tmp/artifacts"),
        resolution=ResolutionConfig(
            resolutions={"Age": "max", "Label": ("choose", ("shop",))},
            key_columns=("Name",),
        ),
    )


class TestRoundTrip:
    def test_default_tree_round_trips(self):
        config = FusionConfig()
        assert FusionConfig.from_dict(config.to_dict()) == config

    def test_full_tree_round_trips(self):
        config = full_config()
        assert FusionConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = full_config()
        assert FusionConfig.from_json(config.to_json()) == config

    def test_to_dict_is_json_serialisable(self):
        json.dumps(full_config().to_dict())

    def test_from_file(self, tmp_path):
        path = tmp_path / "fusion.json"
        path.write_text(full_config().to_json())
        assert FusionConfig.from_file(path) == full_config()

    def test_sections_may_be_omitted(self):
        config = FusionConfig.from_dict({"dedup": {"threshold": 0.9}})
        assert config.dedup.threshold == 0.9
        assert config.matching == MatchingConfig()


class TestMerged:
    def test_merged_changes_only_mentioned_fields(self):
        config = full_config()
        derived = config.merged({"dedup": {"threshold": 0.6}})
        assert derived.dedup.threshold == 0.6
        assert derived.dedup.blocking == "snm"
        assert derived.matching == config.matching

    def test_merged_does_not_mutate_the_original(self):
        config = full_config()
        config.merged({"prepare": {"mode": "eager"}})
        assert config.prepare.mode == "lazy"

    def test_merged_validates(self):
        with pytest.raises(ConfigError):
            full_config().merged({"dedup": {"threshold": 1.5}})

    def test_merged_rejects_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            full_config().merged({"dedupe": {}})


class TestValidation:
    def test_config_error_is_a_value_error_and_hummer_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, HummerError)

    def test_bad_blocking_name(self):
        with pytest.raises(ConfigError, match="unknown blocking strategy"):
            DedupConfig(blocking="sorted")

    def test_deleted_adaptive_planner_is_an_unknown_name(self):
        message = r"unknown blocking strategy 'adaptive' \(known: allpairs, snm, token, union\)"
        with pytest.raises(ConfigError, match=message):
            DedupConfig(blocking="adaptive")
        with pytest.raises(ConfigError, match=message):
            FusionConfig.from_dict({"dedup": {"blocking": "adaptive"}})

    def test_bad_blocking_option(self):
        with pytest.raises(ConfigError):
            DedupConfig(blocking="snm", blocking_options={"windowsill": 4})

    def test_blocking_options_need_a_strategy(self):
        with pytest.raises(ConfigError, match="blocking_options"):
            DedupConfig(blocking_options={"window": 4})

    def test_bad_clustering_name(self):
        with pytest.raises(ConfigError, match="unknown clustering strategy"):
            DedupConfig(clustering="louvain")

    def test_bad_clustering_option(self):
        with pytest.raises(ConfigError):
            DedupConfig(clustering="graph", clustering_options={"cohesion": 0.5})

    def test_clustering_options_need_a_strategy(self):
        with pytest.raises(ConfigError, match="clustering_options"):
            DedupConfig(clustering_options={"min_cohesion": 0.5})

    def test_clustering_instance_rejected_in_the_tree(self):
        with pytest.raises(ConfigError, match="strategy name"):
            DedupConfig(clustering=GraphClustering())

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match=r"threshold must lie in \[0, 1\]"):
            DedupConfig(threshold=1.2)

    def test_unknown_prepare_mode(self):
        with pytest.raises(ConfigError, match="unknown prepare mode"):
            PrepareConfig(mode="sometimes")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown DedupConfig field"):
            FusionConfig.from_dict({"dedup": {"treshold": 0.8}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            FusionConfig.from_dict({"blocking": "snm"})

    def test_matching_ranges(self):
        with pytest.raises(ConfigError):
            MatchingConfig(max_seeds=0)
        with pytest.raises(ConfigError):
            MatchingConfig(min_seed_similarity=-0.1)

    def test_instances_are_rejected_in_the_tree(self):
        with pytest.raises(ConfigError, match="strategy name"):
            DedupConfig(blocking=SortedNeighborhoodBlocking())

    def test_bad_resolution_shape(self):
        with pytest.raises(ConfigError, match="resolution for column"):
            ResolutionConfig(resolutions={"Age": 3})


#: Wrongly typed values for every field of every section.  ``True`` is an
#: ``int`` in Python and ``"false"`` is a truthy string, so both used to pass
#: silently with the wrong meaning; ``"0.5"`` thresholds and ``[]``
#: resolutions failed with errors that did not name the field.
WRONGLY_TYPED = {
    "matching": {
        "max_seeds": [2.5, True],
        "min_seed_similarity": ["0.3"],
        "correspondence_threshold": [None],
        "use_name_fallback": ["false"],
    },
    "dedup": {
        "threshold": ["0.5", True],
        "uncertainty_band": [True],
        "use_filter": [1, "false"],
        "cross_source_only": ["false"],
        "accept_unsure": ["false"],
        "keep_evidence": [None, "false"],
        "blocking": [5],
        "blocking_options": [["window", 4]],
        "clustering": [["graph"]],
        "clustering_options": ["min_cohesion=0.5"],
    },
    "prepare": {"mode": [1], "artifact_dir": [["state"]]},
    "resolution": {"resolutions": [[]], "key_columns": ["name", ["name", 3]]},
}

SECTION_CLASSES = {
    "matching": MatchingConfig,
    "dedup": DedupConfig,
    "prepare": PrepareConfig,
    "resolution": ResolutionConfig,
}


class TestFieldTypes:
    """Every section checks its fields' types and names the failing field."""

    def test_every_field_has_a_wrongly_typed_case(self):
        import dataclasses

        for section, section_class in SECTION_CLASSES.items():
            assert set(WRONGLY_TYPED[section]) == {
                f.name for f in dataclasses.fields(section_class)
            }, section

    @pytest.mark.parametrize(
        "section, name, value",
        [
            (section, name, value)
            for section, fields in WRONGLY_TYPED.items()
            for name, values in fields.items()
            for value in values
        ],
    )
    def test_wrong_type_is_a_config_error_naming_the_field(self, section, name, value):
        expected = f"{section}.{name} must be .*, got {re.escape(repr(value))}"
        with pytest.raises(ConfigError, match=expected):
            FusionConfig.from_dict({section: {name: value}})
        with pytest.raises(ConfigError, match=expected):
            SECTION_CLASSES[section](**{name: value})
        with pytest.raises(ConfigError, match=expected):
            FusionConfig().merged({section: {name: value}})

    def test_numbers_accept_ints_and_key_columns_accept_lists(self):
        config = FusionConfig.from_dict({
            "matching": {"min_seed_similarity": 0, "correspondence_threshold": 1},
            "dedup": {"threshold": 1, "uncertainty_band": 0},
            "resolution": {"key_columns": ["name"]},
        })
        assert config.dedup.threshold == 1
        assert config.resolution.key_columns == ("name",)
        assert FusionConfig.from_dict(config.to_dict()) == config


class TestBuilders:
    def test_build_blocking(self):
        strategy = DedupConfig(blocking="snm", blocking_options={"window": 6}).build_blocking()
        assert isinstance(strategy, SortedNeighborhoodBlocking)
        assert strategy.window == 6

    def test_build_union_blocking(self):
        strategy = DedupConfig(blocking="union:snm+token").build_blocking()
        assert isinstance(strategy, UnionBlocking)

    def test_build_clustering(self):
        strategy = DedupConfig(
            clustering="biclique", clustering_options={"max_component_size": 32}
        ).build_clustering()
        assert isinstance(strategy, BicliqueClustering)
        assert strategy.max_component_size == 32

    def test_build_detector_carries_every_field(self):
        config = full_config().dedup
        detector = config.build_detector()
        assert detector.threshold == 0.8
        assert detector.uncertainty_band == 0.05
        assert detector.cross_source_only is True
        assert detector.keep_evidence is True
        assert isinstance(detector.blocking, SortedNeighborhoodBlocking)
        assert isinstance(detector.clustering, GraphClustering)
        assert detector.clustering.min_cohesion == 0.5

    def test_build_matcher(self):
        matcher = full_config().matching.build_matcher()
        assert matcher.max_seeds == 7
        assert matcher.seeder.min_similarity == 0.3

    def test_resolution_build_spec(self):
        spec = full_config().resolution.build_spec()
        assert spec.key_columns == ["Name"]
        functions = {r.column: r.function for r in spec.resolutions}
        assert functions["Age"] == "max"
        assert functions["Label"] == ("choose", ("shop",))

    def test_empty_resolution_builds_no_spec(self):
        assert ResolutionConfig().build_spec() is None


class TestFromCliArgs:
    def _args(self, **kwargs):
        import argparse

        return argparse.Namespace(**kwargs)

    def test_unset_flags_leave_the_base_alone(self):
        base = full_config()
        config = FusionConfig.from_cli_args(self._args(), base=base)
        assert config == base

    def test_flags_override_the_base(self):
        base = full_config()
        args = self._args(
            threshold=0.65,
            blocking="token",
            token_max_block=20,
            snm_window=None,
            prepare=False,
            artifact_dir=None,
        )
        config = FusionConfig.from_cli_args(args, base=base)
        assert config.dedup.threshold == 0.65
        assert config.dedup.blocking == "token"
        assert config.dedup.blocking_options == {"max_block_size": 20}
        assert config.prepare == base.prepare

    def test_clustering_flag_overrides_the_base(self):
        base = full_config()
        config = FusionConfig.from_cli_args(self._args(clustering="biclique"), base=base)
        assert config.dedup.clustering == "biclique"
        # a strategy change invalidates the base's options wholesale
        assert config.dedup.clustering_options == {}

    def test_clustering_flag_same_strategy_keeps_options(self):
        base = full_config()
        config = FusionConfig.from_cli_args(self._args(clustering="graph"), base=base)
        assert config.dedup.clustering == "graph"
        assert config.dedup.clustering_options == {"min_cohesion": 0.5}

    def test_option_flags_require_their_strategy(self):
        with pytest.raises(ConfigError, match="--snm-window"):
            FusionConfig.from_cli_args(self._args(blocking="token", snm_window=4))
        with pytest.raises(ConfigError, match="--token-max-block"):
            FusionConfig.from_cli_args(self._args(blocking="snm", token_max_block=4))

    def test_artifact_dir_implies_lazy_prepare(self):
        config = FusionConfig.from_cli_args(self._args(artifact_dir="/tmp/x"))
        assert config.prepare.mode == "lazy"
        assert config.prepare.artifact_dir == "/tmp/x"

    def test_option_flags_compose_with_a_base_strategy(self):
        """`--snm-window 6` works when the config *file* set blocking snm."""
        base = FusionConfig(dedup=DedupConfig(blocking="snm"))
        config = FusionConfig.from_cli_args(self._args(snm_window=6), base=base)
        assert config.dedup.blocking == "snm"
        assert config.dedup.blocking_options == {"window": 6}

    def test_option_flags_overlay_base_options_for_the_same_strategy(self):
        base = FusionConfig(
            dedup=DedupConfig(blocking="snm", blocking_options={"window": 4})
        )
        same = FusionConfig.from_cli_args(self._args(blocking="snm", snm_window=8), base=base)
        assert same.dedup.blocking_options == {"window": 8}
        # a strategy *change* drops the stale options instead of passing
        # snm's window to token blocking
        changed = FusionConfig.from_cli_args(self._args(blocking="token"), base=base)
        assert changed.dedup.blocking == "token"
        assert changed.dedup.blocking_options == {}


#: The scoring knobs deleted with the process-pool scorer, with values a
#: config written before the deletion would carry.
REMOVED_SCORING_KNOBS = [("executor", "multiprocess"), ("workers", 4), ("chunk_size", 64)]


class TestRemovedScoringKnobs:
    """Pair scoring has one in-process path: ``executor``, ``workers`` and
    ``chunk_size`` are gone from ``DedupConfig`` and fail loudly."""

    @pytest.mark.parametrize("name, value", REMOVED_SCORING_KNOBS)
    def test_constructor_rejects(self, name, value):
        with pytest.raises(TypeError):
            DedupConfig(**{name: value})

    @pytest.mark.parametrize("name, value", REMOVED_SCORING_KNOBS)
    def test_from_dict_names_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            FusionConfig.from_dict({"dedup": {name: value}})

    def test_build_detector_takes_no_executor(self):
        with pytest.raises(TypeError):
            DedupConfig().build_detector(executor="serial")
