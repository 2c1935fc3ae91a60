"""Public-API snapshot tests (ISSUE 5 satellite).

Asserts the exported names of ``repro``, ``repro.config`` and
``repro.core.session`` plus the parameter lists of the load-bearing
callables, so an accidental surface break (renamed kwarg, dropped export,
reordered required parameter) fails fast in CI rather than surfacing in a
downstream consumer.  The surface is config-only: ISSUE 7 retired the
one-release deprecation shims of ISSUE 5, and this suite pins that the
legacy kwarg spellings are *gone* (``TypeError``), not silently accepted.

When a surface change is *intentional*, update the snapshots here in the
same commit and call the change out in the PR.
"""

import inspect
import pkgutil

import pytest

import repro
import repro.config
import repro.core.session
import repro.dedup.graphcluster
from repro.config import DedupConfig, FusionConfig, PrepareConfig
from repro.core.pipeline import FusionPipeline
from repro.core.session import FusionSession
from repro.dedup.blocking import BlockingStrategy, TokenBlocking
from repro.dedup.detector import DuplicateDetector
from repro.exceptions import ConfigError
from repro.hummer import HumMer
from repro.matching.dumas import DumasMatcher
from repro.matching.duplicate_seed import DuplicateSeeder
from repro.matching.multi import MultiMatcher
from repro.prepare.preparer import PreparedQueryView, PreparedSources

# --------------------------------------------------------------------------
# exported names
# --------------------------------------------------------------------------

REPRO_EXPORTS = sorted(
    [
        "HumMer",
        "FusionConfig",
        "MatchingConfig",
        "DedupConfig",
        "PrepareConfig",
        "ResolutionConfig",
        "FusionSession",
        "StageEvent",
        "ProgressEvent",
        "Catalog",
        "Column",
        "DataType",
        "Relation",
        "Schema",
        "FusionPipeline",
        "FusionResult",
        "FusionSpec",
        "PipelineResult",
        "ResolutionContext",
        "ResolutionFunction",
        "ResolutionSpec",
        "default_registry",
        "fuse",
        "DumasMatcher",
        "transform_sources",
        "DuplicateDetector",
        "parse_query",
        "__version__",
    ]
)

CONFIG_EXPORTS = sorted(
    [
        "PREPARE_MODES",
        "MatchingConfig",
        "DedupConfig",
        "PrepareConfig",
        "ResolutionConfig",
        "FusionConfig",
        "load_config_data",
    ]
)

SESSION_EXPORTS = sorted(
    ["SESSION_STEPS", "SNAPSHOT_VERSION", "StageEvent", "ProgressEvent", "FusionSession"]
)

EVALUATION_EXPORTS = sorted(
    [
        "PrecisionRecall",
        "evaluate_correspondences",
        "evaluate_duplicate_pairs",
        "evaluate_clusters",
        "pairs_from_clusters",
        "FusionQuality",
        "evaluate_fusion",
    ]
)

GRAPHCLUSTER_EXPORTS = sorted(
    [
        "ClusteringStrategy",
        "ClusteringSpec",
        "ClusteringReport",
        "ClusteringResult",
        "ScoredEdge",
        "TransitiveClustering",
        "GraphClustering",
        "BicliqueClustering",
        "CLUSTERING_STRATEGIES",
        "resolve_clustering",
    ]
)


def parameters(callable_object):
    """Ordered parameter names of *callable_object* (self included)."""
    return list(inspect.signature(callable_object).parameters)


# Parameter-name snapshots of the API's load-bearing callables.  Names and
# order are the contract (keyword call sites and positional call sites both
# break when these drift); defaults and annotations are free to evolve.
SIGNATURES = {
    "HumMer.__init__": ["self", "matcher", "detector", "registry", "config"],
    "HumMer.register": ["self", "alias", "source", "description", "replace", "prepare"],
    "HumMer.fuse": ["self", "aliases", "resolutions", "metadata"],
    "HumMer.session": ["self", "aliases", "resolutions", "metadata"],
    "HumMer.enable_prepare": ["self", "mode"],
    "HumMer.restore_session": ["self", "snapshot"],
    "HumMer.pipeline": ["self"],
    "FusionPipeline.__init__": [
        "self", "catalog", "matcher", "detector", "registry",
        "use_name_fallback", "prepare",
    ],
    "FusionPipeline.run": ["self", "aliases", "spec", "metadata"],
    "FusionPipeline.session": [
        "self", "aliases", "spec", "metadata", "skip_detection",
        "skip_conflicts", "transform_filter",
    ],
    "FusionSession.__init__": [
        "self", "pipeline", "aliases", "spec", "metadata",
        "skip_detection", "skip_conflicts", "transform_filter",
    ],
    "FusionSession.advance": ["self"],
    "FusionSession.advance_to": ["self", "step"],
    "FusionSession.run": ["self"],
    "FusionSession.subscribe": ["self", "listener"],
    "FusionSession.subscribe_progress": ["self", "listener"],
    "FusionSession.apply_duplicate_decisions": ["self"],
    "FusionSession.to_dict": ["self"],
    "FusionSession.from_dict": ["pipeline", "data"],
    "FusionConfig.from_dict": ["data"],
    "FusionConfig.from_json": ["text"],
    "FusionConfig.from_file": ["path"],
    "FusionConfig.from_cli_args": ["args", "base"],
    "FusionConfig.merged": ["self", "overrides"],
    "FusionConfig.to_dict": ["self"],
    "FusionConfig.to_json": ["self", "indent"],
    "DuplicateDetector.__init__": [
        "self", "threshold", "uncertainty_band", "use_filter",
        "cross_source_only", "selection", "accept_unsure", "keep_evidence",
        "blocking", "clustering",
    ],
    "DuplicateDetector.detect": [
        "self", "relation", "selection", "progress_callback", "prepared",
    ],
    "MultiMatcher.match": ["self", "relations", "prepared", "progress_callback", "scoring"],
    "DumasMatcher.match": [
        "self", "left", "right", "prepared", "progress_callback", "scoring", "memo",
    ],
    "DuplicateSeeder.__init__": [
        "self", "max_seeds", "min_similarity", "max_tuples_per_relation",
    ],
    "DuplicateSeeder.find_seeds": [
        "self", "left", "right", "prepared", "progress_callback", "scoring", "memo",
    ],
    "BlockingStrategy.pairs": ["self", "relation", "attributes", "prepared"],
}

OWNERS = {
    "HumMer": HumMer,
    "FusionPipeline": FusionPipeline,
    "FusionSession": FusionSession,
    "FusionConfig": FusionConfig,
    "DuplicateDetector": DuplicateDetector,
    "MultiMatcher": MultiMatcher,
    "DumasMatcher": DumasMatcher,
    "DuplicateSeeder": DuplicateSeeder,
    "BlockingStrategy": BlockingStrategy,
}


class TestExportedNames:
    def test_repro_all(self):
        assert sorted(repro.__all__) == REPRO_EXPORTS

    def test_repro_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_config_all(self):
        assert sorted(repro.config.__all__) == CONFIG_EXPORTS

    def test_session_all(self):
        assert sorted(repro.core.session.__all__) == SESSION_EXPORTS

    def test_graphcluster_all(self):
        assert sorted(repro.dedup.graphcluster.__all__) == GRAPHCLUSTER_EXPORTS

    def test_graphcluster_exports_resolve(self):
        for name in repro.dedup.graphcluster.__all__:
            assert hasattr(repro.dedup.graphcluster, name), name

    def test_session_steps_are_stable(self):
        assert repro.core.session.SESSION_STEPS == (
            "choose_sources",
            "prepare",
            "schema_matching",
            "attribute_selection",
            "duplicate_detection",
            "conflict_resolution",
            "fusion",
        )


class TestSignatures:
    @pytest.mark.parametrize("qualified_name", sorted(SIGNATURES))
    def test_parameter_names(self, qualified_name):
        owner_name, _, attribute = qualified_name.partition(".")
        target = getattr(OWNERS[owner_name], attribute)
        assert parameters(target) == SIGNATURES[qualified_name], (
            f"{qualified_name} drifted; if intentional, update the snapshot"
        )


class TestRemovedSurface:
    """What the one-step-table redesign deleted stays deleted.

    Each wizard step is defined once, in ``repro.core.pipeline``'s step
    table, so ``FusionPipeline`` keeps no ``step_*`` methods.
    ``DuplicateDetector.detect`` takes the selection, progress callback and
    prepared view as arguments, so the detector keeps no clone helper and
    no class-level callback — and the matching and blocking components keep
    no installed hooks either.  The session's ``advance()`` is the only clock, so
    ``repro.evaluation`` keeps its metrics and no timing helpers.
    """

    def test_pipeline_keeps_no_step_methods(self):
        assert [name for name in vars(FusionPipeline) if name.startswith("step_")] == []

    def test_detector_keeps_only_detect_and_redetect(self):
        public = sorted(name for name in vars(DuplicateDetector) if not name.startswith("_"))
        assert public == ["detect", "redetect_with_decisions"]

    def test_no_hooks_on_shared_components(self):
        """A run's prepared artifacts and progress sinks are call arguments
        (``prepared=``, ``progress_callback=``, ``scoring=``), never hooks
        installed on the matcher, seeder or blocking strategies a HumMer
        shares across its sessions."""
        import repro.matching.dumas
        import repro.matching.duplicate_seed

        for component, attributes in [
            (DumasMatcher(), ["progress_callback", "field_corpus_provider"]),
            (DuplicateSeeder(), ["progress_callback", "scoring_listener", "statistics_provider"]),
            (TokenBlocking(), ["index_provider"]),
        ]:
            for attribute in attributes:
                assert not hasattr(component, attribute), (component, attribute)
        assert not hasattr(repro.matching.dumas, "FieldCorpusProvider")
        assert not hasattr(repro.matching.duplicate_seed, "SeedStatisticsProvider")
        for owner, attribute in [
            (PreparedSources, "seeding"),
            (PreparedSources, "matching"),
            (PreparedQueryView, "blocking"),
            (PreparedQueryView, "_install"),
        ]:
            assert not hasattr(owner, attribute), (owner, attribute)

    def test_adaptive_planner_is_gone(self):
        """Blocking strategies only propose pairs: the planner, its profile
        artifact and the plan report that carried its decision are deleted."""
        import dataclasses

        import repro.dedup
        import repro.dedup.blocking
        import repro.prepare
        from repro.dedup.filters import FilterStatistics

        for module, names in [
            (repro.dedup, ["AdaptiveBlocking", "BlockingPlan", "profile_relation"]),
            (
                repro.dedup.blocking,
                ["AdaptiveBlocking", "BlockingPlan", "RelationProfile",
                 "AttributeProfile", "profile_relation", "format_plan_report"],
            ),
            (
                repro.prepare,
                ["PROFILE_KIND", "AttributeStatistics", "SourceProfileArtifact",
                 "build_source_profile"],
            ),
        ]:
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in module.__all__, (module.__name__, name)
        assert "adaptive" not in repro.dedup.blocking.BLOCKING_STRATEGIES
        assert not hasattr(BlockingStrategy, "plan_report")
        assert not hasattr(PreparedQueryView, "merged_profile")
        assert "blocking_plan" not in {f.name for f in dataclasses.fields(FilterStatistics)}
        assert "blocking_plan" not in FilterStatistics().as_dict()

    def test_evaluation_keeps_only_metrics(self):
        import repro.evaluation

        assert sorted(repro.evaluation.__all__) == EVALUATION_EXPORTS
        modules = sorted(
            module.name for module in pkgutil.iter_modules(repro.evaluation.__path__)
        )
        assert modules == ["dedup_metrics", "fusion_metrics", "matching_metrics"]


class TestRetiredShims:
    """The pre-config kwarg spellings of ISSUE 5 are gone, not tolerated.

    A shim that quietly comes back (e.g. via a rebased branch restoring
    ``**kwargs`` absorption) would re-open the dual surface this redesign
    closed, so each legacy spelling is pinned to ``TypeError``.
    """

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duplicate_threshold": 0.8},
            {"blocking": "snm"},
            {"executor": "multiprocess"},
            {"prepare": "lazy"},
            {"artifact_dir": "/tmp/nowhere"},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_hummer_legacy_kwargs_rejected(self, kwargs):
        with pytest.raises(TypeError):
            HumMer(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blocking": "snm"},
            {"executor": "serial"},
            {"adjust_matching": lambda m: None},
            {"adjust_selection": lambda s: None},
            {"adjust_duplicates": lambda d: None},
            {"config": FusionConfig()},
            {"prepare": True},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_pipeline_legacy_kwargs_rejected(self, catalog, kwargs):
        with pytest.raises(TypeError):
            FusionPipeline(catalog, **kwargs)

    def test_detector_executor_kwarg_rejected(self):
        with pytest.raises(TypeError):
            DuplicateDetector(executor="serial")

    def test_register_prepare_no_longer_promotes(self, catalog):
        """``register(prepare=...)`` without an instance mode is an error."""
        hummer = HumMer()
        with pytest.raises(ConfigError, match="enable_prepare"):
            hummer.register(
                "EE_Students", catalog.fetch("EE_Students"), prepare="lazy"
            )
        assert hummer.prepare_mode is None

    def test_prepare_call_no_longer_promotes(self, catalog):
        hummer = HumMer()
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        with pytest.raises(ConfigError, match="enable_prepare"):
            hummer.prepare()
        assert hummer.prepare_mode is None

    def test_config_spelling_still_works(self, catalog):
        config = FusionConfig(
            dedup=DedupConfig(blocking="snm", threshold=0.7),
            prepare=PrepareConfig(mode="lazy"),
        )
        hummer = HumMer(config=config)
        hummer.register("EE_Students", catalog.fetch("EE_Students"))
        hummer.register("CS_Students", catalog.fetch("CS_Students"))
        result = hummer.fuse(["EE_Students", "CS_Students"])
        assert result.detection.cluster_count == 5
