"""The HumMer facade: one object that registers sources and answers fusion queries.

This is the public one-stop API mirroring the two querying modes of the demo
(paper §3): the SQL interface (:meth:`HumMer.query`) and the step-by-step
pipeline (:meth:`HumMer.fuse` / :meth:`HumMer.session` /
:meth:`HumMer.pipeline`).

Configuration is one declarative tree (:class:`repro.config.FusionConfig`)
instead of the historical pile of keyword arguments::

    from repro import DedupConfig, FusionConfig, HumMer, PrepareConfig

    hummer = HumMer(config=FusionConfig(
        dedup=DedupConfig(threshold=0.8, blocking="snm", blocking_options={"window": 32}),
        prepare=PrepareConfig(mode="lazy"),
    ))
    hummer.register("EE_Students", ee_rows)
    hummer.register("CS_Students", cs_rows)
    result = hummer.query(
        "SELECT Name, RESOLVE(Age, max) "
        "FUSE FROM EE_Students, CS_Students FUSE BY (Name)"
    )
    print(result.to_text())

Object injection (``matcher=`` / ``detector=``) remains the escape hatch for
already-constructed strategy instances; every other knob lives on the config
tree, and :meth:`HumMer.pipeline` is the one place it becomes components.
See ``docs/api.md`` for the full surface and ``docs/service.md`` for the
HTTP service built on top of it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import FusionConfig
from repro.core.fusion import FusionSpec, ResolutionSpec
from repro.core.pipeline import FusionPipeline, PipelineResult
from repro.core.resolution.base import (
    ResolutionFunction,
    ResolutionRegistry,
    default_registry,
)
from repro.core.session import FusionSession
from repro.dedup.detector import DuplicateDetector
from repro.engine.catalog import Catalog
from repro.engine.io.base import DataSource
from repro.engine.relation import Relation
from repro.exceptions import ConfigError
from repro.prepare.preparer import SourcePreparer, token_strategy_for
from repro.fuseby.executor import QueryExecutor
from repro.matching.dumas import DumasMatcher

__all__ = ["HumMer"]


class HumMer:
    """Ad-hoc, declarative data fusion over registered sources.

    Args:
        config: the declarative configuration tree
            (:class:`repro.config.FusionConfig`) — matching knobs, dedup
            threshold / blocking / clustering, preparation mode and artifact
            directory, default resolutions.  Defaults to a stock tree.
        matcher: schema-matcher *instance* override (object injection; wins
            over ``config.matching``).
        detector: duplicate-detector *instance* override (object injection;
            wins over ``config.dedup``).
        registry: resolution-function registry; defaults to a process-wide
            registry holding every built-in function.
    """

    def __init__(
        self,
        matcher: Optional[DumasMatcher] = None,
        detector: Optional[DuplicateDetector] = None,
        registry: Optional[ResolutionRegistry] = None,
        config: Optional[FusionConfig] = None,
    ):
        config = config if config is not None else FusionConfig()
        self.config = config
        self.catalog = Catalog(artifact_dir=config.prepare.artifact_dir)
        self.registry = registry or default_registry()
        self.matcher = matcher or config.matching.build_matcher()
        self.detector = detector or config.dedup.build_detector()
        self._executor = QueryExecutor(
            self.catalog, registry=self.registry, pipeline_factory=self.pipeline
        )

    # -- configuration -------------------------------------------------------------

    @property
    def prepare_mode(self) -> Optional[str]:
        """The instance-wide preparation mode (``config.prepare.mode``)."""
        return self.config.prepare.mode

    def enable_prepare(self, mode: str = "lazy") -> None:
        """Explicitly switch on per-source artifact preparation.

        This is the one spelling that flips the instance-wide mode (the
        historical implicit promotions through ``register(prepare=...)`` and
        :meth:`prepare` are gone): subsequent queries build, reuse and
        merge per-source artifacts in *mode* (``"lazy"`` or ``"eager"``).

        Three artifact kinds are prepared per source — the blocking token
        index, the TF-IDF seeding statistics and the SoftTFIDF field corpus
        — so on a warm run both duplicate detection *and* schema matching
        skip their per-source tokenisation entirely (see
        ``docs/matching.md`` for the matching half).
        """
        if mode is None:
            raise ConfigError('enable_prepare needs "lazy" or "eager"')
        self.config = self.config.merged({"prepare": {"mode": mode}})

    # -- source management ---------------------------------------------------------

    def register(
        self,
        alias: str,
        source: Union[DataSource, Relation, Iterable[dict]],
        description: str = "",
        replace: bool = False,
        prepare: Optional[str] = None,
    ) -> None:
        """Register a data source (relation, DataSource or iterable of dicts) under *alias*.

        *prepare* overrides the instance's preparation mode for this source:
        ``"eager"`` builds the per-source artifacts immediately, ``"lazy"``
        defers them to the first fusion query.  Replacing a source
        invalidates its artifacts; with an eager mode they are rebuilt on
        the spot.

        The override never flips the instance-wide mode: on an instance
        configured without one (``config.prepare.mode is None``) a
        *prepare* override would build artifacts no query merges, so it
        raises :class:`ConfigError` — configure ``PrepareConfig(mode=...)``
        or call :meth:`enable_prepare` first.
        """
        if prepare not in (None, "lazy", "eager"):
            raise ConfigError('prepare must be None, "lazy" or "eager"')
        if prepare is not None and self.prepare_mode is None:
            raise ConfigError(
                f"register(prepare={prepare!r}) needs an instance-wide "
                "preparation mode (the per-source override refines it, it "
                "does not enable it); configure PrepareConfig(mode=...) or "
                "call enable_prepare() first"
            )
        self.catalog.register(alias, source, description=description, replace=replace)
        mode = prepare or self.prepare_mode
        if mode == "eager":
            self._prepare_now([alias])

    def unregister(self, alias: str) -> None:
        """Remove a registered source (and its prepared artifacts)."""
        self.catalog.unregister(alias)

    def prepare(self, aliases: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """Build (or validate) per-source artifacts now; returns the report.

        With no *aliases*, every registered source is prepared.  Requires an
        instance-wide preparation mode (otherwise the built artifacts would
        never be merged by queries): configure ``PrepareConfig(mode=...)``
        or call :meth:`enable_prepare` first — the historical implicit
        switch to ``"lazy"`` is gone.
        """
        if isinstance(aliases, str):
            raise TypeError(f"aliases must be a list, not the string {aliases!r}")
        if self.prepare_mode is None:
            raise ConfigError(
                "prepare() needs an instance-wide preparation mode so the "
                "built artifacts are actually merged by queries; configure "
                "PrepareConfig(mode=...) or call enable_prepare() first"
            )
        return self._prepare_now(aliases)

    def _prepare_now(self, aliases: Optional[Sequence[str]]) -> Dict[str, Any]:
        prepared = self._preparer().prepare(
            list(aliases) if aliases is not None else self.catalog.aliases()
        )
        return prepared.report()

    def _preparer(self) -> Optional[SourcePreparer]:
        """The :class:`SourcePreparer` of the instance-wide mode (``None`` without one)."""
        if self.prepare_mode is None:
            return None
        return SourcePreparer(
            self.catalog,
            token_strategy=token_strategy_for(self.detector.blocking),
            seed_sample_limit=self.matcher.seeder.max_tuples_per_relation,
        )

    def sources(self) -> List[str]:
        """Aliases of all registered sources."""
        return self.catalog.aliases()

    def relation(self, alias: str) -> Relation:
        """The relational form of one registered source."""
        return self.catalog.fetch(alias)

    # -- resolution functions ----------------------------------------------------------

    def register_resolution_function(self, function: ResolutionFunction, replace: bool = False) -> None:
        """Add a custom conflict-resolution function (HumMer is extensible)."""
        self.registry.register(function, replace=replace)

    def resolution_functions(self) -> List[str]:
        """Names of every available resolution function."""
        return self.registry.names()

    # -- querying ----------------------------------------------------------------------

    def query(self, query_text: str) -> Relation:
        """Run a Fuse By / SQL statement and return the result relation."""
        return self._executor.execute(query_text)

    def explain(self, query_text: str):
        """Parse and plan a statement without executing it."""
        return self._executor.explain(query_text)

    def fuse(
        self,
        aliases: Sequence[str],
        resolutions: Optional[
            Dict[str, Union[str, Tuple[str, Sequence[Any]], ResolutionFunction]]
        ] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> PipelineResult:
        """Run the fully automatic pipeline over *aliases* and return all artefacts.

        ``resolutions`` maps column names (of the preferred schema) to
        resolution functions; unmentioned columns use Coalesce.  Without
        *resolutions*, the config's ``resolution`` section (if any) applies.
        """
        return self.session(aliases, resolutions=resolutions, metadata=metadata).run()

    def session(
        self,
        aliases: Sequence[str],
        resolutions: Optional[
            Dict[str, Union[str, Tuple[str, Sequence[Any]], ResolutionFunction]]
        ] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> FusionSession:
        """A step-by-step :class:`~repro.core.session.FusionSession` over *aliases*.

        The session walks the paper's six wizard steps one
        :meth:`~repro.core.session.FusionSession.advance` at a time; adjust
        the intermediate artefacts between calls and subscribe to
        :class:`~repro.core.session.StageEvent` progress.  Advancing it to
        completion is bit-identical to :meth:`fuse`.
        """
        return self.pipeline().session(
            aliases, spec=self._fusion_spec(resolutions), metadata=metadata
        )

    def restore_session(self, snapshot: Dict[str, Any]) -> FusionSession:
        """Rebuild a session from a :meth:`FusionSession.to_dict` snapshot.

        The snapshot's completed steps are replayed against this instance's
        catalog and settings (deterministically, so a resumed run is
        bit-identical to an uninterrupted one); recorded duplicate decisions
        are restored along the way.  The snapshotted sources must be
        registered with unchanged content — a digest mismatch raises
        :class:`~repro.exceptions.HummerError`.

        Both restore paths build on this: client-held snapshots posted to
        the service, and server-side recovery of journaled sessions from a
        durable service's data dir (:meth:`ServiceState.recover`).
        """
        return FusionSession.from_dict(self.pipeline(), snapshot)

    def _fusion_spec(self, resolutions) -> Optional[FusionSpec]:
        if resolutions:
            if not isinstance(resolutions, Mapping):
                raise TypeError(
                    f"resolutions must map column names to functions, not {resolutions!r}"
                )
            specs = [
                ResolutionSpec(column, function)
                for column, function in resolutions.items()
            ]
            return FusionSpec(resolutions=specs)
        return self.config.resolution.build_spec()

    def pipeline(self) -> FusionPipeline:
        """The components this instance's config resolves to, bundled for a session."""
        return FusionPipeline(
            self.catalog,
            matcher=self.matcher,
            detector=self.detector,
            registry=self.registry,
            use_name_fallback=self.config.matching.use_name_fallback,
            prepare=self._preparer(),
        )
