"""``repro.config`` — one declarative, validated, immutable configuration tree.

Before this module, every fusion knob travelled as a keyword argument copied
by hand through four layers (``HumMer`` → ``FusionPipeline`` →
``DuplicateDetector`` → CLI), and each new subsystem (blocking, clustering,
prepared artifacts) widened that surface with another mutual-exclusion
rule.  :class:`FusionConfig` replaces the threading with a single typed
tree:

* :class:`MatchingConfig` — DUMAS seeding / correspondence knobs and the
  name-based fallback;
* :class:`DedupConfig` — threshold, uncertainty band, blocking spec and
  clustering spec;
* :class:`PrepareConfig` — per-source artifact mode and persistence
  directory;
* :class:`ResolutionConfig` — default per-column resolution functions and
  fusion key columns.

Every section is a frozen dataclass validated **at construction time**:
first every field's type, from its annotation (a ``"false"`` string is not a
boolean, ``True`` is not a number), then the section's value ranges.  Each
mistake surfaces as one :class:`~repro.exceptions.ConfigError` naming the
``section.field``, and the tree round-trips losslessly:
``FusionConfig.from_dict(cfg.to_dict()) == cfg``.

Serialisable specs only: blocking and clustering are stored as *names* (the
CLI spellings — ``"snm"``, ``"union:snm+token"``, ``"graph"`` …) plus
option mappings.  Already-constructed strategy *instances* remain
the job of the object-injection parameters (``matcher=``, ``detector=``)
that the facade keeps for advanced use.

See ``docs/api.md`` for the full tree and the old-kwarg → config-field
migration table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.dedup.blocking import resolve_blocking
from repro.dedup.detector import DuplicateDetector
from repro.dedup.graphcluster import resolve_clustering
from repro.exceptions import ConfigError
from repro.matching.dumas import DumasMatcher

__all__ = [
    "PREPARE_MODES",
    "MatchingConfig",
    "DedupConfig",
    "PrepareConfig",
    "ResolutionConfig",
    "FusionConfig",
    "load_config_data",
]


def load_config_data(path) -> Dict[str, Any]:
    """Read a JSON config file into its raw (unvalidated) document.

    Shared by :meth:`FusionConfig.from_file` and callers that need the raw
    mapping itself (the CLI inspects which fields a ``--config`` file
    actually set), so the read/parse error handling exists exactly once.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path!r}: {error}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"config is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ConfigError(
            f"config file must hold a JSON object, got {type(data).__name__}"
        )
    return data

#: Valid per-source preparation modes (see :mod:`repro.prepare`).
PREPARE_MODES = (None, "lazy", "eager")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_number(value: Any) -> bool:
    # bool is an int subclass, but True is not a number in a config
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Field annotation → (accepts the value?, what the error message expects).
#: Keys are the annotations as written: this module postpones annotations,
#: so ``dataclasses.Field.type`` is the source text.
_FIELD_TYPES = {
    "bool": (lambda value: isinstance(value, bool), "a boolean"),
    "int": (lambda value: _is_number(value) and isinstance(value, int), "an integer"),
    "float": (_is_number, "a number"),
    "Optional[str]": (lambda value: value is None or isinstance(value, str), "None or a string"),
    "Mapping[str, Any]": (lambda value: isinstance(value, Mapping), "a mapping"),
    "Tuple[str, ...]": (
        lambda value: isinstance(value, (list, tuple))
        and all(isinstance(item, str) for item in value),
        "a list of strings",
    ),
}


def _strategy_name(parameter: str):
    """A strategy-name field; instances belong to object injection, not the tree."""
    return field(
        default=None,
        metadata={
            "hint": "pass a strategy name here and instances via "
            f"DuplicateDetector({parameter}=...) object injection"
        },
    )


def _freeze(value: Any) -> Any:
    """Dict/list payloads → plain immutable-ish normal forms (lists → tuples)."""
    if isinstance(value, Mapping):
        return {key: _freeze(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(inner) for inner in value)
    return value


def _thaw(value: Any) -> Any:
    """The JSON-serialisable form of a frozen payload (tuples → lists)."""
    if isinstance(value, Mapping):
        return {key: _thaw(inner) for key, inner in value.items()}
    if isinstance(value, tuple):
        return [_thaw(inner) for inner in value]
    return value


class _Section:
    """Shared type checks and ``to_dict`` / ``from_dict`` plumbing of every section."""

    #: The section's key in the config tree, prefixed to field names in errors.
    section = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            accepts, expected = _FIELD_TYPES[f.type]
            if not accepts(value):
                hint = f.metadata.get("hint")
                raise ConfigError(
                    f"{self.section}.{f.name} must be {expected}, got {value!r}"
                    + (f"; {hint}" if hint else "")
                )
        self._validate()

    def _validate(self) -> None:
        """Value checks and normalisation, on fields of the right types."""

    def to_dict(self) -> Dict[str, Any]:
        """Field → JSON-serialisable value mapping (full, deterministic)."""
        return {f.name: _thaw(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_Section":
        """Construct and validate a section from a plain mapping.

        Unknown keys are rejected — a typo'd field name must fail loudly, not
        silently fall back to the default.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__} expects a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        _require(
            not unknown,
            f"unknown {cls.__name__} field(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(sorted(known))})",
        )
        return cls(**{key: value for key, value in data.items()})


@dataclass(frozen=True)
class MatchingConfig(_Section):
    """Schema-matching knobs (DUMAS seeding and correspondence derivation).

    Attributes:
        max_seeds: how many seed duplicate pairs drive field matching.
        min_seed_similarity: whole-tuple similarity floor for seed pairs.
        correspondence_threshold: field-similarity floor for an attribute
            correspondence to be kept.
        use_name_fallback: when instance-based matching finds nothing for a
            relation, fall back to label-based matching instead of failing.
    """

    section = "matching"

    max_seeds: int = 10
    min_seed_similarity: float = 0.25
    correspondence_threshold: float = 0.35
    use_name_fallback: bool = True

    def _validate(self) -> None:
        _require(self.max_seeds >= 1, "max_seeds must be at least 1")
        _require(
            0.0 <= self.min_seed_similarity <= 1.0,
            "min_seed_similarity must lie in [0, 1]",
        )
        _require(
            0.0 <= self.correspondence_threshold <= 1.0,
            "correspondence_threshold must lie in [0, 1]",
        )

    def build_matcher(self) -> DumasMatcher:
        """The :class:`DumasMatcher` this section describes."""
        return DumasMatcher(
            max_seeds=self.max_seeds,
            min_seed_similarity=self.min_seed_similarity,
            correspondence_threshold=self.correspondence_threshold,
        )


@dataclass(frozen=True)
class DedupConfig(_Section):
    """Duplicate-detection knobs: classification, blocking and clustering.

    Attributes:
        threshold: pairs at or above this similarity are duplicates.
        uncertainty_band: width of the "unsure" band below the threshold.
        use_filter: apply the upper-bound filter before full comparison.
        cross_source_only: only compare tuples from different sources.
        accept_unsure: whether undecided unsure pairs count as duplicates.
        keep_evidence: keep per-attribute evidence on every scored pair.
        blocking: blocking strategy *name* (``"allpairs"``, ``"snm"``,
            ``"token"``, ``"union"``, composite ``"union:snm+token"``) or
            ``None`` for the exact all-pairs baseline.
        blocking_options: constructor options for the named strategy
            (``window=`` for snm, ``max_block_size=`` for token, …).
        clustering: clustering strategy *name* (``"transitive"``,
            ``"graph"``, ``"biclique"``) or ``None`` for the paper's
            transitive-closure baseline.
        clustering_options: constructor options for the named clustering
            strategy (``min_cohesion=`` / ``weak_cut_ratio=`` for graph,
            ``weak_edge_ratio=`` / ``max_component_size=`` for biclique).
    """

    section = "dedup"

    threshold: float = 0.7
    uncertainty_band: float = 0.1
    use_filter: bool = True
    cross_source_only: bool = False
    accept_unsure: bool = True
    keep_evidence: bool = False
    blocking: Optional[str] = _strategy_name("blocking")
    blocking_options: Mapping[str, Any] = field(default_factory=dict)
    clustering: Optional[str] = _strategy_name("clustering")
    clustering_options: Mapping[str, Any] = field(default_factory=dict)

    def _validate(self) -> None:
        object.__setattr__(self, "blocking_options", _freeze(self.blocking_options))
        object.__setattr__(
            self, "clustering_options", _freeze(self.clustering_options)
        )
        _require(0.0 <= self.threshold <= 1.0, "threshold must lie in [0, 1]")
        _require(self.uncertainty_band >= 0.0, "uncertainty_band must not be negative")
        _require(
            not (self.blocking_options and self.blocking is None),
            "blocking_options need a named blocking strategy",
        )
        _require(
            not (self.clustering_options and self.clustering is None),
            "clustering_options need a named clustering strategy",
        )
        # Build (and discard) both strategies once: every name /
        # option mistake surfaces here, at construction, not mid-pipeline.
        try:
            self.build_blocking()
            self.build_clustering()
        except (ValueError, TypeError) as error:
            raise ConfigError(str(error)) from None

    def build_blocking(self):
        """The configured :class:`~repro.dedup.blocking.BlockingStrategy`."""
        return resolve_blocking(self.blocking, **dict(self.blocking_options))

    def build_clustering(self):
        """The configured :class:`~repro.dedup.graphcluster.ClusteringStrategy`."""
        return resolve_clustering(self.clustering, **dict(self.clustering_options))

    def build_detector(
        self, selection=None, blocking=None, clustering=None
    ) -> DuplicateDetector:
        """The configured :class:`DuplicateDetector`.

        *blocking* / *clustering* accept already-constructed
        instances (object injection for callers that build their own
        strategies); they win over the config names.
        """
        return DuplicateDetector(
            threshold=self.threshold,
            uncertainty_band=self.uncertainty_band,
            use_filter=self.use_filter,
            cross_source_only=self.cross_source_only,
            selection=selection,
            accept_unsure=self.accept_unsure,
            keep_evidence=self.keep_evidence,
            blocking=blocking if blocking is not None else self.build_blocking(),
            clustering=(
                clustering if clustering is not None else self.build_clustering()
            ),
        )


@dataclass(frozen=True)
class PrepareConfig(_Section):
    """Per-source artifact preparation (see :mod:`repro.prepare`).

    Attributes:
        mode: ``None`` disables artifacts, ``"lazy"`` builds them on the
            first fusion query that needs them, ``"eager"`` at registration.
        artifact_dir: optional directory for on-disk persistence — a
            restarted process with the same directory serves its first
            query warm.  The fusion service sets this per tenant when run
            with a data dir (see :mod:`repro.service.journal`), so each
            tenant's artifact cache survives restarts in isolation.
    """

    section = "prepare"

    mode: Optional[str] = None
    artifact_dir: Optional[str] = None

    def _validate(self) -> None:
        _require(
            self.mode in PREPARE_MODES,
            f'unknown prepare mode {self.mode!r}: must be None, "lazy" or "eager"',
        )


@dataclass(frozen=True)
class ResolutionConfig(_Section):
    """Default conflict-resolution requests for the automatic pipeline.

    Attributes:
        resolutions: column name → resolution-function name (or a
            ``[name, [args...]]`` pair for parameterised functions) applied
            when a fuse call gives no explicit spec.  Unmentioned columns
            use Coalesce.
        key_columns: FUSE BY key columns; empty means object identity comes
            from duplicate detection (the ``objectID`` column).
    """

    section = "resolution"

    resolutions: Mapping[str, Any] = field(default_factory=dict)
    key_columns: Tuple[str, ...] = ()

    def _validate(self) -> None:
        object.__setattr__(self, "resolutions", _freeze(self.resolutions))
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        for column, function in self.resolutions.items():
            _require(
                isinstance(column, str) and column != "",
                "resolution columns must be non-empty strings",
            )
            valid = isinstance(function, str) or (
                isinstance(function, tuple)
                and len(function) == 2
                and isinstance(function[0], str)
                and isinstance(function[1], tuple)
            )
            _require(
                valid,
                f"resolution for column {column!r} must be a function name or "
                "a [name, [args...]] pair",
            )
        _require(all(self.key_columns), "key_columns must be non-empty strings")

    def build_spec(self):
        """The :class:`~repro.core.fusion.FusionSpec` this section describes.

        Returns ``None`` when the section is empty, so callers fall back to
        their step defaults (fuse on ``objectID`` with Coalesce).
        """
        if not self.resolutions and not self.key_columns:
            return None
        from repro.core.fusion import FusionSpec, ResolutionSpec
        from repro.dedup.detector import OBJECT_ID_COLUMN

        specs = [
            ResolutionSpec(column, self._function_reference(function))
            for column, function in self.resolutions.items()
        ]
        keys = list(self.key_columns) if self.key_columns else [OBJECT_ID_COLUMN]
        return FusionSpec(key_columns=keys, resolutions=specs)

    @staticmethod
    def _function_reference(function: Any) -> Union[str, Tuple[str, tuple]]:
        if isinstance(function, tuple):
            name, arguments = function
            return (name, tuple(arguments))
        return function


#: Section name → section class, in tree order.
_SECTIONS = {
    section_class.section: section_class
    for section_class in (MatchingConfig, DedupConfig, PrepareConfig, ResolutionConfig)
}


@dataclass(frozen=True)
class FusionConfig:
    """The whole fusion configuration: one typed, immutable tree.

    Construct directly, from a nested mapping (:meth:`from_dict`), from JSON
    text (:meth:`from_json`) or a JSON file (:meth:`from_file`), or from
    parsed CLI flags (:meth:`from_cli_args`).  Derive variants with
    :meth:`merged` — the tree itself never mutates.
    """

    matching: MatchingConfig = field(default_factory=MatchingConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    prepare: PrepareConfig = field(default_factory=PrepareConfig)
    resolution: ResolutionConfig = field(default_factory=ResolutionConfig)

    def __post_init__(self) -> None:
        for name, section_class in _SECTIONS.items():
            _require(
                isinstance(getattr(self, name), section_class),
                f"{name} must be a {section_class.__name__} "
                f"(got {type(getattr(self, name)).__name__}); "
                "use FusionConfig.from_dict for plain mappings",
            )

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full nested, JSON-serialisable form of the tree."""
        return {name: getattr(self, name).to_dict() for name in _SECTIONS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FusionConfig":
        """Build and validate a tree from a nested mapping.

        Sections may be omitted (→ defaults); unknown sections and unknown
        fields inside a section are rejected.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"FusionConfig expects a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_SECTIONS))
        _require(
            not unknown,
            f"unknown config section(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(_SECTIONS)})",
        )
        sections = {
            name: section_class.from_dict(data[name])
            for name, section_class in _SECTIONS.items()
            if name in data
        }
        return cls(**sections)

    def to_json(self, indent: int = 2) -> str:
        """The tree as a JSON document (what ``--config fusion.json`` reads)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FusionConfig":
        """Parse a JSON document into a validated tree."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"config is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FusionConfig":
        """Read and parse a JSON config file (the CLI's ``--config``)."""
        return cls.from_dict(load_config_data(path))

    # -- derivation ----------------------------------------------------------------

    def merged(self, overrides: Mapping[str, Any]) -> "FusionConfig":
        """A new tree with *overrides* (a nested partial mapping) applied.

        Only the mentioned fields change; everything else is carried over.
        The result is validated like any other construction.
        """
        if not isinstance(overrides, Mapping):
            raise ConfigError(
                f"merged() expects a nested mapping, got {type(overrides).__name__}"
            )
        unknown = sorted(set(overrides) - set(_SECTIONS))
        _require(
            not unknown,
            f"unknown config section(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(_SECTIONS)})",
        )
        sections = {}
        for name, section_class in _SECTIONS.items():
            if name not in overrides:
                continue
            current = getattr(self, name).to_dict()
            patch = overrides[name]
            if not isinstance(patch, Mapping):
                raise ConfigError(
                    f"override for section {name!r} must be a mapping, "
                    f"got {type(patch).__name__}"
                )
            current.update(patch)
            sections[name] = section_class.from_dict(current)
        return replace(self, **sections)

    # -- CLI mapping ---------------------------------------------------------------

    @classmethod
    def from_cli_args(cls, args, base: Optional["FusionConfig"] = None) -> "FusionConfig":
        """Map parsed ``hummer`` CLI flags onto a config tree.

        *base* is the starting tree (typically loaded from ``--config``);
        only flags the user actually set (non-``None``) override it, so a
        config file and ad-hoc flags compose naturally.  Attribute lookups
        are tolerant — sub-commands without a given flag simply don't
        contribute it.
        """
        config = base if base is not None else cls()
        dedup: Dict[str, Any] = {}
        prepare: Dict[str, Any] = {}

        threshold = getattr(args, "threshold", None)
        if threshold is not None:
            dedup["threshold"] = threshold

        # Dependent flags are validated against the *effective* value — the
        # flag when given, else the base config — so e.g. `--snm-window 6`
        # composes with a config file whose dedup.blocking is "snm".
        blocking = getattr(args, "blocking", None)
        snm_window = getattr(args, "snm_window", None)
        token_max_block = getattr(args, "token_max_block", None)
        effective_blocking = blocking if blocking is not None else config.dedup.blocking
        _require(
            snm_window is None or effective_blocking == "snm",
            "--snm-window only applies with --blocking snm",
        )
        _require(
            token_max_block is None or effective_blocking == "token",
            "--token-max-block only applies with --blocking token",
        )
        if blocking is not None or snm_window is not None or token_max_block is not None:
            if blocking is not None and blocking != config.dedup.blocking:
                # a strategy change invalidates the base's options wholesale
                options: Dict[str, Any] = {}
            else:
                options = dict(config.dedup.blocking_options)
            if snm_window is not None:
                options["window"] = snm_window
            if token_max_block is not None:
                options["max_block_size"] = token_max_block
            dedup["blocking"] = effective_blocking
            dedup["blocking_options"] = options

        clustering = getattr(args, "clustering", None)
        if clustering is not None:
            dedup["clustering"] = clustering
            if clustering != config.dedup.clustering:
                # a strategy change invalidates the base's options wholesale
                dedup["clustering_options"] = {}

        artifact_dir = getattr(args, "artifact_dir", None)
        if getattr(args, "prepare", False) or artifact_dir is not None:
            # lazy: the pipeline's prepare phase builds on first use, so the
            # summary's reuse/rebuild counters tell the whole story of a run
            prepare["mode"] = "lazy"
        if artifact_dir is not None:
            prepare["artifact_dir"] = artifact_dir

        overrides: Dict[str, Any] = {}
        if dedup:
            overrides["dedup"] = dedup
        if prepare:
            overrides["prepare"] = prepare
        return config.merged(overrides) if overrides else config
