"""Exception hierarchy for the HumMer reproduction.

Every error raised by the library derives from :class:`HummerError`, so
callers can catch a single type at the API boundary.  Sub-hierarchies mirror
the subsystems: the relational engine, the Fuse By query language, schema
matching, duplicate detection and conflict resolution.
"""

from __future__ import annotations


class HummerError(Exception):
    """Base class for every error raised by the library."""


class ConfigError(HummerError, ValueError):
    """A :class:`repro.config.FusionConfig` (or one of its sections) is invalid.

    Subclasses :class:`ValueError` so call sites that predate the typed
    config tree — where the same mistakes surfaced as scattered
    ``ValueError``\\ s — keep working unchanged.
    """


class SnapshotError(HummerError, ValueError):
    """A session snapshot is malformed (wrong shape, version or step list).

    A :class:`ValueError` like :class:`ConfigError`: the snapshot is bad
    input, so the service answers 400 rather than a pipeline failure.
    """


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class EngineError(HummerError):
    """Base class for errors raised by :mod:`repro.engine`."""


class SchemaError(EngineError):
    """A schema is malformed or an operation is incompatible with it."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema."""

    def __init__(self, column: str, available: tuple = ()):
        self.column = column
        self.available = tuple(available)
        message = f"unknown column {column!r}"
        if self.available:
            message += f" (available: {', '.join(self.available)})"
        super().__init__(message)


class DuplicateColumnError(SchemaError):
    """Two columns in one schema share a name."""


class TypeCoercionError(EngineError):
    """A value could not be coerced to the declared column type."""


class ExpressionError(EngineError):
    """An expression is malformed or cannot be evaluated."""


class CatalogError(EngineError):
    """A source alias is unknown or already registered."""


class UnknownSourceError(CatalogError):
    """A source alias is not registered."""


class SourceExistsError(CatalogError):
    """A source alias is already registered (and ``replace`` was not asked for)."""


class SourceError(EngineError):
    """A data source (CSV, JSON, ...) could not be read."""


# ---------------------------------------------------------------------------
# Fuse By query language
# ---------------------------------------------------------------------------


class QueryError(HummerError):
    """Base class for errors raised by :mod:`repro.fuseby`."""


class LexerError(QueryError):
    """The query text contains an illegal token."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        self.position = position
        self.line = line
        if line >= 0:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(QueryError):
    """The query text does not conform to the Fuse By grammar."""

    def __init__(self, message: str, token=None):
        self.token = token
        if token is not None:
            message = f"{message} (near {token!r})"
        super().__init__(message)


class PlanningError(QueryError):
    """The query is grammatical but cannot be planned (semantic error)."""


class UnknownFunctionError(PlanningError):
    """A RESOLVE clause names a conflict-resolution function that is not registered."""


# ---------------------------------------------------------------------------
# Schema matching
# ---------------------------------------------------------------------------


class MatchingError(HummerError):
    """Base class for errors raised by :mod:`repro.matching`."""


class InsufficientDuplicatesError(MatchingError):
    """Not enough seed duplicates could be found to derive correspondences."""


# ---------------------------------------------------------------------------
# Duplicate detection
# ---------------------------------------------------------------------------


class DedupError(HummerError):
    """Base class for errors raised by :mod:`repro.dedup`."""


# ---------------------------------------------------------------------------
# Conflict resolution / fusion
# ---------------------------------------------------------------------------


class FusionError(HummerError):
    """Base class for errors raised by :mod:`repro.core`."""


class ResolutionError(FusionError):
    """A conflict-resolution function failed or was misused."""


class UnknownResolutionFunctionError(ResolutionError):
    """The requested resolution function is not registered."""

    def __init__(self, name: str, available: tuple = ()):
        self.name = name
        self.available = tuple(available)
        message = f"unknown resolution function {name!r}"
        if self.available:
            message += f" (registered: {', '.join(sorted(self.available))})"
        super().__init__(message)
