"""Conflict-resolution function framework.

Paper §2.4: "Conflict resolution is implemented as user defined aggregation.
However, the concept of conflict resolution is more general than the concept
of aggregation, because it uses the entire query context to resolve
conflicts.  The query context consists not only of the conflicting values
themselves, but also of the corresponding tuples, all the remaining column
values, and other metadata, such as column name or table name."

:class:`ResolutionContext` is that query context; :class:`ResolutionFunction`
is the user-defined-aggregation interface; :class:`ResolutionRegistry` makes
HumMer extensible ("new functions can be added").
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.engine.relation import Row
from repro.engine.types import is_null, value_key
from repro.exceptions import ResolutionError, UnknownResolutionFunctionError

__all__ = [
    "ResolutionContext",
    "ResolutionFunction",
    "FunctionResolution",
    "ResolutionRegistry",
    "default_registry",
]


class ResolutionContext:
    """Everything a resolution function may consult while resolving one column
    of one object cluster.

    ``rows`` and ``sources`` may be passed as plain lists or as zero-argument
    callables; a callable is invoked (once, then cached) on first access.
    Most functions — Coalesce above all, the Fuse By default — only ever read
    ``values``, so the fusion operator hands in factories and the wrapper
    :class:`~repro.engine.relation.Row` objects (and per-source strings) are
    simply never built for them.

    Attributes:
        column: name of the column being resolved.
        values: the (possibly conflicting) values of that column, one per
            tuple of the cluster, in cluster order — including nulls.
        rows: the full tuples of the cluster (same order as *values*).
        sources: value of the ``sourceID`` column per tuple (or ``None``).
        object_id: the cluster's objectID.
        table_name: name of the fused input table.
        metadata: free-form extras (e.g. the attribute used for recency).
    """

    def __init__(
        self,
        column: str,
        values: List[Any],
        rows: Union[List[Row], Callable[[], List[Row]], None] = None,
        sources: Union[List[Optional[str]], Callable[[], List[Optional[str]]], None] = None,
        object_id: Any = None,
        table_name: str = "",
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.column = column
        self.values = values
        self._rows = rows if rows is not None else []
        self._sources = sources if sources is not None else []
        self.object_id = object_id
        self.table_name = table_name
        self.metadata = metadata if metadata is not None else {}

    @property
    def rows(self) -> List[Row]:
        """The full tuples of the cluster (materialised on first access)."""
        if callable(self._rows):
            self._rows = self._rows()
        return self._rows

    @rows.setter
    def rows(self, rows: Union[List[Row], Callable[[], List[Row]]]) -> None:
        self._rows = rows

    @property
    def sources(self) -> List[Optional[str]]:
        """Per-tuple source names (materialised on first access)."""
        if callable(self._sources):
            self._sources = self._sources()
        return self._sources

    @sources.setter
    def sources(self, sources) -> None:
        self._sources = sources

    def __repr__(self) -> str:
        return (
            f"ResolutionContext(column={self.column!r}, values={self.values!r}, "
            f"object_id={self.object_id!r})"
        )

    @property
    def non_null_values(self) -> List[Any]:
        """The values that are actually present."""
        return [value for value in self.values if not is_null(value)]

    @property
    def distinct_values(self) -> List[Any]:
        """Distinct non-null values, first-seen order (the *conflicting* values)."""
        seen = set()
        distinct = []
        for value in self.non_null_values:
            key = value_key(value)
            if key not in seen:
                seen.add(key)
                distinct.append(value)
        return distinct

    @property
    def has_conflict(self) -> bool:
        """True if at least two distinct non-null values are present (contradiction)."""
        return len(self.distinct_values) > 1

    @property
    def is_uncertain(self) -> bool:
        """True if exactly one distinct value is present but some tuples miss it."""
        return len(self.distinct_values) == 1 and any(is_null(v) for v in self.values)

    def value_for_source(self, source: str) -> Any:
        """The column value contributed by *source* (first match), or ``None``."""
        for value, value_source in zip(self.values, self.sources):
            if value_source == source:
                return value
        return None


class ResolutionFunction(abc.ABC):
    """A conflict-resolution strategy applied per column, per object cluster."""

    #: Registry name; subclasses must set it.
    name: str = ""

    #: Declares that :meth:`resolve` over a single value returns that value
    #: itself (``None`` when it is null).  The fusion operator then copies
    #: the cell of a one-tuple group without building a context.  Off by
    #: default: a function that does not declare it is always resolved, and
    #: a subclass that overrides :meth:`resolve` must re-check the claim.
    keeps_single_value: bool = False

    @abc.abstractmethod
    def resolve(self, context: ResolutionContext) -> Any:
        """Produce the single resolved value for *context*."""

    def __call__(self, context: ResolutionContext) -> Any:
        return self.resolve(context)

    def describe(self) -> str:
        """One-line description used in documentation and the CLI."""
        return (self.__doc__ or self.name or type(self).__name__).strip().splitlines()[0]


class FunctionResolution(ResolutionFunction):
    """Adapter turning a plain callable over a value list into a resolution function.

    This is how the standard SQL aggregates (min, max, sum, avg, ...) are made
    available as resolution functions, matching the paper's "in addition to
    the standard aggregation functions already available in SQL".
    """

    def __init__(
        self,
        name: str,
        function: Callable[[Sequence[Any]], Any],
        doc: str = "",
        keeps_single_value: bool = False,
    ):
        self.name = name
        self._function = function
        self.keeps_single_value = keeps_single_value
        self.__doc__ = doc or f"Standard aggregate {name!r} applied to the non-null values."

    def resolve(self, context: ResolutionContext) -> Any:
        return self._function(context.values)


class ResolutionRegistry:
    """Name → resolution function registry.

    Functions may be registered as instances, classes or plain callables; the
    registry also supports *parameterised* lookups such as ``choose`` which
    need arguments from the query (``RESOLVE(price, choose('cheap_store'))``).
    """

    def __init__(self) -> None:
        self._functions: Dict[str, ResolutionFunction] = {}
        self._factories: Dict[str, Callable[..., ResolutionFunction]] = {}

    def register(self, function: ResolutionFunction, replace: bool = False) -> None:
        """Register a ready-to-use resolution function under its ``name``."""
        key = function.name.lower()
        if not key:
            raise ResolutionError("resolution function must define a non-empty name")
        if key in self._functions and not replace:
            raise ResolutionError(f"resolution function {function.name!r} already registered")
        self._functions[key] = function

    def register_factory(
        self, name: str, factory: Callable[..., ResolutionFunction], replace: bool = False
    ) -> None:
        """Register a factory for parameterised functions (e.g. ``choose(source)``)."""
        key = name.lower()
        if key in self._factories and not replace:
            raise ResolutionError(f"resolution factory {name!r} already registered")
        self._factories[key] = factory

    def register_callable(
        self, name: str, function: Callable[[Sequence[Any]], Any], doc: str = ""
    ) -> None:
        """Register a plain list-of-values callable as a resolution function."""
        self.register(FunctionResolution(name, function, doc))

    def get(self, name: str, *arguments: Any) -> ResolutionFunction:
        """Look up a function by name, instantiating a factory when arguments are given."""
        key = name.lower()
        if arguments or (key in self._factories and key not in self._functions):
            factory = self._factories.get(key)
            if factory is None:
                raise UnknownResolutionFunctionError(name, tuple(self.names()))
            return factory(*arguments)
        try:
            return self._functions[key]
        except KeyError:
            raise UnknownResolutionFunctionError(name, tuple(self.names())) from None

    def has(self, name: str) -> bool:
        """Whether *name* is registered (as function or factory)."""
        key = name.lower()
        return key in self._functions or key in self._factories

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(set(self._functions) | set(self._factories))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(set(self._functions) | set(self._factories))


_DEFAULT_REGISTRY: Optional[ResolutionRegistry] = None


def default_registry() -> ResolutionRegistry:
    """The process-wide default registry, populated with every built-in function."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        from repro.core.resolution.builtins import build_default_registry

        _DEFAULT_REGISTRY = build_default_registry()
    return _DEFAULT_REGISTRY
