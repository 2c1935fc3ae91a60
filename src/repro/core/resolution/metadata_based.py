"""Metadata-driven resolution functions: Choose(source) and Most Recent.

These are the functions that genuinely need the *query context* beyond the
conflicting values — the source of each tuple, or another attribute of the
corresponding tuples (a timestamp for recency).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.resolution.base import ResolutionContext, ResolutionFunction
from repro.engine.types import DataType, coerce, is_null
from repro.exceptions import ResolutionError, TypeCoercionError

__all__ = ["Choose", "MostRecent", "ChooseSourceOrder"]


class Choose(ResolutionFunction):
    """Returns the value supplied by the specific source.

    ``RESOLVE(price, choose('cheap_store'))`` — the CD-shopping scenario's
    "favoring the data of the cheapest store".  Falls back to the first
    non-null value when the preferred source did not supply one (configurable
    with ``strict=True`` to return null instead).
    """

    name = "choose"

    def __init__(self, source: str, strict: bool = False):
        if not source:
            raise ResolutionError("choose() needs a source alias")
        self.source = source
        self.strict = strict
        # strict returns null when another source supplied the one value
        self.keeps_single_value = not strict

    def resolve(self, context: ResolutionContext) -> Any:
        for value, source in zip(context.values, context.sources):
            if source == self.source and not is_null(value):
                return value
        if self.strict:
            return None
        for value in context.values:
            if not is_null(value):
                return value
        return None


class ChooseSourceOrder(ResolutionFunction):
    """Returns the value from the highest-priority source in a preference list."""

    name = "choose_source_order"
    keeps_single_value = True

    def __init__(self, *sources: str):
        if not sources:
            raise ResolutionError("choose_source_order() needs at least one source alias")
        self.sources = list(sources)

    def resolve(self, context: ResolutionContext) -> Any:
        for preferred in self.sources:
            for value, source in zip(context.values, context.sources):
                if source == preferred and not is_null(value):
                    return value
        for value in context.values:
            if not is_null(value):
                return value
        return None


class MostRecent(ResolutionFunction):
    """Recency is evaluated with the help of another attribute or other metadata.

    ``RESOLVE(status, most_recent('last_updated'))`` returns the value of the
    tuple whose *recency_column* is largest (dates are coerced; tuples without
    a usable recency value are considered oldest).
    """

    name = "most_recent"

    def __init__(self, recency_column: Optional[str] = None):
        self.recency_column = recency_column

    def resolve(self, context: ResolutionContext) -> Any:
        recency_column = self.recency_column or context.metadata.get("recency_column")
        if not recency_column:
            raise ResolutionError(
                "most_recent needs a recency column, e.g. RESOLVE(status, most_recent('updated'))"
            )
        best_value: Any = None
        best_recency = None
        for value, row in zip(context.values, context.rows):
            if is_null(value):
                continue
            recency_raw = row.get(recency_column)
            recency = self._as_sortable(recency_raw)
            if recency is None:
                continue
            if best_recency is None or recency > best_recency:
                best_recency = recency
                best_value = value
        if best_value is not None:
            return best_value
        # no tuple had a usable recency value: fall back to coalesce
        for value in context.values:
            if not is_null(value):
                return value
        return None

    @staticmethod
    def _as_sortable(value: Any):
        if is_null(value):
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        try:
            coerced = coerce(value, DataType.DATE)
        except TypeCoercionError:
            return None
        import datetime as _dt

        if isinstance(coerced, _dt.datetime):
            return coerced.timestamp()
        if isinstance(coerced, _dt.date):
            return _dt.datetime(coerced.year, coerced.month, coerced.day).timestamp()
        return None
