"""Content-based resolution functions: Vote, Group, Concat, Shortest, Longest.

These cover the paper's list of strategies that look only at the conflicting
values themselves (plus, for the annotated variant, the source metadata).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List

from repro.core.resolution.base import ResolutionContext, ResolutionFunction
from repro.engine.types import is_null, value_key

__all__ = ["Vote", "Group", "Concat", "AnnotatedConcat", "Shortest", "Longest"]


class Vote(ResolutionFunction):
    """Returns the value that appears most often among the present values.

    Ties are broken deterministically in favour of the value that appears
    first (the paper notes ties "could be broken by a variety of strategies,
    e.g., choosing randomly"; a deterministic rule keeps query results
    reproducible).
    """

    name = "vote"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        values = context.non_null_values
        if not values:
            return None
        counts: Counter = Counter()
        first_position = {}
        for position, value in enumerate(values):
            key = value_key(value)
            counts[key] += 1
            first_position.setdefault(key, (position, value))
        best_key = max(counts, key=lambda key: (counts[key], -first_position[key][0]))
        return first_position[best_key][1]


class Group(ResolutionFunction):
    """Returns a set of all conflicting values and leaves resolution to the user.

    The "set" is materialised as a sorted tuple of the distinct values so the
    result is hashable, printable and deterministic.
    """

    name = "group"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        distinct = context.distinct_values
        if not distinct:
            return None
        if len(distinct) == 1:
            return distinct[0]
        return tuple(sorted(distinct, key=str))


class Concat(ResolutionFunction):
    """Returns the concatenated distinct values."""

    name = "concat"
    keeps_single_value = True

    def __init__(self, separator: str = ", "):
        self.separator = separator

    def resolve(self, context: ResolutionContext) -> Any:
        distinct = context.distinct_values
        if not distinct:
            return None
        if len(distinct) == 1:
            return distinct[0]
        return self.separator.join(str(value) for value in distinct)


class AnnotatedConcat(ResolutionFunction):
    """Returns the concatenated values annotated with the data source of each.

    Example result: ``"9.99 [cd_planet], 10.49 [discount_cds]"``.
    """

    name = "annotated_concat"

    def __init__(self, separator: str = ", "):
        self.separator = separator

    def resolve(self, context: ResolutionContext) -> Any:
        parts: List[str] = []
        seen = set()
        for value, source in zip(context.values, context.sources):
            if is_null(value):
                continue
            label = source if source is not None else "?"
            rendered = f"{value} [{label}]"
            if rendered in seen:
                continue
            seen.add(rendered)
            parts.append(rendered)
        if not parts:
            return None
        return self.separator.join(parts)


class Shortest(ResolutionFunction):
    """Chooses the value of minimum length according to a length measure (string length)."""

    name = "shortest"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        values = context.non_null_values
        if not values:
            return None
        return min(values, key=lambda value: (len(str(value)), str(value)))


class Longest(ResolutionFunction):
    """Chooses the value of maximum length according to a length measure (string length)."""

    name = "longest"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        values = context.non_null_values
        if not values:
            return None
        return max(values, key=lambda value: (len(str(value)), str(value)))
