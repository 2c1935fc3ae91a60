"""Standard SQL aggregate functions.

The paper notes that conflict resolution is "implemented as user defined
aggregation" and that the standard SQL aggregates (min, max, sum, ...) are
directly usable as resolution functions.  This module provides those
standard aggregates for the GROUP BY operator; the richer, context-aware
resolution functions live in :mod:`repro.core.resolution` and wrap these
where they overlap.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Sequence

from repro.engine.types import is_null, value_key
from repro.exceptions import ExpressionError

__all__ = ["AGGREGATE_FUNCTIONS", "aggregate_function"]


def _non_null(values: Sequence[Any]) -> List[Any]:
    return [value for value in values if not is_null(value)]


def _agg_count(values: Sequence[Any]) -> int:
    return len(_non_null(values))


def _agg_count_all(values: Sequence[Any]) -> int:
    return len(values)


def _agg_sum(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if not present:
        return None
    return sum(present)


def _agg_avg(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if not present:
        return None
    return sum(present) / len(present)


def _agg_min(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if not present:
        return None
    try:
        return min(present)
    except TypeError:
        return min(present, key=str)


def _agg_max(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if not present:
        return None
    try:
        return max(present)
    except TypeError:
        return max(present, key=str)


def _agg_median(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if not present:
        return None
    return statistics.median(present)


def _agg_stddev(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if len(present) < 2:
        return None
    return statistics.stdev(present)


def _agg_variance(values: Sequence[Any]) -> Any:
    present = _non_null(values)
    if len(present) < 2:
        return None
    return statistics.variance(present)


def _agg_count_distinct(values: Sequence[Any]) -> int:
    return len({value_key(value) for value in _non_null(values)})


#: Registry of standard aggregates: name → function(list of values) → value.
AGGREGATE_FUNCTIONS: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "count": _agg_count,
    "count_all": _agg_count_all,
    "count_distinct": _agg_count_distinct,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "mean": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
    "median": _agg_median,
    "stddev": _agg_stddev,
    "variance": _agg_variance,
}


def aggregate_function(name: str) -> Callable[[Sequence[Any]], Any]:
    """Look up a standard aggregate by (case-insensitive) name.

    Raises:
        ExpressionError: if no aggregate with that name is registered.
    """
    try:
        return AGGREGATE_FUNCTIONS[name.lower()]
    except KeyError:
        raise ExpressionError(
            f"unknown aggregate function {name!r}; known: {', '.join(sorted(AGGREGATE_FUNCTIONS))}"
        ) from None
