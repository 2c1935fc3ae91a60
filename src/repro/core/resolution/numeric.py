"""Numeric resolution strategies beyond the standard SQL aggregates.

The paper states that HumMer is extensible and new functions can be added;
these are the numeric strategies repeatedly mentioned in the conflict
resolution literature the paper points to (taking an average excluding
outliers, preferring the most precise value, ...).
"""

from __future__ import annotations

from typing import Any, List

from repro.core.resolution.base import ResolutionContext, ResolutionFunction

__all__ = ["TrimmedMean", "MostPrecise", "Midrange"]


def _numeric_values(context: ResolutionContext) -> List[float]:
    values = []
    for value in context.non_null_values:
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            values.append(float(value))
        else:
            try:
                values.append(float(str(value)))
            except ValueError:
                continue
    return values


class TrimmedMean(ResolutionFunction):
    """Average of the values after dropping the smallest and largest (when ≥ 3 values)."""

    name = "trimmed_mean"

    def resolve(self, context: ResolutionContext) -> Any:
        values = _numeric_values(context)
        if not values:
            return None
        if len(values) < 3:
            return sum(values) / len(values)
        trimmed = sorted(values)[1:-1]
        return sum(trimmed) / len(trimmed)


class Midrange(ResolutionFunction):
    """Midpoint between the smallest and largest value."""

    name = "midrange"

    def resolve(self, context: ResolutionContext) -> Any:
        values = _numeric_values(context)
        if not values:
            return None
        return (min(values) + max(values)) / 2.0


class MostPrecise(ResolutionFunction):
    """Chooses the value with the most decimal places (assumed most accurate)."""

    name = "most_precise"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        best_value = None
        best_precision = -1
        for value in context.non_null_values:
            precision = self._precision(value)
            if precision > best_precision:
                best_precision = precision
                best_value = value
        return best_value

    @staticmethod
    def _precision(value: Any) -> int:
        text = str(value)
        if "." not in text:
            return 0
        return len(text.split(".", 1)[1].rstrip("0"))
