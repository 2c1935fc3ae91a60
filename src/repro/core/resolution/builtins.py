"""Assembly of the default resolution-function registry.

Covers every function the paper lists in §2.4 — Choose(source), Coalesce,
First/Last, Vote, Group, (Annotated) Concat, Shortest/Longest, Most Recent —
plus the standard SQL aggregates (min, max, sum, avg, count, ...) and a few
numeric extensions, all under one extensible registry.
"""

from __future__ import annotations

from repro.core.resolution.base import FunctionResolution, ResolutionRegistry
from repro.core.resolution.content import (
    AnnotatedConcat,
    Concat,
    Group,
    Longest,
    Shortest,
    Vote,
)
from repro.core.resolution.metadata_based import Choose, ChooseSourceOrder, MostRecent
from repro.core.resolution.numeric import Midrange, MostPrecise, TrimmedMean
from repro.core.resolution.standard import Coalesce, First, Last
from repro.engine.operators.aggregates import AGGREGATE_FUNCTIONS

__all__ = ["build_default_registry"]


def build_default_registry() -> ResolutionRegistry:
    """Build a registry holding every built-in resolution function."""
    registry = ResolutionRegistry()

    # Paper §2.4 functions.
    registry.register(Coalesce())
    registry.register(First())
    registry.register(Last())
    registry.register(Vote())
    registry.register(Group())
    registry.register(Concat())
    registry.register(AnnotatedConcat())
    registry.register(Shortest())
    registry.register(Longest())
    registry.register_factory("choose", lambda source, strict=False: Choose(source, strict))
    registry.register_factory("choose_source_order", ChooseSourceOrder)
    registry.register_factory("most_recent", MostRecent)
    # most_recent can also run without arguments if the pipeline supplies the
    # recency column via context metadata.
    registry.register(MostRecent(), replace=False)

    # Standard SQL aggregates usable as resolution functions (paper: "In
    # addition to the standard aggregation functions already available in SQL").
    for name in ("min", "max", "sum", "avg", "median", "count", "stddev", "variance"):
        registry.register(
            FunctionResolution(
                name,
                AGGREGATE_FUNCTIONS[name],
                doc=f"Standard SQL aggregate {name.upper()} over the non-null conflicting values.",
                # the others compute a new value even from one (avg(1) is 1.0)
                keeps_single_value=name in ("min", "max", "median"),
            )
        )

    # Numeric extensions (HumMer is extensible; new functions can be added).
    registry.register(TrimmedMean())
    registry.register(Midrange())
    registry.register(MostPrecise())
    return registry
