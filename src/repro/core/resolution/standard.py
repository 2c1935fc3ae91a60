"""Positional and null-handling resolution functions.

Implements the paper's Coalesce (the Fuse By default), First and Last.
"""

from __future__ import annotations

from typing import Any

from repro.core.resolution.base import ResolutionContext, ResolutionFunction
from repro.engine.types import is_null

__all__ = ["Coalesce", "First", "Last"]


class Coalesce(ResolutionFunction):
    """Takes the first non-null value appearing (the Fuse By default function)."""

    name = "coalesce"
    keeps_single_value = True

    def resolve(self, context: ResolutionContext) -> Any:
        for value in context.values:
            if not is_null(value):
                return value
        return None


class First(ResolutionFunction):
    """Takes the first value of all values, even if it is a null value."""

    name = "first"

    def resolve(self, context: ResolutionContext) -> Any:
        return context.values[0] if context.values else None


class Last(ResolutionFunction):
    """Takes the last value of all values, even if it is a null value."""

    name = "last"

    def resolve(self, context: ResolutionContext) -> Any:
        return context.values[-1] if context.values else None
