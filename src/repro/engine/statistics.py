"""Relation profiling statistics.

Used by the duplicate-detection heuristics ("interesting" attribute
selection) and by the documentation/CLI to describe registered sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.engine.relation import Relation
from repro.engine.types import DataType

__all__ = ["ColumnStatistics", "RelationStatistics", "profile_relation"]


@dataclass
class ColumnStatistics:
    """Profile of one column."""

    name: str
    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    average_length: float

    @property
    def null_ratio(self) -> float:
        """Fraction of cells that are null."""
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    @property
    def distinctness(self) -> float:
        """Distinct non-null values divided by non-null cells (identifying power proxy)."""
        non_null = self.row_count - self.null_count
        if non_null == 0:
            return 0.0
        return self.distinct_count / non_null

    @property
    def completeness(self) -> float:
        """Fraction of cells that carry a value."""
        return 1.0 - self.null_ratio


@dataclass
class RelationStatistics:
    """Profile of a whole relation."""

    name: str
    row_count: int
    column_count: int
    columns: Dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        """Statistics of one column (case-insensitive)."""
        return self.columns[name.lower()]


def profile_relation(relation: Relation) -> RelationStatistics:
    """Compute per-column statistics for *relation*."""
    columns: Dict[str, ColumnStatistics] = {}
    row_count = len(relation)
    for column in relation.schema:
        # One pass over the column's distinct cells; the integer length sum
        # keeps the average exact.
        values, counts, _ = relation.dictionary(column.name)
        texts = [str(value) for value in values]
        non_null = sum(counts)
        length_sum = sum(len(text) * count for text, count in zip(texts, counts))
        columns[column.name.lower()] = ColumnStatistics(
            name=column.name,
            dtype=column.dtype,
            row_count=row_count,
            null_count=row_count - non_null,
            distinct_count=len(set(texts)),
            average_length=length_sum / non_null if non_null else 0.0,
        )
    return RelationStatistics(
        name=relation.name,
        row_count=row_count,
        column_count=len(relation.schema),
        columns=columns,
    )
