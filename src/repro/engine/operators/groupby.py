"""Grouping and aggregation operators.

``GroupBy`` implements SQL GROUP BY with standard aggregates; it is both a
query operator in its own right and the *baseline fusion strategy* against
which the Fuse By conflict-resolution operator is compared in experiment E3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.operators.aggregates import aggregate_function
from repro.engine.operators.base import Operator
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import infer_column_type

__all__ = ["AggregateSpec", "GroupBy", "Aggregate", "group_indices", "group_keys", "group_rows"]


@dataclass
class AggregateSpec:
    """One aggregated output column.

    Attributes:
        column: input column the aggregate consumes.
        function: either the name of a standard aggregate (``"max"``) or a
            callable taking the list of group values.
        alias: output column name; defaults to ``function_column``.
    """

    column: str
    function: Any
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        label = self.function if isinstance(self.function, str) else getattr(
            self.function, "__name__", "agg"
        )
        return f"{label}_{self.column}"

    def resolve(self) -> Callable[[Sequence[Any]], Any]:
        """Return the callable implementing the aggregate."""
        if callable(self.function):
            return self.function
        return aggregate_function(str(self.function))


def _column_keys(relation: Relation, name: str) -> List[int]:
    """One grouping key per row of column *name*: the column's cached
    :attr:`~repro.engine.columnar.ColumnData.group_keys`, so ``value_key``
    runs once per distinct cell and column, however many callers group it."""
    return relation.store.column_data(relation.schema.position(name)).group_keys


def group_keys(relation: Relation, by: Sequence[str]) -> Sequence[Hashable]:
    """One key per row: two rows get equal keys exactly when every cell of
    the columns *by* has the same :func:`~repro.engine.types.value_key`, all
    nulls (``None``, NaN) counting as one value.  The grouping rule of
    :func:`group_indices`, for callers that need only some of the groups;
    the result may be a column's cached codes, so treat it as read-only."""
    if len(by) == 1:
        return _column_keys(relation, by[0])
    if by:
        return list(zip(*(_column_keys(relation, name) for name in by)))
    return [()] * len(relation)


def group_indices(relation: Relation, by: Sequence[str]) -> List[List[int]]:
    """The row indices of each group of *relation* by the columns *by*.

    Groups come in first-seen order, indices ascending within a group; rows
    share a group when their :func:`group_keys` are equal (so ``10`` and
    ``10.0`` do, ``1`` and ``True`` do not).  The keys are cached next to
    the columns' dictionaries, so a second caller on the same relation
    (conflict detection, then fusion) reuses them.  The fusion operator
    groups this way and reads each group's cells from the columns.
    """
    groups: Dict[Hashable, List[int]] = {}
    for index, key in enumerate(group_keys(relation, by)):
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
        else:
            members.append(index)
    return list(groups.values())


def group_rows(relation: Relation, by: Sequence[str]) -> List[Tuple[tuple, List[tuple]]]:
    """The groups of :func:`group_indices` as row tuples.

    Returns a list of ``(key_values, rows)`` pairs in first-seen order, where
    ``key_values`` are the raw cell values of the grouping columns for the
    first row of the group.
    """
    positions = relation.schema.positions(by)
    rows = relation.rows
    grouped: List[Tuple[tuple, List[tuple]]] = []
    for members in group_indices(relation, by):
        first = rows[members[0]]
        grouped.append((tuple([first[p] for p in positions]), [rows[i] for i in members]))
    return grouped


class GroupBy(Operator):
    """SQL GROUP BY: one output row per group, grouping columns plus aggregates."""

    def __init__(
        self,
        child: Operator,
        by: Sequence[str],
        aggregates: Sequence[AggregateSpec] = (),
    ):
        super().__init__(child)
        self.by = list(by)
        self.aggregates = list(aggregates)

    def execute(self) -> Relation:
        source = self.children[0].execute()
        grouped = group_rows(source, self.by)
        agg_positions = [source.schema.position(spec.column) for spec in self.aggregates]
        agg_callables = [spec.resolve() for spec in self.aggregates]
        rows: List[tuple] = []
        for key_values, group in grouped:
            cells = list(key_values)
            for position, function in zip(agg_positions, agg_callables):
                cells.append(function([values[position] for values in group]))
            rows.append(tuple(cells))
        columns = [source.schema.column(name) for name in self.by]
        for index, spec in enumerate(self.aggregates):
            values = (row[len(self.by) + index] for row in rows)
            columns.append(Column(spec.output_name, infer_column_type(values)))
        return Relation(Schema(columns), rows, name=source.name)

    def describe(self) -> str:
        aggs = ", ".join(spec.output_name for spec in self.aggregates)
        return f"GroupBy(by={self.by}, aggregates=[{aggs}])"


class Aggregate(Operator):
    """Aggregation over the whole input (no grouping columns): one output row."""

    def __init__(self, child: Operator, aggregates: Sequence[AggregateSpec]):
        super().__init__(child)
        self.aggregates = list(aggregates)

    def execute(self) -> Relation:
        source = self.children[0].execute()
        cells = []
        for spec in self.aggregates:
            position = source.schema.position(spec.column)
            cells.append(spec.resolve()([values[position] for values in source.rows]))
        columns = [
            Column(spec.output_name, infer_column_type([cell]))
            for spec, cell in zip(self.aggregates, cells)
        ]
        return Relation(Schema(columns), [tuple(cells)], name=source.name)

    def describe(self) -> str:
        return f"Aggregate({', '.join(spec.output_name for spec in self.aggregates)})"
