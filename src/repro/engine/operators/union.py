"""Union and full outer union operators.

The **full outer union** is the operator FUSE FROM is defined by in the
paper: the schemata of the inputs are merged (matching columns by name after
schema matching has renamed them), and every input tuple is padded with nulls
for the columns it does not provide.
"""

from __future__ import annotations

from typing import List

from repro.engine.columnar import ColumnStore, stack
from repro.engine.operators.base import Operator
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.exceptions import SchemaError

__all__ = ["Union", "OuterUnion"]


class Union(Operator):
    """UNION ALL of children with identical (name-compatible) schemata."""

    def __init__(self, *children: Operator):
        if len(children) < 1:
            raise SchemaError("Union needs at least one input")
        super().__init__(*children)

    def execute(self) -> Relation:
        relations = [child.execute() for child in self.children]
        first = relations[0]
        rows: List[tuple] = list(first.rows)
        for relation in relations[1:]:
            if len(relation.schema) != len(first.schema):
                raise SchemaError(
                    "UNION inputs must have the same number of columns: "
                    f"{len(first.schema)} vs {len(relation.schema)}"
                )
            positions = [
                relation.schema.position(column.name)
                if relation.schema.has_column(column.name)
                else index
                for index, column in enumerate(first.schema)
            ]
            for values in relation.rows:
                rows.append(tuple(values[p] for p in positions))
        return Relation(first.schema, rows, name="union")

    def describe(self) -> str:
        return f"Union({len(self.children)} inputs)"


class OuterUnion(Operator):
    """Full outer union: merge schemata by column name, pad missing cells with null."""

    def __init__(self, *children: Operator):
        if len(children) < 1:
            raise SchemaError("OuterUnion needs at least one input")
        super().__init__(*children)

    def execute(self) -> Relation:
        relations = [child.execute() for child in self.children]
        return outer_union(relations)

    def describe(self) -> str:
        return f"OuterUnion({len(self.children)} inputs)"


def outer_union(relations: List[Relation], name: str = "fused_input") -> Relation:
    """Full outer union of already-materialised relations.

    Built one column at a time with :func:`~repro.engine.columnar.stack`:
    each column of the merged schema joins the inputs' values and null
    masks, a run of nulls where an input lacks it, and merges the inputs'
    dictionaries, so the dictionary's readers find it built.  Exposed as a
    plain function because the data-transformation step of the pipeline
    calls it directly, outside any query plan.
    """
    if not relations:
        raise SchemaError("outer union of zero relations is undefined")
    merged_schema = Schema.union_all([relation.schema for relation in relations])
    columns = []
    for column in merged_schema:
        parts = []
        for relation in relations:
            schema = relation.schema
            data = (
                relation.store.column_data(schema.position(column.name))
                if schema.has_column(column.name)
                else None
            )
            parts.append((data, len(relation)))
        columns.append(stack(parts))
    row_count = sum(len(relation) for relation in relations)
    return Relation._from_store(merged_schema, ColumnStore(columns, row_count), name)
