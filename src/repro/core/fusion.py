"""The data-fusion operator: group by objectID and resolve every column.

This is the final HumMer phase (paper §2.4 / §3): "tuples with same objectID
are fused into a single tuple and conflicts among them are resolved according
to the query specification."

:class:`FusionSpec` captures the query specification (which columns to
output, which resolution function per column, the default Coalesce
behaviour); :class:`FusionOperator` executes it and optionally records
value-level lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.lineage import CellLineage, LineageMap, trace_cell_lineage
from repro.core.resolution.base import (
    ResolutionContext,
    ResolutionFunction,
    ResolutionRegistry,
    default_registry,
)
from repro.dedup.detector import OBJECT_ID_COLUMN
from repro.engine.operators.groupby import group_rows
from repro.engine.relation import Relation, Row
from repro.engine.schema import Column, Schema
from repro.engine.types import infer_column_type, is_null
from repro.exceptions import FusionError
from repro.matching.transform import SOURCE_ID_COLUMN

__all__ = [
    "ResolutionSpec",
    "FusionSpec",
    "FusedGroup",
    "FusionResult",
    "FusionOperator",
    "fuse",
]


#: The lineage sources of a null cell, or of a tuple without a source.
_NO_SOURCES: FrozenSet[str] = frozenset()


def _once(factory):
    """A zero-argument callable that runs *factory* once and caches the result.

    Shared by every column context of one object cluster, so lazily
    materialised group structures are built at most once per group no matter
    how many columns read them.
    """
    cache: List[Any] = []

    def get():
        if not cache:
            cache.append(factory())
        return cache[0]

    return get


@dataclass
class ResolutionSpec:
    """Resolution request for one output column.

    ``function`` may be a registry name (``"max"``), a name plus arguments
    (``("choose", ["cd_planet"])`` for parameterised functions) or a ready
    :class:`ResolutionFunction` instance.  ``None`` means the Fuse By default
    (Coalesce).
    """

    column: str
    function: Union[None, str, Tuple[str, Sequence[Any]], ResolutionFunction] = None
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        return self.alias or self.column

    def instantiate(self, registry: ResolutionRegistry) -> ResolutionFunction:
        """Resolve the function reference against *registry*."""
        if self.function is None:
            return registry.get("coalesce")
        if isinstance(self.function, ResolutionFunction):
            return self.function
        if isinstance(self.function, str):
            return registry.get(self.function)
        name, arguments = self.function
        return registry.get(name, *arguments)


@dataclass
class FusionSpec:
    """The fusion part of a Fuse By query.

    Attributes:
        key_columns: the FUSE BY attributes (object identifier).  In the full
            pipeline this is the ``objectID`` column produced by duplicate
            detection; Fuse By also allows fusing directly on natural keys.
        resolutions: per-column resolution requests (SELECT items).  When
            empty, every column of the input (except bookkeeping columns) is
            output with the default Coalesce, i.e. ``SELECT *``.
        keep_source_column: include ``sourceID`` in the output (as a Group of
            contributing sources).
    """

    key_columns: List[str] = field(default_factory=lambda: [OBJECT_ID_COLUMN])
    resolutions: List[ResolutionSpec] = field(default_factory=list)
    keep_source_column: bool = False

    def output_columns(self, relation: Relation) -> List[ResolutionSpec]:
        """The effective SELECT list against *relation* (expanding the ``*`` default)."""
        if self.resolutions:
            return self.resolutions
        skip = {name.lower() for name in self.key_columns}
        skip.add(OBJECT_ID_COLUMN.lower())
        if not self.keep_source_column:
            skip.add(SOURCE_ID_COLUMN.lower())
        expanded = []
        for column in relation.schema:
            if column.name.lower() in skip:
                continue
            expanded.append(ResolutionSpec(column.name))
        return expanded


@dataclass
class FusedGroup:
    """One object cluster after conflict resolution, as yielded by the stream.

    Attributes:
        object_id: the group's object identifier (scalar for a single key
            column, tuple otherwise).
        row: the fused output tuple (key cells first, resolved cells after).
        resolved_conflicts: columns of this group whose values actually
            conflicted and were resolved.
        lineage: per output column, the value-level lineage record.
    """

    object_id: Any
    row: tuple
    resolved_conflicts: int
    lineage: List[CellLineage] = field(default_factory=list)


@dataclass
class FusionResult:
    """The fused relation plus lineage and statistics."""

    relation: Relation
    lineage: LineageMap
    input_tuple_count: int
    output_tuple_count: int
    resolved_conflict_count: int

    @property
    def compression_ratio(self) -> float:
        """Input tuples per output tuple (≥ 1; higher means more duplicates merged)."""
        if self.output_tuple_count == 0:
            return 1.0
        return self.input_tuple_count / self.output_tuple_count


class FusionOperator:
    """Fuses an objectID-annotated relation according to a :class:`FusionSpec`."""

    def __init__(
        self,
        spec: FusionSpec,
        registry: Optional[ResolutionRegistry] = None,
        table_name: str = "",
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.registry = registry or default_registry()
        self.table_name = table_name
        self.metadata = dict(metadata or {})
        #: Optional intra-fusion progress hook ``(phase, done, total)``;
        #: called with phase ``"groups_resolved"`` after each object cluster
        #: is fused.  The session layer forwards these as
        #: :class:`~repro.core.session.ProgressEvent`\\ s.
        self.progress_callback: Optional[Callable[[str, int, int], None]] = None

    def _plan(self, relation: Relation):
        """Validate the spec against *relation*; resolve columns and functions."""
        for key in self.spec.key_columns:
            if not relation.schema.has_column(key):
                raise FusionError(
                    f"fusion key column {key!r} not present in the input relation; "
                    f"available: {', '.join(relation.schema.names)}"
                )
        output_specs = self.spec.output_columns(relation)
        functions = [spec.instantiate(self.registry) for spec in output_specs]
        input_positions = []
        for spec in output_specs:
            if not relation.schema.has_column(spec.column):
                raise FusionError(
                    f"cannot resolve unknown column {spec.column!r}; "
                    f"available: {', '.join(relation.schema.names)}"
                )
            input_positions.append(relation.schema.position(spec.column))
        return output_specs, functions, input_positions

    def fuse_stream(self, relation: Relation) -> Iterator[FusedGroup]:
        """Stream object clusters through conflict resolution one at a time.

        Validation happens up front (a spec error raises here, not at first
        ``next()``); the returned iterator then yields one
        :class:`FusedGroup` per cluster.  Only the grouping index — lists of
        references to *input* rows — is held; output rows, lineage records
        and the lazy per-group structures exist one group at a time, so a
        consumer that does not retain the yields runs in input-bounded
        memory no matter how large the materialised result would be.
        :meth:`fuse` is exactly this stream, collected.
        """
        output_specs, functions, input_positions = self._plan(relation)
        return self._resolve_groups(relation, output_specs, functions, input_positions)

    def _resolve_groups(
        self,
        relation: Relation,
        output_specs: List[ResolutionSpec],
        functions: List[ResolutionFunction],
        input_positions: List[int],
    ) -> Iterator[FusedGroup]:
        source_position = (
            relation.schema.position(SOURCE_ID_COLUMN)
            if relation.schema.has_column(SOURCE_ID_COLUMN)
            else None
        )
        columns = [
            (spec.output_name, spec.column, function, position, function.keeps_single_value)
            for spec, function, position in zip(output_specs, functions, input_positions)
        ]
        groups = group_rows(relation, self.spec.key_columns)
        for done, (key_values, group) in enumerate(groups, start=1):
            object_id = key_values[0] if len(key_values) == 1 else tuple(key_values)
            cells = list(key_values)
            resolved_conflicts = 0
            lineage: List[CellLineage] = []
            lone = group[0] if len(group) == 1 else None
            if lone is not None:
                source = None if source_position is None else lone[source_position]
                lone_sources = _NO_SOURCES if source is None else frozenset((str(source),))
            wrap_rows = group_sources = None
            for name, column, function, position, keeps_single_value in columns:
                if lone is not None and keeps_single_value:
                    # A function that returns a lone value unchanged needs no
                    # context: copy the cell.  One value cannot conflict, and
                    # its lineage is its source (none for a null).
                    value = lone[position]
                    null = is_null(value)
                    cells.append(None if null else value)
                    lineage.append(
                        CellLineage(name, object_id, _NO_SOURCES if null else lone_sources, False)
                    )
                    continue
                if wrap_rows is None:
                    # Row wrappers and per-source strings are built at most
                    # once per group, and only if something actually reads
                    # them: resolution functions receive them as lazy context
                    # fields, so a Coalesce-only fusion never allocates a
                    # single Row, and a group whose every cell is copied
                    # builds neither factory.
                    wrap_rows = _once(
                        lambda group=group: [Row(relation.schema, values) for values in group]
                    )
                    group_sources = _once(
                        lambda group=group: [
                            None
                            if source_position is None or values[source_position] is None
                            else str(values[source_position])
                            for values in group
                        ]
                    )
                values = [group_values[position] for group_values in group]
                context = ResolutionContext(
                    column=column,
                    values=values,
                    rows=wrap_rows,
                    sources=group_sources,
                    object_id=object_id,
                    table_name=self.table_name,
                    metadata=self.metadata,
                )
                resolved = function.resolve(context)
                if context.has_conflict:
                    resolved_conflicts += 1
                cells.append(resolved)
                lineage.append(
                    trace_cell_lineage(name, object_id, resolved, values, context.sources)
                )
            yield FusedGroup(
                object_id=object_id,
                row=tuple(cells),
                resolved_conflicts=resolved_conflicts,
                lineage=lineage,
            )
            if self.progress_callback is not None:
                self.progress_callback("groups_resolved", done, len(groups))

    def fuse(self, relation: Relation) -> FusionResult:
        """Produce one clean tuple per object cluster.

        Consumes :meth:`fuse_stream` — the streamed and the collected
        spelling resolve groups through the same code path and produce
        bit-identical rows, lineage and counters.
        """
        output_specs, functions, input_positions = self._plan(relation)
        records: List[CellLineage] = []
        rows: List[tuple] = []
        resolved_conflicts = 0
        for fused_group in self._resolve_groups(
            relation, output_specs, functions, input_positions
        ):
            rows.append(fused_group.row)
            resolved_conflicts += fused_group.resolved_conflicts
            records.extend(fused_group.lineage)

        key_schema_columns = [relation.schema.column(name) for name in self.spec.key_columns]
        value_columns = []
        for index, spec in enumerate(output_specs):
            values = (row[len(self.spec.key_columns) + index] for row in rows)
            value_columns.append(Column(spec.output_name, infer_column_type(values)))
        schema = Schema(key_schema_columns + value_columns)
        fused = Relation(schema, rows, name=self.table_name or "fused")
        return FusionResult(
            relation=fused,
            lineage=LineageMap(records),
            input_tuple_count=len(relation),
            output_tuple_count=len(fused),
            resolved_conflict_count=resolved_conflicts,
        )


def fuse(
    relation: Relation,
    key_columns: Sequence[str],
    resolutions: Optional[Dict[str, Union[str, Tuple[str, Sequence[Any]], ResolutionFunction]]] = None,
    registry: Optional[ResolutionRegistry] = None,
    keep_source_column: bool = False,
) -> FusionResult:
    """Convenience wrapper: fuse *relation* grouping by *key_columns*.

    ``resolutions`` maps column names to function references; unmentioned
    columns use the Coalesce default only when the mapping is empty —
    otherwise the output contains exactly the mapped columns plus the keys.
    To get "all columns, defaults except a few", pass every column explicitly
    or use :class:`FusionSpec` directly.
    """
    specs = [
        ResolutionSpec(column, function) for column, function in (resolutions or {}).items()
    ]
    spec = FusionSpec(
        key_columns=list(key_columns),
        resolutions=specs,
        keep_source_column=keep_source_column,
    )
    return FusionOperator(spec, registry=registry, table_name=relation.name).fuse(relation)
