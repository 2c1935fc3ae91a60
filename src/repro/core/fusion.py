"""The data-fusion operator: group by objectID and resolve every column.

This is the final HumMer phase (paper §2.4 / §3): "tuples with same objectID
are fused into a single tuple and conflicts among them are resolved according
to the query specification."

:class:`FusionSpec` captures the query specification (which columns to
output, which resolution function per column, the default Coalesce
behaviour); :class:`FusionOperator` executes it and keeps value-level
lineage, whose records are built when first read.
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
from repro.engine.columnar import ColumnStore
from repro.engine.operators.groupby import group_indices
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
        members: the group's input row indices, ascending.
    """

    object_id: Any
    row: tuple
    resolved_conflicts: int
    members: List[int]
    _lineage: "_GroupLineage" = field(repr=False)

    @property
    def lineage(self) -> List[CellLineage]:
        """Per output column, the value-level lineage record (built on access)."""
        return self._lineage.records(self.object_id, self.row, self.members)


@dataclass
class FusionResult:
    """The fused relation plus lineage and statistics.

    ``lineage`` builds its records on first read, from each fused row's
    member row indices and the input relation's columns, which it keeps
    referenced until then.
    """

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
        :class:`FusedGroup` per cluster.  Only the grouping index — the row
        indices of each group — is held; output rows and the lazy per-group
        structures exist one group at a time, and a group's lineage records
        are built when its :attr:`FusedGroup.lineage` is read, so a consumer
        that does not retain the yields runs in input-bounded memory no
        matter how large the materialised result would be.  :meth:`fuse` is
        exactly this stream, collected.
        """
        plan = self._plan(relation)
        groups = group_indices(relation, self.spec.key_columns)
        lineage = _GroupLineage(relation, *plan)
        return (
            FusedGroup(object_id, row, resolved_conflicts, members, lineage)
            for object_id, row, resolved_conflicts, members in self._resolve_groups(
                relation, groups, *plan
            )
        )

    def _resolve_groups(
        self,
        relation: Relation,
        groups: List[List[int]],
        output_specs: List[ResolutionSpec],
        functions: List[ResolutionFunction],
        input_positions: List[int],
    ) -> Iterator[Tuple[Any, tuple, int, List[int]]]:
        """Resolve each group of row indices, in order; yields ``(object_id,
        row, resolved_conflicts, members)``.  Cells are read from the input
        columns by row index."""
        schema = relation.schema
        store = relation.store
        key_columns = relation.columns(self.spec.key_columns)
        source_values = _source_values(relation)
        # A function that returns a lone value unchanged needs no context for
        # a one-tuple group: its cell is copied (None for a null, per the null
        # mask, which only those columns need).
        columns = [
            (
                spec.column,
                function,
                store.column(position),
                store.null_mask(position) if function.keeps_single_value else None,
            )
            for spec, function, position in zip(output_specs, functions, input_positions)
        ]
        single_key = len(key_columns) == 1
        total = len(groups)
        for done, members in enumerate(groups, start=1):
            first = members[0]
            cells = [column[first] for column in key_columns]
            object_id = cells[0] if single_key else tuple(cells)
            resolved_conflicts = 0
            lone = len(members) == 1
            wrap_rows = group_sources = None
            for column, function, values, mask in columns:
                if lone and mask is not None:
                    cells.append(None if mask[first] else values[first])
                    continue
                if wrap_rows is None:
                    # Row wrappers and per-source strings are built at most
                    # once per group, and only if something actually reads
                    # them: resolution functions receive them as lazy context
                    # fields, so a Coalesce-only fusion never allocates a
                    # single Row, and a group whose every cell is copied
                    # builds neither factory.
                    wrap_rows = _once(
                        lambda members=members: [
                            Row(schema, relation.row_values(index)) for index in members
                        ]
                    )
                    group_sources = _once(
                        lambda members=members: _group_sources(source_values, members)
                    )
                context = ResolutionContext(
                    column=column,
                    values=[values[index] for index in members],
                    rows=wrap_rows,
                    sources=group_sources,
                    object_id=object_id,
                    table_name=self.table_name,
                    metadata=self.metadata,
                )
                cells.append(function.resolve(context))
                if context.has_conflict:
                    resolved_conflicts += 1
            yield object_id, tuple(cells), resolved_conflicts, members
            if self.progress_callback is not None:
                self.progress_callback("groups_resolved", done, total)

    def fuse(self, relation: Relation) -> FusionResult:
        """Produce one clean tuple per object cluster.

        Consumes the resolution loop of :meth:`fuse_stream` — the streamed
        and the collected spelling produce bit-identical rows, lineage and
        counters.  The lineage map keeps each row's member indices and
        builds its records on first read.
        """
        plan = output_specs, _, _ = self._plan(relation)
        groups = group_indices(relation, self.spec.key_columns)
        rows: List[tuple] = []
        resolved_conflicts = 0
        for _, row, conflicts, _ in self._resolve_groups(relation, groups, *plan):
            rows.append(row)
            resolved_conflicts += conflicts

        key_width = len(self.spec.key_columns)
        # one transpose into the column lists the fused relation adopts
        columns = [list(column) for column in zip(*rows)] or [
            [] for _ in range(key_width + len(output_specs))
        ]
        key_schema_columns = [relation.schema.column(name) for name in self.spec.key_columns]
        value_columns = [
            Column(spec.output_name, infer_column_type(values))
            for spec, values in zip(output_specs, columns[key_width:])
        ]
        schema = Schema(key_schema_columns + value_columns)
        fused = Relation._from_store(
            schema, ColumnStore.from_lists(columns), self.table_name or "fused"
        )
        group_lineage = _GroupLineage(relation, *plan)

        def lineage_records() -> Iterator[CellLineage]:
            for row, members in zip(fused.rows, groups):
                object_id = row[0] if key_width == 1 else row[:key_width]
                yield from group_lineage.records(object_id, row, members)

        return FusionResult(
            relation=fused,
            lineage=LineageMap.deferred(lineage_records, key_width=key_width),
            input_tuple_count=len(relation),
            output_tuple_count=len(fused),
            resolved_conflict_count=resolved_conflicts,
        )


def _source_values(relation: Relation) -> Optional[List[Any]]:
    """The ``sourceID`` column's values, or ``None`` without one."""
    if not relation.schema.has_column(SOURCE_ID_COLUMN):
        return None
    return relation.column(SOURCE_ID_COLUMN)


def _group_sources(
    source_values: Optional[List[Any]], members: Sequence[int]
) -> List[Optional[str]]:
    """Each member row's ``sourceID`` as a string (``None`` when absent)."""
    if source_values is None:
        return [None] * len(members)
    return [
        None if source_values[index] is None else str(source_values[index]) for index in members
    ]


class _GroupLineage:
    """The lineage records of fused groups, traced from their member rows.

    One record per output column, as resolution left the cell: a copied cell
    (a one-tuple group under a function that keeps single values) has its
    row's source, none for a null; a resolved cell is traced with
    :func:`~repro.core.lineage.trace_cell_lineage` over the group's values
    and sources.  Cells are read from the input relation's columns when the
    records are built, which relies on relations being logically immutable.
    """

    def __init__(
        self,
        relation: Relation,
        output_specs: List[ResolutionSpec],
        functions: List[ResolutionFunction],
        input_positions: List[int],
    ):
        store = relation.store
        self._sources = _source_values(relation)
        self._columns = [
            (spec.output_name, store.column(position), function.keeps_single_value)
            for spec, function, position in zip(output_specs, functions, input_positions)
        ]

    def records(self, object_id: Any, row: tuple, members: Sequence[int]) -> List[CellLineage]:
        """The group's records, in output column order."""
        first = members[0]
        lone = len(members) == 1
        if lone:
            source = None if self._sources is None else self._sources[first]
            lone_sources = _NO_SOURCES if source is None else frozenset((str(source),))
        sources = None
        records: List[CellLineage] = []
        resolved_cells = row[len(row) - len(self._columns):]  # after the key cells
        for (name, values, keeps_single_value), resolved in zip(self._columns, resolved_cells):
            if lone and keeps_single_value:
                null = is_null(values[first])
                records.append(
                    CellLineage(name, object_id, _NO_SOURCES if null else lone_sources, False)
                )
                continue
            if sources is None:
                sources = _group_sources(self._sources, members)
            records.append(
                trace_cell_lineage(
                    name, object_id, resolved, [values[index] for index in members], sources
                )
            )
        return records


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
