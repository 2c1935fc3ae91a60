"""Value-level lineage (provenance) of the fused result.

"As an added feature, data values can be color-coded to represent their
individual lineage (one color per source relation, mixed colors for merged
values)." (paper §3)

Instead of colours, the library records, for every cell of the fused result,
the set of sources that contributed the resolved value.  A cell whose value
was taken verbatim from one source has single-source lineage; a cell whose
value was computed from several sources (vote, avg, concat, ...) has merged
lineage.  The CLI and examples render this as ANSI colours.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.engine.types import is_null, value_key, values_equal

__all__ = ["CellLineage", "LineageMap", "trace_cell_lineage"]


class CellLineage(NamedTuple):
    """Provenance of one cell of the fused result."""

    column: str
    object_id: Any
    sources: FrozenSet[str]
    merged: bool

    @property
    def single_source(self) -> Optional[str]:
        """The lone contributing source, when there is exactly one."""
        if len(self.sources) == 1:
            return next(iter(self.sources))
        return None


def _cell_identity(cell: Any) -> tuple:
    return ("null",) if is_null(cell) else value_key(cell)


def _object_identity(object_id: Any) -> tuple:
    """The identity fusion groups *object_id* under when the key width is
    unknown: ``value_key`` per key cell, every null as one key, and a tuple
    object id read as a multi-column key, cell by cell."""
    if isinstance(object_id, tuple):
        return tuple(map(_cell_identity, object_id))
    return _cell_identity(object_id)


class LineageMap:
    """Lineage for every (object, column) cell of a fused result.

    A cell is addressed by its object's grouping identity (``value_key``,
    nulls as one key), so ``True``, ``1`` and ``Decimal("1")`` — three
    objects to fusion — keep three records, while ``1`` and ``1.0`` name the
    same object.  With *key_width* 1 (a map built by fusion on one key
    column) an object id is one cell even when it is a tuple, exactly as
    grouping keys it; otherwise a tuple object id is a multi-column key,
    identified cell by cell.

    Records are appended as they come, or (:meth:`deferred`) produced by a
    callable on first read; the lookup index is built on first read, so a
    fusion whose lineage nobody reads builds neither records nor index.  A
    later record for the same cell replaces the earlier one, and iteration
    follows the cells' first insertion.
    """

    def __init__(
        self, records: Iterable[CellLineage] = (), key_width: Optional[int] = None
    ) -> None:
        self._identity = _cell_identity if key_width == 1 else _object_identity
        self._build: Optional[Callable[[], Iterable[CellLineage]]] = None
        self._pending: List[CellLineage] = list(records)
        self._cells: Dict[Tuple[Any, str], CellLineage] = {}

    @classmethod
    def deferred(
        cls, build: Callable[[], Iterable[CellLineage]], key_width: Optional[int] = None
    ) -> "LineageMap":
        """A map whose first records are produced by *build*, on first read."""
        lineage = cls(key_width=key_width)
        lineage._build = build
        return lineage

    def record(self, lineage: CellLineage) -> None:
        """Store lineage for one cell."""
        self._pending.append(lineage)

    def _index(self) -> Dict[Tuple[Any, str], CellLineage]:
        build, pending = self._build, self._pending
        if build is None and not pending:
            return self._cells
        # built locally and published in one assignment: a concurrent first
        # read builds its own copy or sees the finished map, never a partial one
        cells = dict(self._cells)
        identity = self._identity
        for records in (() if build is None else build(), pending):
            for record in records:
                cells[(identity(record.object_id), record.column.lower())] = record
        self._cells = cells
        self._build = None
        self._pending = []
        return cells

    def lookup(self, object_id: Any, column: str) -> Optional[CellLineage]:
        """Lineage of the cell for *object_id* / *column*, if recorded."""
        return self._index().get((self._identity(object_id), column.lower()))

    def sources_used(self) -> List[str]:
        """Every source that contributed at least one cell, sorted."""
        sources = set()
        for lineage in self._index().values():
            sources.update(lineage.sources)
        return sorted(sources)

    def merged_cells(self) -> List[CellLineage]:
        """Cells whose value combines several sources."""
        return [lineage for lineage in self._index().values() if lineage.merged]

    def __len__(self) -> int:
        return len(self._index())

    def __iter__(self):
        return iter(self._index().values())


def trace_cell_lineage(
    column: str,
    object_id: Any,
    resolved_value: Any,
    values: Sequence[Any],
    sources: Sequence[Optional[str]],
) -> CellLineage:
    """Derive the lineage of one resolved cell.

    Sources whose value equals the resolved value are the contributors; if no
    source value equals it (the function computed something new, e.g. an
    average or a concatenation), every source that supplied *any* value is a
    contributor and the cell is marked merged.
    """
    exact: set = set()
    contributing: set = set()
    for value, source in zip(values, sources):
        if is_null(value) or source is None:
            continue
        contributing.add(str(source))
        if values_equal(value, resolved_value) or (
            not is_null(resolved_value) and str(value) == str(resolved_value)
        ):
            exact.add(str(source))
    if is_null(resolved_value):
        return CellLineage(column=column, object_id=object_id, sources=frozenset(), merged=False)
    if exact:
        return CellLineage(
            column=column, object_id=object_id, sources=frozenset(exact), merged=len(exact) > 1
        )
    return CellLineage(
        column=column,
        object_id=object_id,
        sources=frozenset(contributing),
        merged=len(contributing) > 1,
    )
