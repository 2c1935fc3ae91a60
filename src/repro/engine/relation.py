"""In-memory relation (table) abstraction.

:class:`Relation` is the unit of data exchanged between every HumMer
component: the catalog produces relations from registered sources, the
schema-matching step renames their columns and outer-unions them, duplicate
detection appends an ``objectID`` column and conflict resolution collapses
each object cluster to one row.

The design follows the paper's XXL substrate: a relation is a schema plus a
set of tuples.  Storage is **column-major** (:mod:`repro.engine.columnar`):
one values list per attribute with a cached null mask, so the set-oriented
hot paths — blocking-key extraction, TF-IDF fits, batched pair scoring —
fetch whole columns zero-copy instead of paying per-row Python dispatch.
:class:`Row` is a lazy *view* over that storage, materialised only at the
API edge (query operators, CSV/JSON IO, service payloads).  Relations are
*logically* immutable — all mutating helpers return new relations, sharing
column storage wherever the derivation allows — which makes the pipeline
steps and the query operators freely composable.
"""

from __future__ import annotations

import datetime as _dt
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.columnar import ColumnData, ColumnStore, Dictionary
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType, coerce, infer_column_type, is_null
from repro.exceptions import SchemaError

__all__ = ["Row", "Relation"]


class Row(Mapping[str, Any]):
    """A single tuple of a relation, addressable by position or column name.

    A row is either *materialised* (constructed from a values sequence) or a
    *lazy view* over a relation's column store, created by iteration and
    indexing on :class:`Relation`.  A view reads cells straight out of the
    columns and only builds its values tuple when something asks for it
    (:attr:`values`, hashing, ``replace``), which keeps row objects free on
    the paths that touch one or two cells.
    """

    __slots__ = ("_schema", "_values", "_store", "_index")

    def __init__(self, schema: Schema, values: Sequence[Any]):
        if len(values) != len(schema):
            raise SchemaError(
                f"row has {len(values)} values but schema has {len(schema)} columns"
            )
        self._schema = schema
        self._values = tuple(values)
        self._store = None
        self._index = -1

    @classmethod
    def view(cls, schema: Schema, store: ColumnStore, index: int) -> "Row":
        """A lazy row view over *store* — no cell is read until accessed."""
        row = object.__new__(cls)
        row._schema = schema
        row._values = None
        row._store = store
        row._index = index
        return row

    # Mapping protocol -------------------------------------------------------

    def __getitem__(self, key: Union[str, int]) -> Any:
        position = key if isinstance(key, int) else self._schema.position(key)
        if self._values is not None:
            return self._values[position]
        return self._store.columns[position].values[self._index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self._schema)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.values == other.values and self._schema == other._schema
        if isinstance(other, Mapping):
            # A row *is* a name→value mapping; compare as one so plain dicts
            # (and other Mapping implementations) with the same pairs are
            # equal from both sides — dict.__eq__ returns NotImplemented for
            # Row operands, so Python falls back to this reflected call.
            return dict(self) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        cells = ", ".join(f"{name}={value!r}" for name, value in self.items())
        return f"Row({cells})"

    # Convenience -------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Schema this row conforms to."""
        return self._schema

    @property
    def values(self) -> Tuple[Any, ...]:
        """Cell values in schema order (materialised on first access)."""
        if self._values is None:
            self._values = self._store.row(self._index)
        return self._values

    def get(self, key: str, default: Any = None) -> Any:
        if isinstance(key, str) and not self._schema.has_column(key):
            return default
        return self[key]

    def to_dict(self) -> Dict[str, Any]:
        """Plain ``dict`` of column name → value."""
        return dict(zip(self._schema.names, self.values))

    def replace(self, **updates: Any) -> "Row":
        """Return a copy of the row with some cells replaced (by column name)."""
        values = list(self.values)
        for name, value in updates.items():
            values[self._schema.position(name)] = value
        return Row(self._schema, values)


class Relation:
    """An in-memory table: a :class:`Schema` plus column-major tuple storage.

    Relations are logically immutable; helpers such as :meth:`rename` or
    :meth:`with_column` return new relations sharing column storage where
    possible.
    """

    def __init__(
        self,
        schema: Union[Schema, Sequence[Union[Column, str, Tuple[str, DataType]]]],
        rows: Iterable[Sequence[Any]] = (),
        name: str = "",
        coerce_types: bool = False,
    ):
        self._schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._name = name
        store = ColumnStore.from_rows(
            len(self._schema),
            (row.values if isinstance(row, Row) else row for row in rows),
        )
        if coerce_types:
            store = ColumnStore(
                [
                    ColumnData([coerce(value, column.dtype) for value in data.values])
                    for data, column in zip(store.columns, self._schema.columns)
                ],
                store.row_count,
            )
        self._store = store
        self._digest: Optional[str] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _from_store(cls, schema: Schema, store: ColumnStore, name: str) -> "Relation":
        """Internal: wrap an existing store (shared, not copied)."""
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._name = name
        relation._store = store
        relation._digest = None
        return relation

    @classmethod
    def from_dicts(
        cls,
        records: Iterable[Mapping[str, Any]],
        schema: Optional[Schema] = None,
        name: str = "",
        infer_types: bool = True,
    ) -> "Relation":
        """Build a relation from dictionaries.

        When *schema* is omitted, the column order is first-seen key order and
        types are inferred from the data (unless *infer_types* is false).
        Missing keys become nulls.
        """
        materialized = list(records)
        if schema is None:
            names: List[str] = []
            seen = set()
            for record in materialized:
                for key in record:
                    if key.lower() not in seen:
                        seen.add(key.lower())
                        names.append(key)
            columns_by_name = {name_: [] for name_ in names}
            for record in materialized:
                lowered = {key.lower(): value for key, value in record.items()}
                for name_ in names:
                    columns_by_name[name_].append(lowered.get(name_.lower()))
            if infer_types:
                schema = Schema(
                    [Column(name_, infer_column_type(columns_by_name[name_])) for name_ in names]
                )
            else:
                schema = Schema(names)
            store = ColumnStore.from_lists([columns_by_name[name_] for name_ in names])
            return cls._from_store(schema, store, name)
        columns: List[List[Any]] = [[] for _ in schema]
        lowered_names = [column.name.lower() for column in schema]
        for record in materialized:
            lowered = {key.lower(): value for key, value in record.items()}
            for position, key in enumerate(lowered_names):
                columns[position].append(lowered.get(key))
        return cls._from_store(schema, ColumnStore.from_lists(columns), name)

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence[Any]], name: str = "", infer_types: bool = True
    ) -> "Relation":
        """Build a relation from a mapping of column name → list of values."""
        names = list(columns)
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        if infer_types:
            schema = Schema([Column(n, infer_column_type(columns[n])) for n in names])
        else:
            schema = Schema(names)
        store = ColumnStore.from_lists([list(columns[n]) for n in names])
        return cls._from_store(schema, store, name)

    @classmethod
    def empty(cls, schema: Schema, name: str = "") -> "Relation":
        """An empty relation with the given schema."""
        return cls(schema, [], name=name)

    # -- basic protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return self._store.row_count

    def __iter__(self) -> Iterator[Row]:
        schema, store = self._schema, self._store
        for index in range(store.row_count):
            yield Row.view(schema, store, index)

    def __getitem__(self, index: Union[int, slice]) -> Union[Row, "Relation"]:
        if isinstance(index, slice):
            return Relation._from_store(self._schema, self._store.slice(index), self._name)
        if index < 0:
            index += self._store.row_count
        if not 0 <= index < self._store.row_count:
            raise IndexError(f"row index {index} out of range")
        return Row.view(self._schema, self._store, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._store.row_count == other._store.row_count
            and all(
                left.values == right.values
                for left, right in zip(self._store.columns, other._store.columns)
            )
        )

    def __repr__(self) -> str:
        label = self._name or "relation"
        return f"<Relation {label}: {len(self._schema)} columns x {len(self)} rows>"

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def name(self) -> str:
        """Relation name (source alias or derived label)."""
        return self._name

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Column names in order."""
        return self._schema.names

    @property
    def store(self) -> ColumnStore:
        """The backing :class:`ColumnStore` (read-only by convention)."""
        return self._store

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows as tuples — a fresh list, transposed from the columns.

        This is the API-edge materialisation (O(cells) per call); columnar
        consumers should prefer :meth:`column` / :meth:`columns` /
        :meth:`row_values`, which don't transpose the whole relation.
        """
        return self._store.row_tuples()

    def row(self, index: int) -> Row:
        """The *index*-th row (a lazy view)."""
        return Row.view(self._schema, self._store, index)

    def row_values(self, index: int) -> Tuple[Any, ...]:
        """The *index*-th row as a plain tuple (no :class:`Row` allocation)."""
        return self._store.row(index)

    def column(self, name: str) -> List[Any]:
        """All values of column *name*, in row order — zero-copy.

        The returned list is the relation's internal column storage (shared
        with derived relations); treat it as read-only.
        """
        return self._store.column(self._schema.position(name))

    def columns(self, names: Sequence[str]) -> List[List[Any]]:
        """The value lists of several columns, in the given order — zero-copy."""
        return [self._store.column(self._schema.position(name)) for name in names]

    def column_at(self, position: int) -> List[Any]:
        """The values of the column at *position* — zero-copy."""
        return self._store.column(position)

    def null_mask(self, name: str) -> bytes:
        """Null flags (1 = null) for column *name*, built once and cached."""
        return self._store.null_mask(self._schema.position(name))

    def dictionary(self, name: str) -> Dictionary:
        """Column *name*'s cached ``(values, counts, codes)``; see
        :attr:`ColumnData.dictionary <repro.engine.columnar.ColumnData.dictionary>`."""
        return self._store.column_data(self._schema.position(name)).dictionary

    def cell(self, row_index: int, column: str) -> Any:
        """Single cell value."""
        return self._store.cell(row_index, self._schema.position(column))

    def is_empty(self) -> bool:
        """Whether the relation has no rows."""
        return self._store.row_count == 0

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All rows as plain dictionaries."""
        names = self._schema.names
        return [dict(zip(names, values)) for values in self._store.iter_rows()]

    # -- transformation helpers --------------------------------------------------

    def renamed(self, name: str) -> "Relation":
        """Same data under a different relation name."""
        return Relation._from_store(self._schema, self._store, name)

    def rename_columns(self, mapping: Dict[str, str]) -> "Relation":
        """Rename columns (old → new); data is shared, not copied."""
        return Relation._from_store(self._schema.rename(mapping), self._store, self._name)

    def with_column(
        self,
        column: Union[Column, str],
        values: Union[Sequence[Any], Callable[[Row], Any], Any] = None,
        position: Optional[int] = None,
    ) -> "Relation":
        """Return a relation with one extra column.

        *values* may be a sequence (one value per row), a callable applied to
        each :class:`Row`, or a single constant (whose column comes with its
        null mask and dictionary).  Existing columns are shared with this
        relation, not copied.
        """
        new_column = column if isinstance(column, Column) else Column(column)
        count = self._store.row_count
        if callable(values):
            data = ColumnData([values(row) for row in self])
        elif isinstance(values, (list, tuple)):
            if len(values) != count:
                raise SchemaError(
                    f"expected {count} values for new column, got {len(values)}"
                )
            data = ColumnData(list(values))
        else:
            data = ColumnData.constant(values, count)
        schema = self._schema.add(new_column, position)
        insert_at = len(self._schema) if position is None else position
        store = self._store.insert_column(insert_at, data)
        return Relation._from_store(schema, store, self._name)

    def without_columns(self, names: Sequence[str]) -> "Relation":
        """Return a relation with the given columns removed."""
        keep = [c.name for c in self._schema if c.name.lower() not in {n.lower() for n in names}]
        return self.project(keep)

    def project(self, names: Sequence[str]) -> "Relation":
        """Return a relation restricted to the given columns, in order.

        Zero-copy: the projected relation shares the selected columns'
        storage with this one.
        """
        positions = self._schema.positions(names)
        schema = self._schema.project(names)
        return Relation._from_store(schema, self._store.select(positions), self._name)

    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Return a relation keeping only rows where *predicate* is true."""
        indices = [index for index, row in enumerate(self) if predicate(row)]
        return Relation._from_store(self._schema, self._store.take(indices), self._name)

    def map_column(self, name: str, transform: Callable[[Any], Any]) -> "Relation":
        """Return a relation with *transform* applied to every cell of a column."""
        position = self._schema.position(name)
        mapped = ColumnData([transform(value) for value in self._store.column(position)])
        return Relation._from_store(
            self._schema, self._store.replace_column(position, mapped), self._name
        )

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Return a relation with extra rows appended."""
        return Relation._from_store(
            self._schema, self._store.extended(rows), self._name
        )

    def sorted_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        """Rows sorted by the given columns (nulls first)."""
        from repro.engine.types import compare_values
        import functools

        positions = self._schema.positions(names)
        columns = [self._store.column(p) for p in positions]

        def compare(left: int, right: int) -> int:
            for column in columns:
                outcome = compare_values(column[left], column[right])
                if outcome:
                    return outcome
            return 0

        order = sorted(
            range(self._store.row_count),
            key=functools.cmp_to_key(compare),
            reverse=descending,
        )
        return Relation._from_store(self._schema, self._store.take(order), self._name)

    def head(self, count: int) -> "Relation":
        """First *count* rows."""
        return Relation._from_store(
            self._schema, self._store.slice(slice(None, count)), self._name
        )

    def copy(self) -> "Relation":
        """Independent copy (column lists duplicated; cells are shared refs)."""
        return Relation._from_store(self._schema, self._store.copied(), self._name)

    def retyped(self) -> "Relation":
        """Return a relation whose column types are re-inferred from the data."""
        columns = []
        for index, column in enumerate(self._schema.columns):
            values = self._store.column(index)
            columns.append(column.with_type(infer_column_type(values)))
        return Relation._from_store(Schema(columns), self._store, self._name)

    def content_key(self) -> Tuple[Any, ...]:
        """Hashable, equality-comparable key over column names and row values.

        Relations are *logically* immutable, so components may cache derived
        structures (e.g. blocking indexes) per relation.  Keying such caches
        on ``id(relation)`` breaks in two ways: a recycled object id can serve
        a stale entry, and an equal-content clone misses the cache.  This key
        captures what the relation *contains* instead — and because it is the
        content itself (not just a hash of it), dict lookups verify equality,
        so a hash collision can never serve another relation's cache entry.
        It is rebuilt on every call (O(cells)) precisely so callers that
        mutate column storage in place — against the immutability convention —
        still get fresh cache entries rather than stale ones.  Cells are keyed
        as ``(type, value)`` because Python's cross-type equality (``True == 1
        == 1.0``) would otherwise conflate relations whose *textual* cell
        forms — what tokenisation and the similarity measures see — differ.
        Unhashable cell values fall back to the columns' ``repr``.
        """
        key = (
            self._schema.names,
            tuple(
                tuple((type(value), value) for value in row)
                for row in self._store.iter_rows()
            ),
        )
        try:
            hash(key)
        except TypeError:
            return (self._schema.names, repr([c.values for c in self._store.columns]))
        return key

    def content_hash(self) -> int:
        """Order-sensitive hash of :meth:`content_key`."""
        return hash(self.content_key())

    def content_digest(self) -> str:
        """Stable hex digest of the relation's content (computed once, cached).

        Unlike :meth:`content_hash` (Python's salted ``hash``, which differs
        between processes), this digest is reproducible across runs, so it can
        key *persisted* derived structures — the prepared-source artifacts a
        catalog stores on disk and validates against the current data on every
        query.  The digest is folded **column-wise** over the columnar storage
        (one hash update per column rather than per row) and cached on the
        instance: relations are logically immutable, and every
        ``ArtifactStore`` lookup used to re-hash the full content from
        scratch.  Cells are folded as ``(type name, repr)``, matching the
        cross-type separation of :meth:`content_key`; each column's bytes
        are ``repr`` of the tuple of those pairs, built by
        :func:`_column_text` from one text per dictionary code.
        """
        if self._digest is None:
            import hashlib

            hasher = hashlib.sha256()
            hasher.update(repr(self._schema.names).encode("utf-8"))
            hasher.update(
                f"columnar:{self._store.row_count}x{self._store.width}".encode("utf-8")
            )
            for column in self._store.columns:
                hasher.update(_column_text(column).encode("utf-8"))
            self._digest = hasher.hexdigest()
        return self._digest

    # -- statistics ---------------------------------------------------------------

    def null_count(self, name: str) -> int:
        """Number of null cells in a column (from the cached null mask)."""
        return self._store.column_data(self._schema.position(name)).null_count

    def distinct_values(self, name: str) -> List[Any]:
        """Distinct non-null values of a column (insertion order)."""
        return list(self.dictionary(name)[0])

    # -- display -------------------------------------------------------------------

    def to_text(self, limit: int = 20) -> str:
        """ASCII rendering for examples and the CLI."""
        names = list(self._schema.names)
        shown = self._store.row_tuples()[:limit]
        widths = [len(n) for n in names]
        rendered = []
        for values in shown:
            cells = ["" if is_null(v) else str(v) for v in values]
            rendered.append(cells)
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        lines = []
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for cells in rendered:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)


#: Classes whose ``repr`` follows from their class and ``str``: the cells a
#: dictionary code stands for (same class, same ``str``) share one ``repr``.
#: Not ``datetime``: two aware datetimes with equal ``str`` can differ in
#: ``tzinfo``, and naive ones in ``fold``, which only ``repr`` shows.
_FOLDED_PER_CODE = frozenset({str, int, float, bool, _dt.date})


def _cell_text(value: Any) -> str:
    return repr((type(value).__name__, repr(value)))


def _column_text(column: ColumnData) -> str:
    """``repr(tuple((type(cell).__name__, repr(cell)) for cell in column.values))``.

    The text of a code whose class is in :data:`_FOLDED_PER_CODE` is built
    once and joined per row with the tuple ``repr``'s own separators; other
    cells, and every null (``None`` and NaN share code ``-1``), are folded
    per cell.
    """
    distinct, _, codes = column.dictionary
    texts = [
        _cell_text(value) if value.__class__ in _FOLDED_PER_CODE else None
        for value in distinct
    ]
    texts.append(None)  # index -1: the nulls
    parts = list(map(texts.__getitem__, codes))
    if 1 in column.null_mask or None in texts[:-1]:
        parts = [
            _cell_text(value) if part is None else part
            for part, value in zip(parts, column.values)
        ]
    if len(parts) == 1:
        return f"({parts[0]},)"
    return f"({', '.join(parts)})"
