"""Column-major storage backing :class:`~repro.engine.relation.Relation`.

The engine's hot paths — blocking-key extraction, TF-IDF fits, candidate
pair scoring, fusion grouping — are all *set-oriented*: they touch every
value of a few attributes, not every attribute of a few tuples.  Storing a
relation as a list of row tuples forces per-row Python dispatch onto each of
them.  :class:`ColumnStore` flips the layout: one values list per attribute
plus a (lazily built, cached) null mask, so set-oriented code fetches a whole
column once and loops over a flat list.

Design points:

* **Zero-copy sharing.**  Columns are held as :class:`ColumnData` objects
  (values list + cached null mask).  Relations are logically immutable, so
  derived relations (projections, renames, re-typings) share the same
  ``ColumnData`` instances — a projection allocates nothing per cell, and a
  null mask computed through one view is visible through every other.
* **Row views at the edge only.**  Nothing in this module materialises row
  tuples unless asked; :meth:`ColumnStore.row` and
  :meth:`ColumnStore.row_tuples` exist for the API edge (query operators,
  IO, service payloads) where callers genuinely need tuples.
* **Nulls.**  ``None`` and ``NaN`` are the engine nulls
  (:func:`repro.engine.types.is_null`); a column's mask is a ``bytes`` string
  (1 = null) built on first use and cached on the column, so scoring kernels
  test ``mask[i]`` instead of calling ``is_null`` per cell per pair.
* **Dictionaries.**  A column's distinct non-null cells, their counts and
  one code per row are built on first use and cached the same way, so
  per-value work (profiling, fitting, tokenising, preparing cells) runs once
  per distinct cell instead of once per row (see ``docs/engine.md``).
  :func:`stack` concatenates columns and merges their dictionaries instead
  of encoding the result again, and :func:`map_distinct` (the CSV loader's
  column builder) maps each distinct raw cell once and hands the result its
  mask and dictionary.  Each dictionary code's word tokens are cached next
  to the dictionary (:attr:`ColumnData.tokens`).
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.engine.text import tokenize
from repro.engine.types import value_key
from repro.exceptions import SchemaError

__all__ = [
    "ColumnData", "ColumnStore", "Dictionary", "encode", "grouping_keys", "map_distinct", "stack",
]

#: ``(values, counts, codes)`` of one column; see :attr:`ColumnData.dictionary`.
Dictionary = Tuple[List[Any], List[int], List[int]]


def _is_null(value: Any) -> bool:
    # Local inline of repro.engine.types.is_null (import cycle: types has no
    # dependency on this module, but keeping the check local makes the mask
    # build a tight loop over two cheap tests).
    return value is None or (isinstance(value, float) and value != value)


def encode(values: Sequence[Any], mask: bytes) -> Dictionary:
    """A fresh, uncached dictionary of *values* (see :attr:`ColumnData.dictionary`)."""
    index: dict = {}
    distinct: List[Any] = []
    counts: List[int] = []
    codes: List[int] = []
    for value, null in zip(values, mask):
        if null:
            codes.append(-1)
            continue
        # the key rule, also applied by stack(): equal str or int cells print equally
        cls = value.__class__
        key = value if cls is str or cls is int else (cls, str(value))
        code = index.get(key)
        if code is None:
            code = index[key] = len(distinct)
            distinct.append(value)
            counts.append(1)
        else:
            counts[code] += 1
        codes.append(code)
    return distinct, counts, codes


def _merge(
    cells: Iterable[Tuple[Any, int]], index: dict, distinct: List[Any], counts: List[int]
) -> List[int]:
    """The code of each non-null ``(cell, count)`` under :func:`encode`'s key
    rule, entering new keys into *index*, *distinct* and *counts* in order
    and adding each count to its code's."""
    codes: List[int] = []
    for value, count in cells:
        cls = value.__class__
        key = value if cls is str or cls is int else (cls, str(value))
        code = index.get(key)
        if code is None:
            code = index[key] = len(distinct)
            distinct.append(value)
            counts.append(count)
        else:
            counts[code] += count
        codes.append(code)
    return codes


def map_distinct(cells: Sequence[Hashable], function: Callable[[Any], Any]) -> "ColumnData":
    """The column of ``function(cell)`` per cell, with its mask and dictionary.

    *function* runs once per distinct (hashable) cell, in first-seen order,
    so the first cell it raises for is the first in row order.  Distinct
    cells whose results share a key under :func:`encode`'s rule (``"1"``,
    ``"01"`` and ``"1.0"`` all coerced to ``1``) merge into one code: the
    first one's result is the dictionary value and their counts add.  The
    results enter in the first-seen order of their cells, which is their
    first-seen order among the mapped values, so the dictionary equals
    ``encode`` of the mapped column; null results get ``-1``.
    """
    counted = Counter(cells)  # first-seen order
    mapped = {cell: function(cell) for cell in counted}
    flags = {cell: _is_null(value) for cell, value in mapped.items()}
    present = [cell for cell in counted if not flags[cell]]
    distinct: List[Any] = []
    counts: List[int] = []
    cells_counted = zip(map(mapped.__getitem__, present), map(counted.__getitem__, present))
    code_of = dict.fromkeys(counted, -1)
    code_of.update(zip(present, _merge(cells_counted, {}, distinct, counts)))
    values = list(map(mapped.__getitem__, cells))
    mask = bytes(map(flags.__getitem__, cells))
    return ColumnData(values, mask, (distinct, counts, list(map(code_of.__getitem__, cells))))


def stack(parts: Sequence[Tuple[Optional["ColumnData"], int]]) -> "ColumnData":
    """One column of the ``(column, length)`` *parts* one after another,
    *length* nulls where *column* is ``None``.

    The values lists and the null masks are joined, and the dictionary is
    merged from the parts' (each built if missing, and left cached on its
    part) once per distinct cell under :func:`encode`'s key rule: counts add
    and each part's codes are remapped through one list that keeps ``-1``.
    That equals ``encode`` of the joined values, because a part's new cells
    enter in its own first-seen order, which is also their first-seen order
    in the join.
    """
    values: List[Any] = []
    masks: List[bytes] = []
    index: dict = {}
    distinct: List[Any] = []
    counts: List[int] = []
    codes: List[int] = []
    for column, length in parts:
        if column is None:
            values += [None] * length
            masks.append(b"\x01" * length)
            codes += [-1] * length
            continue
        part_values, part_counts, part_codes = column.dictionary
        values += column.values
        masks.append(column.null_mask)
        remap = _merge(zip(part_values, part_counts), index, distinct, counts)
        remap.append(-1)  # index -1: the nulls keep their code
        codes += map(remap.__getitem__, part_codes)
    return ColumnData(values, b"".join(masks), (distinct, counts, codes))


def grouping_keys(dictionary: Dictionary) -> List[int]:
    """One grouping key per row of a column with *dictionary*.

    Two rows get the same key exactly when their cells have the same
    :func:`~repro.engine.types.value_key`, every null (``None``, NaN) being
    one key, ``-1``.  ``value_key`` runs once per distinct cell.  A code is
    its own key unless an earlier code has the same ``value_key`` (``10``
    and ``10.0``); only then is a per-row list built, else the dictionary's
    own codes are returned (shared: read-only).
    """
    distinct, _, codes = dictionary
    first_code: Dict[tuple, int] = {}
    canonical = [
        first_code.setdefault(value_key(value), code) for code, value in enumerate(distinct)
    ]
    if len(first_code) == len(distinct):
        return codes
    canonical.append(-1)  # index -1: the nulls keep their code
    return [canonical[code] for code in codes]


class ColumnData:
    """One attribute's values plus its cached null mask and dictionary.

    The values list is the canonical storage — cells are held exactly as
    constructed (no boxing, no sentinel encoding), so reads through a column
    are bit-identical to reads through a row tuple.  The null mask, the
    dictionary, the grouping keys and the per-code tokens are built on first
    access and cached (:func:`stack`, :func:`map_distinct` and
    :meth:`constant` hand the first two in); relations that share a
    ``ColumnData`` (projections, renames) share the caches too.
    """

    __slots__ = ("values", "_mask", "_dictionary", "_group_keys", "_tokens")

    def __init__(
        self,
        values: List[Any],
        mask: Optional[bytes] = None,
        dictionary: Optional[Dictionary] = None,
    ):
        self.values = values
        self._mask = mask
        self._dictionary = dictionary
        self._group_keys: Optional[List[int]] = None
        self._tokens: Optional[List[Optional[List[str]]]] = None

    @classmethod
    def constant(cls, value: Any, count: int) -> "ColumnData":
        """*count* copies of *value*, with the mask and dictionary ``encode`` would build."""
        if _is_null(value):
            return cls([value] * count, b"\x01" * count, ([], [], [-1] * count))
        dictionary = ([value], [count], [0] * count) if count else ([], [], [])
        return cls([value] * count, b"\x00" * count, dictionary)

    @property
    def null_mask(self) -> bytes:
        """``bytes`` of 0/1 flags, 1 where the cell is null (built once).

        The length guard rebuilds a cached mask whose column has been grown
        or shrunk in place (against the immutability convention, but
        tolerated the same way :meth:`Relation.content_key` tolerates
        content mutation).  Flipping an existing cell between null and
        non-null in place is outside that tolerance — the cached mask keeps
        the construction-time flags.
        """
        if self._mask is None or len(self._mask) != len(self.values):
            self._mask = bytes(1 if _is_null(value) else 0 for value in self.values)
        return self._mask

    @property
    def null_count(self) -> int:
        """Number of null cells."""
        return sum(self.null_mask)

    @property
    def dictionary(self) -> Dictionary:
        """``(values, counts, codes)``, built once like :attr:`null_mask`.

        ``values`` holds the distinct non-null cells in first-seen order,
        ``counts[k]`` the number of cells with code ``k``, and ``codes[i]``
        row ``i``'s code, ``-1`` exactly where the null mask is 1.  Two cells
        share a code only when their class and ``str()`` agree — everything a
        per-value reader (``str``, tokenising, ``float()``, type inference)
        can tell apart; ``(class, value)`` is not enough, since ``0.0 ==
        -0.0`` print differently.  The result is shared and read-only.
        """
        cached = self._dictionary
        if cached is None or len(cached[2]) != len(self.values):
            self._group_keys = self._tokens = None
            cached = self._dictionary = encode(self.values, self.null_mask)
        return cached

    @property
    def group_keys(self) -> List[int]:
        """:func:`grouping_keys` of :attr:`dictionary`, built once and dropped
        with the dictionary it came from; shared and read-only."""
        dictionary = self.dictionary
        keys = self._group_keys
        if keys is None:
            keys = self._group_keys = grouping_keys(dictionary)
        return keys

    @property
    def tokens(self) -> List[List[str]]:
        """``tokenize(str(cell))`` per code of :attr:`dictionary`, every code
        filled in; shared and read-only.  Each code is tokenised once, here
        or by :meth:`cell_tokens`, and the lists are dropped with the
        dictionary they came from.  The field corpus, the seeding statistics
        and the token-postings artifact all read them, so a prepared
        source's cells are tokenised once for the three."""
        tokens = self._token_slots()
        values = self._dictionary[0]
        for code, cell in enumerate(tokens):
            if cell is None:
                tokens[code] = tokenize(str(values[code]))
        return tokens

    def cell_tokens(self, code: int) -> List[str]:
        """:attr:`tokens` of one code, tokenising that cell alone on first
        use, so a reader of sampled rows (the seeding statistics) costs its
        sample, not the column."""
        tokens = self._token_slots()
        cell = tokens[code]
        if cell is None:
            cell = tokens[code] = tokenize(str(self._dictionary[0][code]))
        return cell

    def _token_slots(self) -> List[Optional[List[str]]]:
        dictionary = self.dictionary
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = [None] * len(dictionary[0])
        return tokens

    def take(self, indices: Sequence[int]) -> "ColumnData":
        """A new column holding ``values[i]`` for each index, in order."""
        values = self.values
        if self._mask is None:
            return ColumnData([values[i] for i in indices])
        mask = self._mask
        return ColumnData(
            [values[i] for i in indices], bytes(mask[i] for i in indices)
        )

    def slice(self, selector: slice) -> "ColumnData":
        """A new column over a slice of this one (mask sliced alongside)."""
        mask = self._mask[selector] if self._mask is not None else None
        return ColumnData(self.values[selector], mask)

    def copied(self) -> "ColumnData":
        """An independent copy (values list duplicated, mask shared)."""
        return ColumnData(list(self.values), self._mask)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnData({len(self.values)} values)"

    # -- pickling (``__slots__`` classes need explicit state) -----------------

    def __getstate__(self):
        return (self.values, self._mask)

    def __setstate__(self, state):
        self.values, self._mask = state
        self._dictionary = None
        self._group_keys = self._tokens = None


class ColumnStore:
    """Column-major tuple storage: one :class:`ColumnData` per attribute.

    The store knows nothing about schemas or column names — positions are the
    only addressing scheme, exactly like the row tuples it replaces.  All
    derived-store constructors (:meth:`take`, :meth:`select`, …) share
    ``ColumnData`` objects wherever the derivation allows it.
    """

    __slots__ = ("_columns", "_row_count")

    def __init__(self, columns: Sequence[ColumnData], row_count: Optional[int] = None):
        self._columns: Tuple[ColumnData, ...] = tuple(columns)
        if row_count is None:
            row_count = len(self._columns[0].values) if self._columns else 0
        for column in self._columns:
            if len(column.values) != row_count:
                raise SchemaError(
                    f"column has {len(column.values)} values, expected {row_count}"
                )
        self._row_count = row_count

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, width: int, rows: Iterable[Sequence[Any]]) -> "ColumnStore":
        """Transpose an iterable of row sequences into a store.

        Every row must have exactly *width* values.
        """
        stored: List[Tuple[Any, ...]] = []
        for row in rows:
            values = tuple(row)
            if len(values) != width:
                raise SchemaError(
                    f"row {values!r} has {len(values)} values, expected {width}"
                )
            stored.append(values)
        if not stored:
            return cls([ColumnData([]) for _ in range(width)], 0)
        # zip(*rows) transposes at C speed — much faster than per-cell appends
        return cls([ColumnData(list(column)) for column in zip(*stored)], len(stored))

    @classmethod
    def from_lists(cls, columns: Sequence[List[Any]]) -> "ColumnStore":
        """Wrap plain value lists (adopted, not copied) as a store."""
        return cls([ColumnData(column) for column in columns])

    # -- basic accessors -------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of tuples.

        Read from the first column's live length (when there is one) so that
        callers who mutate column storage in place — against the immutability
        convention, but tolerated by :meth:`Relation.content_key` — observe
        the true row count rather than a stale construction-time snapshot.
        """
        if self._columns:
            return len(self._columns[0].values)
        return self._row_count

    @property
    def width(self) -> int:
        """Number of attributes."""
        return len(self._columns)

    @property
    def columns(self) -> Tuple[ColumnData, ...]:
        """The column objects, in schema order."""
        return self._columns

    def column(self, position: int) -> List[Any]:
        """The values list of one column — the internal list, zero-copy.

        Callers must treat the result as read-only; relations are logically
        immutable and derived relations share column storage.
        """
        return self._columns[position].values

    def column_data(self, position: int) -> ColumnData:
        """The :class:`ColumnData` (values + mask cache) of one column."""
        return self._columns[position]

    def null_mask(self, position: int) -> bytes:
        """The null mask of one column (1 = null), built once and cached."""
        return self._columns[position].null_mask

    def cell(self, row_index: int, position: int) -> Any:
        """One cell value."""
        return self._columns[position].values[row_index]

    def row(self, index: int) -> Tuple[Any, ...]:
        """One row, materialised as a tuple (supports negative indices)."""
        count = self.row_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"row index {index} out of range")
        return tuple(column.values[index] for column in self._columns)

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate rows as tuples (transposed at C speed)."""
        if not self._columns:
            return iter(() for _ in range(self._row_count))
        return zip(*(column.values for column in self._columns))

    def row_tuples(self) -> List[Tuple[Any, ...]]:
        """All rows as a list of tuples — the API-edge materialisation."""
        return list(self.iter_rows())

    # -- derivations (all sharing ColumnData where possible) -------------------

    def select(self, positions: Sequence[int]) -> "ColumnStore":
        """A store over the given columns, in order — zero-copy."""
        return ColumnStore(
            [self._columns[position] for position in positions], self._row_count
        )

    def take(self, indices: Sequence[int]) -> "ColumnStore":
        """A store holding the given rows, in order."""
        return ColumnStore(
            [column.take(indices) for column in self._columns], len(indices)
        )

    def slice(self, selector: slice) -> "ColumnStore":
        """A store over a row slice."""
        columns = [column.slice(selector) for column in self._columns]
        count = len(columns[0].values) if columns else len(range(*selector.indices(self._row_count)))
        return ColumnStore(columns, count)

    def replace_column(self, position: int, column: ColumnData) -> "ColumnStore":
        """A store with one column replaced (others shared)."""
        columns = list(self._columns)
        columns[position] = column
        return ColumnStore(columns, self._row_count)

    def insert_column(self, position: int, column: ColumnData) -> "ColumnStore":
        """A store with one column inserted (others shared)."""
        columns = list(self._columns)
        columns.insert(position, column)
        return ColumnStore(columns, self._row_count)

    def extended(self, rows: Iterable[Sequence[Any]]) -> "ColumnStore":
        """A store with extra rows appended (column lists copied, then extended)."""
        appended = ColumnStore.from_rows(len(self._columns), rows)
        columns = []
        for existing, extra in zip(self._columns, appended._columns):
            merged = list(existing.values)
            merged.extend(extra.values)
            columns.append(ColumnData(merged))
        return ColumnStore(columns, self.row_count + appended.row_count)

    def copied(self) -> "ColumnStore":
        """A store with independent column lists (deep enough for immutability)."""
        return ColumnStore([column.copied() for column in self._columns], self._row_count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnStore {len(self._columns)} columns x {self._row_count} rows>"
