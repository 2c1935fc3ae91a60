"""CSV flat-file source."""

from __future__ import annotations

import csv
import io
import os
from functools import partial
from itertools import chain, islice
from operator import is_not
from typing import Iterable, Optional, Sequence, Union

from repro.engine.columnar import ColumnStore, map_distinct
from repro.engine.io.base import DataSource
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import TYPE_SAMPLE_LIMIT, DataType, coerce, infer_column_type
from repro.exceptions import SourceError

__all__ = ["CsvSource", "relation_from_csv_text", "relation_to_csv_text", "write_csv"]


class CsvSource(DataSource):
    """Reads a delimited flat file into a relation.

    Values are loaded as strings and column types are then inferred from the
    data (``infer_types=True``, the default), matching how HumMer treats flat
    files: the metadata repository stores "instructions to transform data into
    its relational form", which here is the delimiter/quote configuration plus
    type inference.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        delimiter: str = ",",
        quotechar: str = '"',
        has_header: bool = True,
        column_names: Optional[Sequence[str]] = None,
        encoding: str = "utf-8",
        infer_types: bool = True,
        name: str = "",
    ):
        self.path = os.fspath(path)
        self.delimiter = delimiter
        self.quotechar = quotechar
        self.has_header = has_header
        self.column_names = _column_name_list(column_names)
        self.encoding = encoding
        self.infer_types = infer_types
        self.name = name or os.path.splitext(os.path.basename(self.path))[0]

    def load(self) -> Relation:
        if not os.path.exists(self.path):
            raise SourceError(f"CSV file not found: {self.path}")
        try:
            with open(self.path, newline="", encoding=self.encoding) as handle:
                rows = _parse(handle, self.delimiter, self.quotechar)
        except (OSError, csv.Error) as exc:
            raise SourceError(f"cannot read CSV file {self.path}: {exc}") from exc
        return _rows_to_relation(
            rows, self.has_header, self.column_names, self.infer_types, self.name
        )

    def describe(self) -> str:
        return f"CsvSource({self.path})"


def _column_name_list(column_names: Optional[Sequence[str]]) -> Optional[list]:
    if isinstance(column_names, str):
        # a string is a sequence too, and would name one column per character
        raise TypeError(f"column_names must be a list, not the string {column_names!r}")
    return list(column_names) if column_names else None


def _parse(lines: Iterable[str], delimiter: str, quotechar: str) -> list:
    """The rows of CSV *lines*, one leading U+FEFF dropped from the first line.

    A UTF-8 byte-order mark read as text would otherwise open the first
    cell (``str.strip`` keeps U+FEFF), and would keep a quoted first cell's
    quotes; dropped before parsing, the text reads as without it (a text of
    the mark alone as an empty one: the emptied line is skipped, since
    ``csv`` reads an empty line as a row).
    """
    lines = iter(lines)
    first = [line[1:] if line.startswith("\ufeff") else line for line in islice(lines, 1)]
    rows = csv.reader(chain(filter(None, first), lines), delimiter=delimiter, quotechar=quotechar)
    return list(rows)


def _rows_to_relation(
    rows: list,
    has_header: bool,
    column_names: Optional[Sequence[str]],
    infer_types: bool,
    name: str,
) -> Relation:
    """The relation of parsed CSV *rows*, built column by column.

    Short rows are padded with ``None`` and long rows cut at the header's
    width.  With *infer_types*, a column's type joins ``infer_type`` over
    the distinct cells among its first ``TYPE_SAMPLE_LIMIT`` cells that are
    not ``None`` (the join is commutative and idempotent, so that is
    ``infer_column_type`` of the whole column), and each distinct cell is
    coerced once (:func:`~repro.engine.columnar.map_distinct`): the first
    column that cannot be coerced raises for its first failing cell in row
    order.  Without, the cells stay the raw strings.  The columns come with
    their null masks and dictionaries, and a header without rows keeps its
    columns (typed ``ANY``, as no values infer).
    """
    if not rows:
        return Relation(Schema(column_names or ["column_1"]), [], name=name)
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        body = rows[1:]
    else:
        width = max(len(row) for row in rows)
        header = column_names or [f"column_{i + 1}" for i in range(width)]
        body = rows
    if column_names and has_header:
        header = list(column_names)
    # a repeated name (or a non-string) is rejected before any cell is read
    schema = Schema(header)
    width = len(header)
    if any(len(row) != width for row in body):
        body = [(row + [None] * (width - len(row)))[:width] for row in body]
    columns, types = [], []
    for cells in (zip(*body) if body else [()] * width):
        if infer_types:
            sample = islice(filter(partial(is_not, None), cells), TYPE_SAMPLE_LIMIT)
            dtype = infer_column_type(dict.fromkeys(sample))
            convert = partial(coerce, dtype=dtype)
        else:
            dtype, convert = DataType.ANY, _raw
        columns.append(map_distinct(cells, convert))
        types.append(dtype)
    schema = Schema([Column(column.name, dtype) for column, dtype in zip(schema, types)])
    return Relation._from_store(schema, ColumnStore(columns), name)


def _raw(cell):
    return cell


def relation_from_csv_text(
    text: str,
    name: str = "",
    delimiter: str = ",",
    quotechar: str = '"',
    has_header: bool = True,
    column_names: Optional[Sequence[str]] = None,
    infer_types: bool = True,
) -> Relation:
    """Parse CSV *text* (already in memory) into a relation.

    The in-memory twin of :class:`CsvSource` — the service layer accepts
    inline CSV uploads and never touches the filesystem.
    """
    try:
        rows = _parse(io.StringIO(text), delimiter, quotechar)
    except csv.Error as exc:
        raise SourceError(f"cannot parse CSV text: {exc}") from exc
    return _rows_to_relation(
        rows, has_header, _column_name_list(column_names), infer_types, name
    )


def relation_to_csv_text(relation: Relation, delimiter: str = ",") -> str:
    """Render a relation as CSV text (header row first, NULL as empty)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(relation.schema.names)
    for values in relation.rows:
        writer.writerow(["" if value is None else value for value in values])
    return buffer.getvalue()


def write_csv(relation: Relation, path: Union[str, os.PathLike], delimiter: str = ",") -> None:
    """Write a relation to a CSV file (used by examples and the CLI)."""
    with open(os.fspath(path), "w", newline="", encoding="utf-8") as handle:
        handle.write(relation_to_csv_text(relation, delimiter=delimiter))
