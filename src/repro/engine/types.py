"""Data types for the relational engine.

The engine is dynamically typed at the cell level (cells hold Python
objects), but every column carries a declared :class:`DataType` used for

* coercion when loading external data (CSV cells are strings),
* type inference when a source carries no schema,
* choosing comparison semantics (numeric distance vs. string similarity)
  downstream in duplicate detection and conflict resolution.

``None`` is the engine-wide null value and is a member of every type.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
import re
from typing import Any, Iterable, Optional

from repro.exceptions import TypeCoercionError

__all__ = [
    "DataType",
    "NULL",
    "is_null",
    "coerce",
    "infer_type",
    "infer_column_type",
    "TYPE_SAMPLE_LIMIT",
    "values_equal",
    "value_key",
    "compare_values",
]

#: Canonical null value used throughout the engine.
NULL = None


class DataType(enum.Enum):
    """Declared type of a column."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    ANY = "any"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type support arithmetic and numeric distance."""
        return self in (DataType.INTEGER, DataType.FLOAT)

    @property
    def is_textual(self) -> bool:
        """Whether values of this type are compared with string similarity."""
        return self in (DataType.STRING, DataType.ANY)


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d.%m.%Y",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
)
_TRUE_LITERALS = {"true", "t", "yes", "y", "1"}
_FALSE_LITERALS = {"false", "f", "no", "n", "0"}
_NULL_LITERALS = {"", "null", "none", "na", "n/a", "nan", "\\n"}


def is_null(value: Any) -> bool:
    """Return ``True`` if *value* is the engine null (``None`` or NaN)."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def _parse_date(text: str) -> Optional[_dt.date]:
    # Every format opens with %Y, %d or %m, whose strptime patterns start
    # with a decimal digit (or, for %d, a space), so any other first
    # character fails all seven formats: skip the seven raised ValueErrors.
    # ``isdigit`` accepts a superset of those digits, so no date is lost.
    if not text or not (text[0].isdigit() or text[0] == " "):
        return None
    for fmt in _DATE_FORMATS:
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        if fmt.endswith("%H:%M:%S"):
            return parsed
        return parsed.date()
    return None


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce *value* to *dtype*, returning ``None`` for null-like inputs.

    Raises:
        TypeCoercionError: if the value cannot represent the target type.
    """
    if is_null(value):
        return NULL
    if isinstance(value, str) and value.strip().lower() in _NULL_LITERALS:
        return NULL

    if dtype is DataType.ANY:
        return value

    if dtype is DataType.STRING:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise TypeCoercionError(f"cannot coerce non-integral float {value!r} to INTEGER")
        if isinstance(value, str):
            text = value.strip().replace(",", "")
            if _INT_RE.match(text):
                return int(text)
            if _FLOAT_RE.match(text):
                as_float = float(text)
                if as_float.is_integer():
                    return int(as_float)
        raise TypeCoercionError(f"cannot coerce {value!r} to INTEGER")

    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            text = value.strip().replace(",", "")
            if _FLOAT_RE.match(text):
                return float(text)
            # currency-style prefixes ("$12.50", "EUR 9.99")
            stripped = re.sub(r"^[^\d+-]+", "", text)
            if _FLOAT_RE.match(stripped):
                return float(stripped)
        raise TypeCoercionError(f"cannot coerce {value!r} to FLOAT")

    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            text = value.strip().lower()
            if text in _TRUE_LITERALS:
                return True
            if text in _FALSE_LITERALS:
                return False
        raise TypeCoercionError(f"cannot coerce {value!r} to BOOLEAN")

    if dtype is DataType.DATE:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            parsed = _parse_date(value.strip())
            if parsed is not None:
                return parsed
        raise TypeCoercionError(f"cannot coerce {value!r} to DATE")

    raise TypeCoercionError(f"unsupported target type {dtype!r}")  # pragma: no cover


def infer_type(value: Any) -> DataType:
    """Infer the most specific :class:`DataType` that can hold *value*."""
    if is_null(value):
        return DataType.ANY
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, str):
        text = value.strip()
        lowered = text.lower()
        if lowered in _NULL_LITERALS:
            return DataType.ANY
        # Both number patterns open with a sign, a digit or a point, none of
        # them a letter, so a text opening with a letter skips them (and
        # ``_parse_date`` rejects it at once): it is a boolean or STRING.
        if not text[:1].isalpha():
            if _INT_RE.match(text):
                return DataType.INTEGER
            if _FLOAT_RE.match(text):
                return DataType.FLOAT
        if lowered in _TRUE_LITERALS or lowered in _FALSE_LITERALS:
            return DataType.BOOLEAN
        if _parse_date(text) is not None:
            return DataType.DATE
        return DataType.STRING
    return DataType.ANY


#: Lattice used to merge per-value inferences into a column type.  Joining a
#: pair of distinct concrete types falls back to STRING (the universal
#: representation), except INTEGER ∨ FLOAT = FLOAT.
_JOIN = {
    frozenset({DataType.INTEGER, DataType.FLOAT}): DataType.FLOAT,
}


def _join_types(a: DataType, b: DataType) -> DataType:
    if a is b:
        return a
    if a is DataType.ANY:
        return b
    if b is DataType.ANY:
        return a
    return _JOIN.get(frozenset({a, b}), DataType.STRING)


#: How many non-null values :func:`infer_column_type` reads by default.
TYPE_SAMPLE_LIMIT = 1000


def infer_column_type(values: Iterable[Any], sample_limit: int = TYPE_SAMPLE_LIMIT) -> DataType:
    """Infer a column type from a sample of its *values*.

    Nulls are ignored; an all-null column is typed :data:`DataType.ANY`.
    """
    result = DataType.ANY
    seen = 0
    for value in values:
        if is_null(value):
            continue
        result = _join_types(result, infer_type(value))
        seen += 1
        if seen >= sample_limit or result is DataType.STRING:
            break
    return result


def values_equal(left: Any, right: Any) -> bool:
    """SQL-flavoured equality: nulls never equal anything, numerics compare by value."""
    if is_null(left) or is_null(right):
        return False
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def value_key(value: Any) -> tuple:
    """The hashable identity of a non-null value: when two values are "the same".

    Numerics key by ``float`` value (so ``10`` and ``10.0`` are one value),
    everything else by type name and text.  Conflict detection, conflict
    resolution, grouping and ``count_distinct`` all key values with this.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("num", float(value))
    return (type(value).__name__, str(value))


def compare_values(left: Any, right: Any) -> int:
    """Three-way comparison used by ORDER BY; nulls sort first.

    Returns -1, 0 or 1.  Incomparable values are ordered by their string
    representation so sorting never raises.
    """
    left_null, right_null = is_null(left), is_null(right)
    if left_null and right_null:
        return 0
    if left_null:
        return -1
    if right_null:
        return 1
    try:
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    except TypeError:
        left_s, right_s = str(left), str(right)
        if left_s < right_s:
            return -1
        if left_s > right_s:
            return 1
        return 0
