"""Numeric, date and generic value similarity.

The duplicate-detection measure compares matched attribute values with "edit
distance and numerical distance functions" (paper §2.3).  This module
provides the numeric and date distances, and :func:`value_similarity`, the
type-dispatching entry point the detector uses per cell pair.

The dispatch runs over :class:`PreparedValue` cells: everything that depends
on one value only (type inference, text normalisation, tokens, the parsed
date) is derived once when the cell is prepared, and
:func:`prepared_similarity` scores two prepared cells.  A batch scorer that
meets the same value in many pairs prepares it once;
:func:`value_similarity` prepares both cells afresh on every call.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, List, Optional

from repro.engine.types import DataType, TypeCoercionError, coerce, infer_type, is_null
from repro.similarity.levenshtein import levenshtein_similarity
from repro.similarity.monge_elkan import TokenPairTable, monge_elkan_tokens
from repro.similarity.tokenize import normalize_text, tokenize

__all__ = [
    "numeric_similarity",
    "date_similarity",
    "value_similarity",
    "PreparedValue",
    "prepared_similarity",
]


def numeric_similarity(left: float, right: float, scale: Optional[float] = None) -> float:
    """Similarity of two numbers in ``[0, 1]``.

    Uses relative difference: ``1 - |a-b| / max(|a|, |b|)`` (clamped at 0),
    or, when *scale* is given, an exponential decay ``exp(-|a-b| / scale)``.
    Two zeros are identical.
    """
    if is_null(left) or is_null(right):
        return 0.0
    left_f, right_f = float(left), float(right)
    if left_f == right_f:
        return 1.0
    difference = abs(left_f - right_f)
    if scale is not None and scale > 0:
        return math.exp(-difference / scale)
    denominator = max(abs(left_f), abs(right_f))
    if denominator == 0.0:
        return 1.0
    return max(0.0, 1.0 - difference / denominator)


def date_similarity(left: Any, right: Any, horizon_days: float = 365.0) -> float:
    """Similarity of two dates: linear decay over *horizon_days*."""
    return _date_decay(_as_date(left), _as_date(right), horizon_days)


def _date_decay(
    left_date: Optional[_dt.date], right_date: Optional[_dt.date], horizon_days: float = 365.0
) -> float:
    if left_date is None or right_date is None:
        return 0.0
    delta_days = abs((left_date - right_date).days)
    return max(0.0, 1.0 - delta_days / horizon_days)


def _as_date(value: Any) -> Optional[_dt.date]:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        try:
            coerced = coerce(value, DataType.DATE)
        except TypeCoercionError:
            return None
        return coerced if not isinstance(coerced, _dt.datetime) else coerced.date()
    return None


class PreparedValue:
    """One non-null cell with its value-only work done, for :func:`prepared_similarity`.

    Attributes:
        value: the raw cell.
        type: :func:`~repro.engine.types.infer_type` of the cell.
        text: the cell's :func:`normalize_text` form (the string comparison
            input whatever the type, since mixed-type pairs compare as text).
        number: the ``float`` of a numeric cell (``INTEGER`` or ``FLOAT``),
            else ``None``.
        date: the parsed date of a ``DATE`` cell, else ``None``.
        boolean: the truth value of a ``BOOLEAN`` cell or of a number equal
            to 0 or 1, else ``None``.
        tokens: the word tokens of :attr:`text`, derived on first use (only
            multi-word comparisons need them).
    """

    __slots__ = ("value", "type", "text", "number", "date", "boolean", "_tokens")

    def __init__(self, value: Any):
        self.value = value
        self.type = infer_type(value)
        self.text = normalize_text(value)
        try:
            self.number = float(value) if self.type.is_numeric else None
        except OverflowError:  # an int beyond float range: compared as text
            self.number = None
        self.date = _as_date(value) if self.type is DataType.DATE else None
        if self.type is DataType.BOOLEAN:
            self.boolean = coerce(value, DataType.BOOLEAN)
        else:
            self.boolean = self.number == 1.0 if self.number in (0.0, 1.0) else None
        self._tokens: Optional[List[str]] = None

    @property
    def tokens(self) -> List[str]:
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens


def prepared_similarity(
    left: PreparedValue, right: PreparedValue, table: Optional[TokenPairTable] = None
) -> float:
    """Type-dispatching similarity of two prepared, non-null cells in ``[0, 1]``.

    * Numbers → :func:`numeric_similarity`.
    * Dates → :func:`date_similarity`.
    * A boolean against a boolean or a 0/1 number → 1.0 when both have the
      same truth value (``'yes'``, ``'TRUE'``, ``True``, ``1`` and ``'1'``
      agree), else 0.0.
    * Everything else → hybrid string similarity: max of normalised edit
      distance and Monge-Elkan (token-order tolerant) when either text has
      several words.

    *table* is Monge-Elkan's Jaro-Winkler token-pair table; a batch scorer
    passes one it keeps for the whole batch.
    """
    if left.number is not None and right.number is not None:
        return numeric_similarity(left.number, right.number)
    if left.type is DataType.DATE and right.type is DataType.DATE:
        return _date_decay(left.date, right.date)
    # two numbers returned above, so here at least one side is a boolean
    if left.boolean is not None and right.boolean is not None:
        return 1.0 if left.boolean is right.boolean else 0.0

    left_text = left.text
    right_text = right.text
    if left_text == right_text:
        return 1.0
    edit = levenshtein_similarity(left_text, right_text, normalize=False)
    if " " in left_text or " " in right_text:
        hybrid = monge_elkan_tokens(left.tokens, right.tokens, table=table)
        return max(edit, hybrid)
    return edit


def value_similarity(left: Any, right: Any) -> float:
    """Type-dispatching similarity of two cell values in ``[0, 1]``.

    * Two nulls → 1.0 (no evidence against), one null → 0.0 (callers that
      need "missing has no influence" semantics check for nulls first).
    * Otherwise → :func:`prepared_similarity` of the freshly prepared cells.
    """
    left_null, right_null = is_null(left), is_null(right)
    if left_null and right_null:
        return 1.0
    if left_null or right_null:
        return 0.0
    return prepared_similarity(PreparedValue(left), PreparedValue(right))
