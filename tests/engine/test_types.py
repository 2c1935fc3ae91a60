"""Tests for repro.engine.types: coercion, inference, null handling, comparison."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.types import (
    _DATE_FORMATS,
    _FALSE_LITERALS,
    _FLOAT_RE,
    _INT_RE,
    _NULL_LITERALS,
    _TRUE_LITERALS,
    _parse_date,
    DataType,
    coerce,
    compare_values,
    infer_column_type,
    infer_type,
    is_null,
    value_key,
    values_equal,
)
from repro.exceptions import TypeCoercionError


class TestIsNull:
    def test_none_is_null(self):
        assert is_null(None)

    def test_nan_is_null(self):
        assert is_null(float("nan"))

    def test_zero_is_not_null(self):
        assert not is_null(0)

    def test_empty_string_is_not_null(self):
        assert not is_null("")

    def test_false_is_not_null(self):
        assert not is_null(False)


class TestCoerce:
    def test_none_stays_none(self):
        assert coerce(None, DataType.INTEGER) is None

    def test_null_literal_string_becomes_none(self):
        assert coerce("  NULL ", DataType.STRING) is None
        assert coerce("n/a", DataType.INTEGER) is None
        assert coerce("", DataType.FLOAT) is None

    def test_any_passes_through(self):
        value = object()
        assert coerce(value, DataType.ANY) is value

    def test_string_from_number(self):
        assert coerce(42, DataType.STRING) == "42"
        assert coerce(42.0, DataType.STRING) == "42"
        assert coerce(42.5, DataType.STRING) == "42.5"

    def test_string_from_bool(self):
        assert coerce(True, DataType.STRING) == "true"

    def test_integer_from_string(self):
        assert coerce("17", DataType.INTEGER) == 17
        assert coerce(" -3 ", DataType.INTEGER) == -3
        assert coerce("1,200", DataType.INTEGER) == 1200

    def test_integer_from_integral_float(self):
        assert coerce(4.0, DataType.INTEGER) == 4

    def test_integer_from_fractional_float_fails(self):
        with pytest.raises(TypeCoercionError):
            coerce(4.5, DataType.INTEGER)

    def test_integer_from_garbage_fails(self):
        with pytest.raises(TypeCoercionError):
            coerce("not a number", DataType.INTEGER)

    def test_float_from_string(self):
        assert coerce("3.25", DataType.FLOAT) == pytest.approx(3.25)

    def test_float_from_currency_string(self):
        assert coerce("$12.50", DataType.FLOAT) == pytest.approx(12.5)

    def test_float_from_int(self):
        assert coerce(7, DataType.FLOAT) == 7.0

    def test_boolean_from_strings(self):
        assert coerce("yes", DataType.BOOLEAN) is True
        assert coerce("No", DataType.BOOLEAN) is False
        assert coerce("1", DataType.BOOLEAN) is True

    def test_boolean_from_bad_string_fails(self):
        with pytest.raises(TypeCoercionError):
            coerce("maybe", DataType.BOOLEAN)

    def test_date_from_iso_string(self):
        assert coerce("2005-08-30", DataType.DATE) == datetime.date(2005, 8, 30)

    def test_date_from_german_format(self):
        assert coerce("30.08.2005", DataType.DATE) == datetime.date(2005, 8, 30)

    def test_date_from_datetime_string(self):
        value = coerce("2005-08-30 12:30:00", DataType.DATE)
        assert isinstance(value, datetime.datetime)
        assert value.hour == 12

    def test_date_from_bad_string_fails(self):
        with pytest.raises(TypeCoercionError):
            coerce("next tuesday", DataType.DATE)


class TestInferType:
    def test_null_is_any(self):
        assert infer_type(None) is DataType.ANY

    def test_bool_before_int(self):
        assert infer_type(True) is DataType.BOOLEAN

    def test_int(self):
        assert infer_type(3) is DataType.INTEGER

    def test_float(self):
        assert infer_type(3.5) is DataType.FLOAT

    def test_numeric_string(self):
        assert infer_type("42") is DataType.INTEGER
        assert infer_type("42.5") is DataType.FLOAT

    def test_boolean_string(self):
        assert infer_type("true") is DataType.BOOLEAN

    def test_date_string(self):
        assert infer_type("2005-08-30") is DataType.DATE

    def test_plain_string(self):
        assert infer_type("HumMer") is DataType.STRING

    def test_date_object(self):
        assert infer_type(datetime.date(2005, 8, 30)) is DataType.DATE


class TestInferColumnType:
    def test_all_nulls(self):
        assert infer_column_type([None, None]) is DataType.ANY

    def test_homogeneous_integers(self):
        assert infer_column_type([1, 2, None, 3]) is DataType.INTEGER

    def test_int_float_mix_is_float(self):
        assert infer_column_type([1, 2.5]) is DataType.FLOAT

    def test_mixed_types_fall_back_to_string(self):
        assert infer_column_type([1, "abc"]) is DataType.STRING

    def test_empty_iterable(self):
        assert infer_column_type([]) is DataType.ANY


class TestValuesEqual:
    def test_nulls_never_equal(self):
        assert not values_equal(None, None)
        assert not values_equal(None, 1)

    def test_numeric_cross_type_equality(self):
        assert values_equal(2, 2.0)

    def test_bool_not_equal_to_int(self):
        assert not values_equal(True, 1)

    def test_string_equality(self):
        assert values_equal("a", "a")
        assert not values_equal("a", "A")


class TestValueKey:
    def test_numerics_key_by_value(self):
        assert value_key(10) == value_key(10.0)
        assert value_key(-0.0) == value_key(0)

    def test_booleans_and_text_are_not_numbers(self):
        assert value_key(True) != value_key(1)
        assert value_key("10") != value_key(10)

    def test_other_values_key_by_type_and_text(self):
        day = datetime.date(2005, 8, 30)
        assert value_key(day) == value_key(datetime.date(2005, 8, 30))
        assert value_key(day) != value_key("2005-08-30")


class TestCompareValues:
    def test_nulls_sort_first(self):
        assert compare_values(None, 5) == -1
        assert compare_values(5, None) == 1
        assert compare_values(None, None) == 0

    def test_numeric_ordering(self):
        assert compare_values(1, 2) == -1
        assert compare_values(3, 2) == 1
        assert compare_values(2, 2) == 0

    def test_incomparable_types_use_string_order(self):
        assert compare_values(10, "abc") in (-1, 1)
        # deterministic: "10" < "abc"
        assert compare_values(10, "abc") == -1


def ungated_parse_date(text):
    """Every format tried by ``strptime``: the oracle for the first-character gate."""
    for fmt in _DATE_FORMATS:
        try:
            parsed = datetime.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed if fmt.endswith("%H:%M:%S") else parsed.date()
    return None


ASCII_DIGITS = "0123456789"
#: Arabic-Indic and fullwidth digits: ``strptime``'s ``\d`` accepts both.
UNICODE_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                  "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@st.composite
def date_like_text(draw):
    """Each format's rendering of a date, with optional leading spaces, a
    leading non-digit, or its digits swapped for Unicode ones — all of them,
    or only the first four (a leading ``%Y``, the one directive whose
    pattern takes any decimal digit)."""
    moment = draw(
        st.datetimes(
            min_value=datetime.datetime(1000, 1, 1), max_value=datetime.datetime(9999, 12, 31)
        )
    )
    text = moment.strftime(draw(st.sampled_from(_DATE_FORMATS)))
    digits = str.maketrans(ASCII_DIGITS, draw(st.sampled_from((ASCII_DIGITS,) + UNICODE_DIGITS)))
    swapped = draw(st.sampled_from([0, 4, len(text)]))
    text = text[:swapped].translate(digits) + text[swapped:]
    prefix = draw(st.sampled_from(["", " ", "  ", "\t", "x", "-", "+", "\u00b2"]))
    if draw(st.booleans()):
        text = text.lstrip("0\u0660\uff10")  # single-digit day or month first
    return prefix + text


noise_text = st.text(
    alphabet=ASCII_DIGITS + "".join(UNICODE_DIGITS) + " -/.:Tx\u00b2\t", max_size=22
)


class TestParseDateGate:
    """Rejecting by first character accepts exactly what ``strptime`` accepts."""

    @given(st.one_of(date_like_text(), noise_text))
    @settings(max_examples=400, deadline=None)
    def test_gated_equals_ungated(self, text):
        gated = _parse_date(text)
        expected = ungated_parse_date(text)
        assert type(gated) is type(expected)
        assert gated == expected

    @pytest.mark.parametrize("fmt", _DATE_FORMATS)
    def test_every_format_passes_the_gate(self, fmt):
        text = datetime.datetime(2005, 1, 31, 12, 30).strftime(fmt)
        assert _parse_date(text) is not None
        assert _parse_date(text) == ungated_parse_date(text)

    def test_space_padded_day_still_parses(self):
        assert _parse_date(" 5/01/2005") == datetime.date(2005, 1, 5)
        assert ungated_parse_date(" 5/01/2005") == datetime.date(2005, 1, 5)

    def test_unicode_digit_year_still_parses(self):
        text = "\u0662\u0660\u0660\u0665-01-31"
        assert _parse_date(text) == ungated_parse_date(text) == datetime.date(2005, 1, 31)

    def test_non_digit_first_character_is_rejected(self):
        assert _parse_date("Jan 31 2005") is None
        assert _parse_date("") is None


def unshortcut_infer_type(value):
    """``infer_type`` of a string without the first-letter skip: the oracle."""
    text = value.strip()
    if text.lower() in _NULL_LITERALS:
        return DataType.ANY
    if _INT_RE.match(text):
        return DataType.INTEGER
    if _FLOAT_RE.match(text):
        return DataType.FLOAT
    if text.lower() in _TRUE_LITERALS or text.lower() in _FALSE_LITERALS:
        return DataType.BOOLEAN
    if _parse_date(text) is not None:
        return DataType.DATE
    return DataType.STRING


#: Letters of several scripts and cases (titlecase, modifier and other
#: letters), digits that ``\d`` and ``isdigit`` accept, a superscript two,
#: signs, points, exponents and whitespace.
INFER_ALPHABET = (
    "abeEnNtTyY\u00e9\u00df\u01c5\u02b0\u00aa\u4e2d\u03a9\u2167"
    + ASCII_DIGITS + "".join(UNICODE_DIGITS) + "\u00b2+-.,/: \t\n"
)


@st.composite
def literal_text(draw):
    """A null or boolean literal in any case, maybe padded or extended."""
    word = draw(st.sampled_from(sorted(_NULL_LITERALS | _TRUE_LITERALS | _FALSE_LITERALS)))
    word = "".join(char.upper() if draw(st.booleans()) else char for char in word)
    pad = st.sampled_from(["", " ", "\t", "\n "])
    return draw(pad) + word + draw(st.sampled_from(["", "", "x", "1"])) + draw(pad)


class TestInferTypeShortcut:
    """A stripped text opening with a letter skips the number patterns: it
    is a null literal, a boolean or STRING, as the pattern path finds."""

    @given(st.one_of(st.text(alphabet=INFER_ALPHABET, max_size=12), literal_text(),
                     date_like_text(), noise_text))
    @settings(max_examples=600, deadline=None)
    def test_shortcut_equals_the_pattern_path(self, value):
        assert infer_type(value) is unshortcut_infer_type(value)

    def test_literals_in_any_case(self):
        for value in ("Yes", " NULL ", "nA", "F", "True", "N/A", "\\N", "NaN", "none"):
            assert infer_type(value) is unshortcut_infer_type(value)
        assert infer_type("Yes") is DataType.BOOLEAN
        assert infer_type(" NULL ") is DataType.ANY
        assert infer_type("e5") is DataType.STRING
        assert infer_type("\u00b2") is DataType.STRING
