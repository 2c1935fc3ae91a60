"""The columnar CSV loader against the row-wise loader it replaced.

``_rows_to_relation`` (behind ``CsvSource``, ``relation_from_csv_text`` and
service CSV uploads) transposes the parsed rows once, types each column
from its distinct sampled cells and coerces each distinct cell once.  The
row-wise loader it replaced — one dict per row, ``Relation.from_dicts``,
then every cell coerced — is kept here as the reference: over generated
CSV text both must give the same schema, types, values, null masks and
dictionaries, or raise the same error.  The two behaviours the columnar
loader changes on purpose (a leading byte-order mark, a header without
rows) are tested at all three entry points.
"""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import encode
from repro.engine.io import CsvSource
from repro.engine.io.csv_source import relation_from_csv_text
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import TYPE_SAMPLE_LIMIT, DataType
from repro.exceptions import SourceError, TypeCoercionError


def rowwise_reference(rows, has_header=True, column_names=None, infer_types=True, name=""):
    """The replaced loader: dicts per row → ``from_dicts`` → every cell coerced."""
    column_names = list(column_names) if column_names else None
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
    Schema(header)
    width = len(header)
    records = [
        dict(zip(header, (list(row) + [None] * (width - len(row)))[:width])) for row in body
    ]
    relation = Relation.from_dicts(records, name=name, infer_types=infer_types)
    if infer_types:  # what Relation.coerced() did
        relation = Relation(relation.schema, relation.rows, name=name, coerce_types=True)
    return relation


def reference_from_text(text, name="", has_header=True, column_names=None, infer_types=True):
    """``relation_from_csv_text`` over the row-wise loader."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise SourceError(f"cannot parse CSV text: {exc}") from exc
    return rowwise_reference(rows, has_header, column_names, infer_types, name)


def header_only(text):
    try:
        return len(list(csv.reader(io.StringIO(text)))) == 1
    except csv.Error:
        return False


def state(relation):
    """Schema with types, row count, and per column: values ``repr``, mask, dictionary."""
    return (
        [(column.name, column.dtype) for column in relation.schema],
        len(relation),
        [
            (repr(data.values), data.null_mask, repr(data.dictionary))
            for data in relation.store.columns
        ],
    )


def outcome(load, *args, **kwargs):
    try:
        relation = load(*args, **kwargs)
    except Exception as error:  # compared by type and message
        return ("raised", type(error), str(error))
    for data in relation.store.columns:
        assert repr(data.dictionary) == repr(encode(data.values, data.null_mask))
    return state(relation)


def to_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


NULLS = ["", " ", "null", "NULL", " Null ", "none", "NA", "n/a", "NaN", "\\N", "\tnan "]
INTS = ["1", "01", "1.0", "-3", "+7", " 42 ", "0", "-0", "1e2"]
FLOATS = ["2.5", ".5", "1e3", "-0.0", "0.0", "3.", "1.50", "1.5"]
BOOLS = ["true", "F", "yes", "n", "T", "No"]
DATES = ["2020-01-02", "02.01.2020", "2020/01/02", "2020-01-02 10:00:00", "2020-01-02T10:00:00"]
TEXTS = ["abc", "Ünïcode", 'say "hi"', "a,b", "x\ny", "1,000", "$12.50", "ü"]
#: Column kinds: ints and floats join to FLOAT, any other pair to STRING.
KINDS = [INTS, INTS + FLOATS, FLOATS, BOOLS, DATES, INTS + BOOLS, DATES + TEXTS, TEXTS]
FREE_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00\ufeff"
    ),
    max_size=6,
)
NAMES = ["name", "Name", "age", " city ", "a b", "x", "été", ""]


def names(width):
    """Mostly distinct names; sometimes a repeated or an empty one."""
    distinct = st.lists(
        st.sampled_from(NAMES[:-1]), min_size=width, max_size=width,
        unique_by=lambda name: name.strip().lower(),
    )
    anything = st.lists(st.sampled_from(NAMES), min_size=width, max_size=width)
    return st.one_of(distinct, distinct, distinct, anything)


@st.composite
def csv_inputs(draw):
    """CSV text plus loader options: typed, mixed and null-literal columns,
    short and long rows, headers or not, and sometimes a first
    ``TYPE_SAMPLE_LIMIT`` rows of integers before the drawn ones."""
    width = draw(st.integers(1, 4))
    pools = []
    for _ in range(width):
        pool = list(draw(st.sampled_from(KINDS)))
        pool += draw(st.lists(st.sampled_from(NULLS), max_size=3))
        pool += draw(st.lists(FREE_TEXT, max_size=1))
        pools.append(pool)
    rows = []
    if draw(st.booleans()):
        integers = [draw(st.sampled_from(INTS[:3] + NULLS[:2])) for _ in range(width)]
        rows += [list(integers) for _ in range(TYPE_SAMPLE_LIMIT)]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        cut = draw(st.sampled_from([None, None, None, 0, 1, width + 1]))
        if cut is not None:
            row = (row + [draw(st.sampled_from(pools[-1]))])[:cut]
        rows.append(row)
    has_header = draw(st.booleans())
    column_names = draw(st.none() | st.none() | names(draw(st.integers(1, 5))))
    if has_header:
        rows.insert(0, draw(names(width)))
    options = {
        "has_header": has_header,
        "column_names": column_names,
        "infer_types": draw(st.sampled_from([True, True, True, False])),
    }
    return to_text(rows), options


class TestParityWithTheRowwiseLoader:
    @settings(max_examples=250, deadline=None)
    @given(csv_inputs())
    def test_schema_values_masks_dictionaries_and_errors(self, generated):
        text, options = generated
        actual = outcome(relation_from_csv_text, text, name="s", **options)
        if options["has_header"] and header_only(text):
            # header only: the reference lost the columns (tested below)
            return
        assert actual == outcome(reference_from_text, text, name="s", **options)

    @pytest.mark.parametrize("late", ["x", "2.5", "true", " 7 ", "NA"])
    def test_a_cell_after_the_type_sample(self, late):
        # typed INTEGER by its first TYPE_SAMPLE_LIMIT cells; the next one
        # coerces, or raises the reference's error for the first failing cell
        rows = [["n", "m"]] + [[str(i % 7), "1"] for i in range(TYPE_SAMPLE_LIMIT)]
        rows += [[late, "y"], ["x", "z"]]
        text = to_text(rows)
        expected = outcome(rowwise_reference, rows)
        assert outcome(relation_from_csv_text, text) == expected
        if late in ("x", "true"):
            assert expected == ("raised", TypeCoercionError, f"cannot coerce {late!r} to INTEGER")

    def test_a_none_pad_is_not_part_of_the_type_sample(self):
        # short rows pad with None, which is skipped: the sample reaches row 1001
        rows = [["n", "m"]] + [["1"]] * TYPE_SAMPLE_LIMIT + [["1", "2.5"]]
        assert outcome(relation_from_csv_text, to_text(rows)) == outcome(rowwise_reference, rows)

    def test_equal_coerced_cells_share_a_code_in_first_seen_order(self):
        relation = relation_from_csv_text("n\n01\n1.0\n2\n1\n\n")
        assert relation.schema.dtype("n") is DataType.FLOAT
        assert repr(relation.column("n")) == "[1.0, 1.0, 2.0, 1.0, None]"
        assert relation.dictionary("n") == ([1.0, 2.0], [3, 1], [0, 0, 1, 0, -1])
        signed = relation_from_csv_text("f\n-0.0\n0\n-0\n0.00\n")
        assert repr(signed.dictionary("f")) == "([-0.0, 0.0], [2, 2], [0, 1, 0, 1])"
        # "1.0" after an all-integer sample coerces to the same INTEGER key
        text = "n\n" + "1\n" * TYPE_SAMPLE_LIMIT + "01\n1.0\n2\n"
        late = relation_from_csv_text(text)
        assert late.schema.dtype("n") is DataType.INTEGER
        assert late.dictionary("n")[:2] == ([1, 2], [TYPE_SAMPLE_LIMIT + 2, 1])

    def test_golden_sources_load_as_the_reference(self):
        from tests.test_golden_pipeline import FIXTURE_DIR

        for path in sorted(FIXTURE_DIR.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert outcome(CsvSource(path).load) == outcome(rowwise_reference, rows, name=path.stem)


BOM = "\ufeff"


class TestByteOrderMark:
    def test_text_header_loses_one_leading_mark(self):
        relation = relation_from_csv_text(BOM + "name,age\nann,3\n")
        assert relation.column_names == ("name", "age")
        assert relation.column("name") == ["ann"]

    def test_file_header_loses_the_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text(BOM + "name,age\nann,3\n", encoding="utf-8")
        relation = CsvSource(path).load()
        assert relation.column_names == ("name", "age")
        assert relation.schema.dtype("age") is DataType.INTEGER

    def test_first_data_cell_loses_the_mark_without_a_header(self):
        relation = relation_from_csv_text(BOM + "7,x\n8,y\n", has_header=False)
        assert relation.column("column_1") == [7, 8]

    def test_a_quoted_first_header_loses_its_quotes(self):
        relation = relation_from_csv_text(BOM + '"name","age"\n"ann",3\n')
        assert relation.column_names == ("name", "age")

    def test_a_lone_mark_is_an_empty_file(self):
        assert relation_from_csv_text(BOM).column_names == ("column_1",)

    def test_only_the_first_cell_and_only_one_mark(self):
        text = f"{BOM}{BOM}a,{BOM}b\n{BOM}x,y\n"
        relation = relation_from_csv_text(text)
        assert relation.column_names == (BOM + "a", BOM + "b")
        assert relation.column(BOM + "a") == [BOM + "x"]

    def test_fuse_by_finds_the_first_column(self):
        from repro.hummer import HumMer

        hummer = HumMer()
        hummer.register("s", relation_from_csv_text(BOM + "name,age\nann,3\nann,4\n"))
        result = hummer.query("SELECT name, age FUSE FROM s FUSE BY (name)")
        assert result.column("name") == ["ann"]


class TestHeaderOnly:
    @pytest.mark.parametrize("infer_types", [True, False])
    def test_text_keeps_the_header_columns(self, infer_types):
        relation = relation_from_csv_text("name,age\n", infer_types=infer_types)
        assert [(c.name, c.dtype) for c in relation.schema] == [
            ("name", DataType.ANY), ("age", DataType.ANY)
        ]
        assert len(relation) == 0
        assert relation.store.columns[0].dictionary == ([], [], [])

    def test_given_column_names_replace_the_header(self):
        relation = relation_from_csv_text("name,age\n", column_names=["n", "a", "c"])
        assert relation.column_names == ("n", "a", "c") and len(relation) == 0

    def test_file_keeps_the_header_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("name,age\n", encoding="utf-8")
        relation = CsvSource(path).load()
        assert relation.column_names == ("name", "age") and len(relation) == 0
