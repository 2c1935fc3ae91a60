"""The column-at-a-time outer union against a row-wise reference.

``outer_union`` joins each merged column's values and null masks and merges
the inputs' cached dictionaries instead of transposing row tuples and
encoding the result again.  The properties here draw 1–4 inputs whose
schemata overlap case-insensitively (zero-row inputs included), with cells
that compare equal but print differently, and check that the union is the
row-wise reference's relation and that every column's dictionary is what
``encode`` would build from the joined column.
"""

import datetime
from decimal import Decimal
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import columnar
from repro.engine.columnar import ColumnData, encode
from repro.engine.operators.union import outer_union
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.matching.transform import SOURCE_ID_COLUMN, add_source_id

CELLS = [
    None,
    float("nan"),
    0.0,
    -0.0,
    0,
    False,
    True,
    1,
    1.0,
    Decimal("1"),
    Decimal("1.0"),
    "1",
    2**53,
    2**53 + 1,
    "anna",
    "Anna",
    "",
    datetime.date(2005, 1, 31),
]

#: Column names whose spellings differ only in case across the inputs.
NAMES = ["name", "age", "city", "mail"]


def fresh(cell):
    """An equal cell that is a new object where Python makes one, so that
    which of several equal cells a dictionary keeps shows by identity."""
    if isinstance(cell, str):
        return "".join([cell, ""]) if len(cell) > 1 else cell
    if type(cell) is int:
        return int(str(cell))
    if type(cell) is float:
        return float(repr(cell))
    if isinstance(cell, Decimal):
        return Decimal(str(cell))
    if isinstance(cell, datetime.date):
        return datetime.date.fromordinal(cell.toordinal())
    return cell


def reference_outer_union(relations, name="fused_input"):
    """The row-wise outer union: one padded tuple per input row."""
    merged_schema = Schema.union_all([relation.schema for relation in relations])
    rows = []
    for relation in relations:
        positions = {column.name.lower(): index for index, column in enumerate(relation.schema)}
        layout = [positions.get(column.name.lower()) for column in merged_schema]
        for values in relation.rows:
            rows.append(tuple(None if p is None else values[p] for p in layout))
    return Relation(merged_schema, rows, name=name)


@st.composite
def inputs(draw):
    """1–4 relations of 0–6 rows over case-varied subsets of ``NAMES``; some
    carry a constant ``sourceID`` column, and some columns have their
    dictionary built before the union."""
    relations = []
    for index in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
        spelled = [draw(st.sampled_from([n, n.upper(), n.capitalize()])) for n in names]
        height = draw(st.integers(0, 6))
        columns = {
            label: [
                fresh(cell)
                for cell in draw(st.lists(st.sampled_from(CELLS), min_size=height, max_size=height))
            ]
            for label in spelled
        }
        relation = Relation.from_columns(columns, name=f"s{index}", infer_types=False)
        if draw(st.booleans()):
            relation = add_source_id(relation, draw(st.sampled_from(CELLS + ["s"])))
        for label in relation.column_names:
            if draw(st.booleans()):
                relation.dictionary(label)
        relations.append(relation)
    return relations


PROPERTY = settings(max_examples=200, deadline=None)


class TestOuterUnion:
    @PROPERTY
    @given(inputs())
    def test_matches_the_row_wise_reference(self, relations):
        reference = reference_outer_union(relations)
        union = outer_union(relations)
        assert union.schema == reference.schema
        assert union.name == "fused_input"
        assert len(union) == sum(len(relation) for relation in relations)
        for name in reference.column_names:
            assert list(map(repr, union.column(name))) == list(map(repr, reference.column(name)))
            assert union.null_mask(name) == reference.null_mask(name)

    @PROPERTY
    @given(inputs())
    def test_dictionaries_equal_a_fresh_encode_of_the_joined_column(self, relations):
        reference = reference_outer_union(relations)
        union = outer_union(relations)
        with mock.patch.object(columnar, "encode", side_effect=AssertionError("encoded")):
            # the union's dictionaries come built, and so do the inputs'
            dictionaries = {name: union.dictionary(name) for name in union.column_names}
            for relation in relations:
                for name in relation.column_names:
                    relation.dictionary(name)
        for name, dictionary in dictionaries.items():
            expected = encode(reference.column(name), reference.null_mask(name))
            assert repr(dictionary) == repr(expected)
            values, _, codes = dictionary
            first = {}
            for cell, code in zip(union.column(name), codes):
                first.setdefault(code, cell)
            # the first cell of each kind, kept as constructed
            assert all(value is first[code] for code, value in enumerate(values))

    def test_a_column_some_inputs_lack_is_padded_with_nulls(self):
        left = Relation.from_columns({"Name": ["anna", "bob"], "age": [1, 1.0]})
        right = Relation.from_columns({"name": ["anna"], "city": ["berlin"]})
        right.dictionary("name")  # one input's dictionary built, the other's not
        union = outer_union([left, right])
        assert union.column_names == ("Name", "age", "city")
        assert union.column("age") == [1, 1.0, None]
        assert union.null_mask("city") == b"\x01\x01\x00"
        assert union.dictionary("Name") == (["anna", "bob"], [2, 1], [0, 1, 0])
        assert union.dictionary("age") == ([1, 1.0], [1, 1], [0, 1, -1])
        assert union.dictionary("city") == (["berlin"], [1], [-1, -1, 0])


class TestConstantColumns:
    def test_source_id_column_comes_with_mask_and_dictionary(self):
        relation = Relation.from_columns({"name": ["anna", "bob", None]})
        tagged = add_source_id(relation, "crm")
        column = tagged.store.column_data(tagged.schema.position(SOURCE_ID_COLUMN))
        with mock.patch.object(columnar, "encode", side_effect=AssertionError("encoded")):
            assert column.null_mask == b"\x00\x00\x00"
            assert column.dictionary == (["crm"], [3], [0, 0, 0])

    def test_constant_dictionaries_equal_encode(self):
        for value in CELLS + ["crm"]:
            for count in (0, 1, 3):
                column = ColumnData.constant(value, count)
                mask = ColumnData([value] * count).null_mask
                assert column.null_mask == mask
                assert repr(column.dictionary) == repr(encode([value] * count, mask))
