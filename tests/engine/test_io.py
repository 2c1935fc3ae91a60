"""Tests for the CSV / JSON / XML source adapters."""

import json

import pytest

from repro.engine.io import CsvSource, JsonSource, XmlSource, write_csv, write_json
from repro.engine.io.csv_source import relation_from_csv_text
from repro.engine.types import DataType
from repro.exceptions import DuplicateColumnError, SourceError


class TestCsvSource:
    def test_round_trip(self, tmp_path, people_relation):
        path = tmp_path / "people.csv"
        write_csv(people_relation, path)
        loaded = CsvSource(path).load()
        assert len(loaded) == len(people_relation)
        assert loaded.schema.dtype("age") is DataType.INTEGER
        assert loaded.cell(0, "name") == "Alice"
        # empty CSV cells become nulls
        assert loaded.cell(3, "city") is None

    def test_header_and_types(self, tmp_path):
        path = tmp_path / "cds.csv"
        path.write_text("title,price,year\nAbbey Road,12.99,1969\nKind of Blue,9.5,1959\n")
        relation = CsvSource(path).load()
        assert relation.column_names == ("title", "price", "year")
        assert relation.schema.dtype("price") is DataType.FLOAT
        assert relation.column("year") == [1969, 1959]

    def test_without_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,1\nb,2\n")
        relation = CsvSource(path, has_header=False, column_names=["letter", "number"]).load()
        assert relation.column("letter") == ["a", "b"]

    def test_without_header_generates_names(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,1\n")
        relation = CsvSource(path, has_header=False).load()
        assert relation.column_names == ("column_1", "column_2")

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("x;y\n1;2\n")
        relation = CsvSource(path, delimiter=";").load()
        assert relation.column("y") == [2]

    def test_ragged_rows_are_padded(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1,2\n")
        relation = CsvSource(path).load()
        assert relation.cell(0, "c") is None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SourceError):
            CsvSource(tmp_path / "missing.csv").load()

    @pytest.mark.parametrize(
        "text, column",
        [("name,name\nAnna,Berlin\n", "name"), ("Name,name\nAnna,Berlin\n", "name"),
         ("a,b,a\n1,2,3\n", "a")],
    )
    def test_repeated_header_raises(self, tmp_path, text, column):
        # rows are keyed by header name, so a repeated name would overwrite
        # a column (Anna would be lost)
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(DuplicateColumnError, match=f"'{column}'"):
            CsvSource(path).load()
        with pytest.raises(DuplicateColumnError, match=f"'{column}'"):
            relation_from_csv_text(text)

    def test_repeated_column_names_raise(self):
        with pytest.raises(DuplicateColumnError, match="'X'"):
            relation_from_csv_text("1,2\n", has_header=False, column_names=["x", "X"])

    def test_string_column_names_raise(self, tmp_path):
        # a string is a sequence of one-character column names
        path = tmp_path / "raw.csv"
        path.write_text("1,2\n")
        with pytest.raises(TypeError, match="column_names"):
            CsvSource(path, has_header=False, column_names="ab")
        with pytest.raises(TypeError, match="column_names"):
            relation_from_csv_text("1,2\n", has_header=False, column_names="ab")

    def test_source_name_defaults_to_filename(self, tmp_path):
        path = tmp_path / "students.csv"
        path.write_text("a\n1\n")
        assert CsvSource(path).load().name == "students"


class TestJsonSource:
    def test_array_of_objects(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"a": 1, "b": "x"}, {"a": 2}]))
        relation = JsonSource(path).load()
        assert len(relation) == 2
        assert relation.cell(1, "b") is None

    def test_ndjson(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        assert len(JsonSource(path).load()) == 2

    def test_nested_objects_are_flattened(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps([{"name": "x", "address": {"city": "Berlin"}}]))
        relation = JsonSource(path).load()
        assert relation.cell(0, "address.city") == "Berlin"

    def test_lists_become_strings(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps([{"tags": ["a", "b"]}]))
        assert JsonSource(path).load().cell(0, "tags") == "a, b"

    def test_records_key(self, tmp_path):
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps({"items": [{"a": 1}], "meta": 5}))
        assert len(JsonSource(path, records_key="items").load()) == 1

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json]")
        with pytest.raises(SourceError):
            JsonSource(path).load()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SourceError):
            JsonSource(tmp_path / "missing.json").load()

    def test_write_json_round_trip(self, tmp_path, people_relation):
        path = tmp_path / "out.json"
        write_json(people_relation, path)
        loaded = JsonSource(path).load()
        assert len(loaded) == len(people_relation)


class TestXmlSource:
    def test_record_elements(self, tmp_path):
        path = tmp_path / "cds.xml"
        path.write_text(
            """<catalog>
                 <cd id="1"><title>Abbey Road</title><artist>The Beatles</artist></cd>
                 <cd id="2"><title>Kind of Blue</title><artist>Miles Davis</artist></cd>
               </catalog>"""
        )
        relation = XmlSource(path).load()
        assert len(relation) == 2
        assert relation.cell(0, "title") == "Abbey Road"
        assert relation.cell(1, "id") == "2"

    def test_nested_children_are_flattened_one_level(self, tmp_path):
        path = tmp_path / "people.xml"
        path.write_text(
            """<people>
                 <person><name>X</name><address><city>Berlin</city></address></person>
               </people>"""
        )
        relation = XmlSource(path).load()
        assert relation.cell(0, "address.city") == "Berlin"

    def test_record_path(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(
            "<root><meta/><items><item><a>1</a></item><item><a>2</a></item></items></root>"
        )
        relation = XmlSource(path, record_path="items/item").load()
        assert len(relation) == 2

    def test_invalid_xml_raises(self, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_text("<unclosed>")
        with pytest.raises(SourceError):
            XmlSource(path).load()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SourceError):
            XmlSource(tmp_path / "missing.xml").load()
