"""``Relation.content_digest`` folded per dictionary code, against the per-cell fold.

The digest keys persisted artifacts and the ``source_digests`` of journaled
session snapshots, so its value must never move.  It hashes, per column,
``repr`` of the tuple of ``(type name, repr(cell))`` pairs; the per-code
fold builds one such text per dictionary code and joins them per row, for
the classes whose ``repr`` follows from their class and ``str``.  The
per-cell expression is kept here as the reference.
"""

import datetime
import hashlib
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given

from repro.engine.io import CsvSource
from repro.engine.io.csv_source import relation_from_csv_text, relation_to_csv_text
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from tests.engine.test_dictionary import PROPERTY, relations

GOLDEN = Path(__file__).parent.parent / "fixtures" / "golden"


def per_cell_digest(relation) -> str:
    """The digest as every cell's ``(type name, repr)`` pair, folded per cell."""
    hasher = hashlib.sha256()
    hasher.update(repr(relation.schema.names).encode("utf-8"))
    hasher.update(f"columnar:{len(relation)}x{len(relation.schema)}".encode("utf-8"))
    for column in relation.store.columns:
        hasher.update(
            repr(tuple((type(value).__name__, repr(value)) for value in column.values))
            .encode("utf-8")
        )
    return hasher.hexdigest()


UTC_PLUS_ONE = datetime.timezone(datetime.timedelta(hours=1))
CET = datetime.timezone(datetime.timedelta(hours=1), "CET")
MIDNIGHT = datetime.datetime(2020, 1, 1)

COLUMNS = {
    "nulls": [None, float("nan"), "x", None, float("nan")],
    "signed zeros": [0.0, -0.0, 0.0, -0.0, 0.0],
    "bool and int": [True, 1, 1.0, True, 1],
    "decimals": [Decimal("1.0"), Decimal("1.00"), Decimal("1.0"), None, Decimal("1")],
    "dates": [datetime.date(2020, 1, 1), MIDNIGHT, datetime.date(2020, 1, 1), None, MIDNIGHT],
    # equal str, so one code each, but a different repr
    "aware datetimes": [
        MIDNIGHT.replace(tzinfo=UTC_PLUS_ONE), MIDNIGHT.replace(tzinfo=CET),
        MIDNIGHT.replace(tzinfo=UTC_PLUS_ONE), MIDNIGHT.replace(tzinfo=CET), None,
    ],
    "folds": [MIDNIGHT, MIDNIGHT.replace(fold=1), MIDNIGHT, None, MIDNIGHT.replace(fold=1)],
    "quotes": ["it's", 'say "hi"', "it's", "both ' \"", "\\"],
}


class TestPerCodeFoldEqualsPerCellFold:
    @pytest.mark.parametrize("name", list(COLUMNS))
    def test_confusable_cells(self, name):
        values = COLUMNS[name]
        for rows in (len(values), 1, 0):
            relation = Relation.from_columns({name: values[:rows]}, infer_types=False)
            assert relation.content_digest() == per_cell_digest(relation)

    def test_shared_codes_with_different_reprs_stay_apart(self):
        left = Relation.from_columns({"t": COLUMNS["aware datetimes"][:2]}, infer_types=False)
        right = Relation.from_columns(
            {"t": [COLUMNS["aware datetimes"][0]] * 2}, infer_types=False
        )
        assert left.dictionary("t")[2] == right.dictionary("t")[2] == [0, 0]
        assert left.content_digest() != right.content_digest()

    def test_no_columns(self):
        relation = Relation(Schema([]), [])
        assert relation.content_digest() == per_cell_digest(relation)

    @PROPERTY
    @given(relations())
    def test_generated_relations(self, relation):
        assert relation.content_digest() == per_cell_digest(relation)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda path: path.stem)
    def test_golden_sources_from_the_loader_and_from_dicts(self, path):
        loaded = CsvSource(path).load()
        rebuilt = Relation.from_dicts(loaded.to_dicts())
        text = relation_from_csv_text(relation_to_csv_text(loaded))
        for relation in (loaded, rebuilt, text):
            assert relation.content_digest() == per_cell_digest(relation)

    def test_pinned_value(self):
        # persisted artifacts and journaled snapshots are keyed by this value
        relation = CsvSource(GOLDEN / "crm_customers.csv").load()
        assert relation.content_digest() == (
            "2c90ab89a492bcd0634f4e389c0876a1e8d2425233e26f60363ce99af05c6a00"
        )
