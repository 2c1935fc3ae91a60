"""Frozen pair-score fixtures: the scoring spec without a second implementation.

Every all-pairs similarity of three datasets — the golden CSVs, a generated
students dataset and a generated CD-store dataset — and every ordered pair
of an edge-case value corpus is frozen as ``float.hex`` under
``tests/fixtures/pair_scores``.  The batched scorer
(:meth:`ColumnarPairScorer.similarities`), the per-pair reference
(:meth:`DuplicateSimilarityMeasure.explain_rows`) and
:func:`value_similarity` must reproduce those bits exactly.  Parity tests
between the batched and per-pair paths cannot see a semantic drift once both
share their leaf functions; these fixtures can.

Each dataset's sources are aligned by a fixed column mapping (the
generator's ground truth, or a literal one for the golden CSVs) and scored
on a fixed attribute selection, so neither schema matching nor attribute
selection can move these fixtures; the scoring measure and the data are
their only inputs.  To regenerate after an *intentional* change to the
measure::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/dedup/test_pair_score_fixtures.py

then review the fixture diff like any other code change.
"""

import datetime
import json
import os
from pathlib import Path

import pytest

from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
from repro.dedup.descriptions import AttributeSelection
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.io.csv_source import CsvSource
from repro.engine.operators.union import outer_union
from repro.engine.relation import Relation
from repro.similarity.numeric import value_similarity

FIXTURE_DIR = Path(__file__).parent.parent / "fixtures" / "pair_scores"
GOLDEN_CSV_DIR = Path(__file__).parent.parent / "fixtures" / "golden"

LONG_TEXT = "the quick brown fox jumps over the lazy dog and keeps running far away"
LONG_TYPO = "teh quick brown fox jumsp over the lazy dgo and keeps runing far awya"

#: The edge-case corpus; every ordered pair is scored, nulls included.
VALUE_CORPUS = [
    # digit, signed and exponent strings
    "42", "+42", "-42", "042", " 42 ", "3.14", "-0.5", ".5", "1e3", "1E-3", "12,345",
    # boolean literals
    "y", "f", "yes", "no", "0", "1", "TRUE", "\tyes\n",
    # the seven date formats, a near date and non-dates that look like one
    "2005-01-31", "2005/01/31", "31.01.2005", "31/01/2005", "01/31/2005",
    "2005-01-31 12:30:00", "2005-01-31T12:30:00", "2005-02-01",
    "Jan 31 2005", "2005-13-45",
    # null literals and real nulls
    "na", "n/a", "", "NULL", None, float("nan"),
    # padded whitespace, accented text and Unicode digits
    "  Anna   Schmidt ", "Anna Schmidt", "Müller", "Mueller", "Muller", "Café", "CAFE",
    "Zoë Ångström", "١٢٣", "１２３", "²",
    "٢٠٠٥-٠١-٣١",
    # mixed int / float / bool / date cells
    42, 42.0, 3.14, -7, 0, 1, True, False, float("inf"),
    datetime.date(2005, 1, 31), datetime.datetime(2005, 1, 31, 8, 0, 0),
    # multi-token strings and strings longer than 64 characters
    "john smith", "smith john", "J. Smith", "Freie Universitaet Berlin",
    "Humboldt-Universitaet zu Berlin", "anna.schmidt@example.com",
    LONG_TEXT, LONG_TYPO, LONG_TEXT + " " + LONG_TEXT,
]


def _check_or_update(name, actual):
    path = FIXTURE_DIR / f"{name}.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=0, ensure_ascii=True) + "\n")
        pytest.skip(f"{path.name} regenerated; review and commit the diff")
    expected = json.loads(path.read_text())
    for key in expected:
        if key == "similarities":
            continue
        assert actual[key] == expected[key], f"{name}: {key} changed"
    drifted = [
        k for k, (got, want) in enumerate(zip(actual["similarities"], expected["similarities"]))
        if got != want
    ]
    assert len(actual["similarities"]) == len(expected["similarities"])
    assert not drifted, (
        f"{name}: {len(drifted)} pair scores drifted from the frozen fixture "
        f"(first at position {drifted[0]}: {actual['similarities'][drifted[0]]} "
        f"!= {expected['similarities'][drifted[0]]})"
    )


# -- datasets --------------------------------------------------------------------


def _combined(sources, labels):
    """The outer union of *sources*, each column renamed to its canonical name.

    *labels* maps canonical attribute → {source alias: that source's label}.
    """
    renamed = []
    for source in sources:
        mapping = {
            by_source[source.name]: canonical
            for canonical, by_source in labels.items()
            if by_source.get(source.name, canonical) != canonical
        }
        renamed.append(source.rename_columns(mapping))
    return outer_union(renamed)


GOLDEN_LABELS = {
    "name": {"crm": "name", "shop": "client_name"},
    "age": {"crm": "age", "shop": "years"},
    "city": {"crm": "city", "shop": "town"},
    "email": {"crm": "email", "shop": "mail"},
}


def _golden():
    sources = [
        CsvSource(GOLDEN_CSV_DIR / "crm_customers.csv", name="crm").load(),
        CsvSource(GOLDEN_CSV_DIR / "shop_clients.csv", name="shop").load(),
    ]
    return sources, GOLDEN_LABELS


def _generated(dataset):
    return dataset.source_list, dataset.truth.attribute_map


DATASETS = {
    "golden": _golden,
    "students": lambda: _generated(
        students_scenario(entity_count=120, corruption=CorruptionConfig.low(), seed=5)
    ),
    "cds": lambda: _generated(
        cd_stores_scenario(
            entity_count=80, store_count=3, corruption=CorruptionConfig.low(), seed=9
        )
    ),
}


def _all_pairs_scores(relation, attributes):
    """Every pair's similarity as ``float.hex``, batched and per pair (must agree)."""
    measure = DuplicateSimilarityMeasure(AttributeSelection(list(attributes))).fit(relation)
    scorer = measure.columnar_scorer(relation)
    count = len(relation)
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    batched = [similarity.hex() for similarity in scorer.similarities(pairs)]
    rows = relation.rows
    per_pair = [measure.explain_rows(rows[i], rows[j]).similarity.hex() for i, j in pairs]
    assert batched == per_pair
    return batched


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_all_pairs_scores_match_the_frozen_fixture(dataset):
    sources, labels = DATASETS[dataset]()
    relation = _combined(sources, labels)
    attributes = list(labels)
    batched = _all_pairs_scores(relation, attributes)
    _check_or_update(
        dataset,
        {
            "attributes": attributes,
            "tuples": len(relation),
            "pairs": len(batched),
            "similarities": batched,
        },
    )


@pytest.mark.parametrize("dataset", sorted(DATASETS) + ["values"])
def test_cell_scores_are_symmetric_bit_for_bit(dataset):
    """The batch scorer memoises one entry per unordered cell pair, which is
    exact only if every cell pair of an attribute scores the same bits, and
    gets the same weight, in both orders."""
    if dataset == "values":
        relation = Relation(["value"], [(cell,) for cell in VALUE_CORPUS])
        attributes = ["value"]
    else:
        sources, labels = DATASETS[dataset]()
        relation, attributes = _combined(sources, labels), list(labels)
    measure = DuplicateSimilarityMeasure(AttributeSelection(attributes)).fit(relation)
    scorer = measure.columnar_scorer(relation)
    for slot, (attribute, values, _, _) in enumerate(scorer._attributes):
        for left in range(len(values)):
            for right in range(left + 1, len(values)):
                forward = [part.hex() for part in scorer._score_cells(slot, left, right)]
                backward = [part.hex() for part in scorer._score_cells(slot, right, left)]
                assert forward == backward, (attribute, values[left], values[right])


def test_value_similarity_matches_the_frozen_fixture():
    _check_or_update(
        "values",
        {
            "corpus": [repr(value) for value in VALUE_CORPUS],
            "similarities": [
                value_similarity(left, right).hex()
                for left in VALUE_CORPUS
                for right in VALUE_CORPUS
            ],
        },
    )


def test_one_column_corpus_scores_the_same_batched_and_per_pair():
    """The corpus as one column: the scorer's ``(type, value)``-keyed tables
    must keep ``True``, ``1`` and ``1.0`` apart and score unhashable cells
    directly, exactly as the per-pair path does."""
    cells = VALUE_CORPUS + [["an", "unhashable", "cell"], ["an", "unhashable", "cell"]]
    relation = Relation(["value"], [(cell,) for cell in cells])
    _all_pairs_scores(relation, ["value"])
