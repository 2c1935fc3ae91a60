"""Column dictionaries and the per-value readers that use them.

A column's dictionary (``ColumnData.dictionary``) gives two cells one code
only when their class and ``str()`` agree.  The readers that work once per
distinct cell — profiling, the measure's fit, the field corpus, the seed
statistics, the token index and the batch pair scorer — are compared here
against per-cell references over generated columns that mix nulls, signed
zeros, cross-type equal values, dates and Unicode text that normalises
unusually (combining marks, a word-final sigma, the Kelvin sign, the ``fi``
ligature, dotted capital I, sharp s and non-ASCII whitespace).
"""

import datetime
import pickle
from collections import Counter
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.descriptions import AttributeSelection
from repro.dedup.pairs import CandidatePairGenerator
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.columnar import ColumnData
from repro.engine.io.csv_source import relation_from_csv_text, relation_to_csv_text
from repro.engine.relation import Relation
from repro.engine.statistics import profile_relation
from repro.engine.types import is_null
from repro.matching.dumas import field_corpus_counts
from repro.matching.duplicate_seed import compute_seed_statistics, tuple_to_string
from repro.similarity.tfidf import TfIdfVectorizer
from repro.similarity.tokenize import tokenize

LETTERS = list("ab zK0.9-") + [
    "\u0301",  # combining acute accent
    "\u0327",  # combining cedilla
    "\u03a3",  # capital sigma (final after a letter)
    "\u0391",  # capital alpha
    "\u212a",  # Kelvin sign
    "\ufb01",  # fi ligature
    "\u0130",  # capital I with dot above
    "\u00df",  # sharp s
    "\u00e9",  # precomposed e acute
    "\u00a0",  # no-break space
    "\u2003",  # em space
    "\t",
]

CELLS = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.sampled_from(
        [0.0, -0.0, True, False, 1, 1.0, 0, 2.5, Decimal("1.0"), Decimal("1.00")]
    ),
    st.integers(-20, 20),
    st.dates(datetime.date(1999, 12, 30), datetime.date(2000, 1, 2)),
    st.sampled_from(["1", "1.0", "-0.0", "0.0", "true", "2000-01-01", "0.0x"]),
    st.text(alphabet=st.sampled_from(LETTERS), max_size=7),
)


#: Cells that compare equal (or hash alike) but print differently.
CONFUSABLE = [
    (),
    (0.0, -0.0),
    (True, 1, 1.0),
    (Decimal("1.0"), Decimal("1.00")),
    (0, False, -0.0),
    (1, "1"),
]


@st.composite
def relations(draw):
    """1–3 columns of up to 9 rows, each drawing its cells from a small pool
    (seeded with a group of confusable cells) so that equal and
    equal-but-differently-printed cells repeat."""
    width = draw(st.integers(1, 3))
    height = draw(st.integers(0, 9))
    columns = {}
    for position in range(width):
        pool = draw(st.lists(CELLS, min_size=1, max_size=4))
        pool += draw(st.sampled_from(CONFUSABLE))
        columns[f"c{position}"] = draw(
            st.lists(st.sampled_from(pool), min_size=height, max_size=height)
        )
    return Relation.from_columns(columns, infer_types=False)


#: Text cells for the upper-bound filter: ``""`` and ``"   "`` both give only
#: the ``"   "`` trigram, and lower-casing changes some non-ASCII lengths.
FILTER_TEXTS = ["", "   ", "\t", "abc", "ab abc", "M\u00fcller", "M\u00dcLLER", "\u0130stanbul",
                "stra\u00dfe", "\u03a9\u03bc\u03ad\u03b3\u03b1", "\u65e5\u672c\u8a9e"]

#: CSV spellings, one list per column type, whose typed cells print
#: otherwise: ``007`` loads as 7, ``1.50`` as 1.5, ``yes`` as True and
#: ``02.01.2000`` as a date printed ``2000-01-02``; ``""`` loads as null.
CSV_SPELLINGS = [
    ["007", "+3", "7", ""],
    ["1.50", "2.0", "-0.0", "1e3", ""],
    ["TRUE", "yes", "F", "no", ""],
    ["02.01.2000", "2000/01/02", "01/13/2000", ""],
]


@st.composite
def filter_relations(draw):
    """1–3 text columns drawing from one shared pool, so one cell (and its
    trigrams) recurs in two attributes of a row, beside up to 2 typed columns
    loaded from CSV text; at times an all-null row at the end."""
    height = draw(st.integers(1, 8))
    texts = st.one_of(
        st.none(),
        st.sampled_from(FILTER_TEXTS),
        st.text(alphabet=st.sampled_from(LETTERS), max_size=7),
    )
    pool = draw(st.lists(texts, min_size=1, max_size=5))
    columns = {
        f"t{position}": draw(st.lists(st.sampled_from(pool), min_size=height, max_size=height))
        for position in range(draw(st.integers(1, 3)))
    }
    spelled = {
        f"c{kind}": draw(
            st.lists(st.sampled_from(CSV_SPELLINGS[kind]), min_size=height, max_size=height)
        )
        for kind in draw(st.sets(st.integers(0, len(CSV_SPELLINGS) - 1), max_size=2))
    }
    if spelled:
        text = relation_to_csv_text(Relation.from_columns(spelled, infer_types=False))
        loaded = relation_from_csv_text(text)
        columns.update((name, list(loaded.column(name))) for name in spelled)
    if draw(st.booleans()):
        for values in columns.values():
            values.append(None)
    return Relation.from_columns(columns, infer_types=False)


def same_cell(left, right) -> bool:
    return type(left) is type(right) and str(left) == str(right)


def non_null(relation, name):
    return [value for value in relation.column(name) if not is_null(value)]


PROPERTY = settings(max_examples=120, deadline=None)


class TestDictionary:
    @PROPERTY
    @given(relations())
    def test_codes_counts_and_first_seen_order(self, relation):
        for name in relation.column_names:
            values, counts, codes = relation.dictionary(name)
            mask = relation.null_mask(name)
            column = relation.column(name)
            assert [code == -1 for code in codes] == [flag == 1 for flag in mask]
            for cell, code in zip(column, codes):
                if code >= 0:
                    assert same_cell(cell, values[code])
            assert sum(counts) == mask.count(0)
            assert counts == [codes.count(code) for code in range(len(values))]
            first_seen = []
            for cell in non_null(relation, name):
                if not any(same_cell(cell, seen) for seen in first_seen):
                    first_seen.append(cell)
            assert len(values) == len(first_seen)
            assert all(value is seen for value, seen in zip(values, first_seen))

    def test_equal_cells_that_print_differently_get_their_own_codes(self):
        column = ColumnData([0.0, -0.0, None, True, 1, 1.0, Decimal("1.0"), Decimal("1.00"), 0.0])
        values, counts, codes = column.dictionary
        assert codes == [0, 1, -1, 2, 3, 4, 5, 6, 0]
        assert counts == [2, 1, 1, 1, 1, 1, 1]
        assert [str(value) for value in values] == [
            "0.0", "-0.0", "True", "1", "1.0", "1.0", "1.00"
        ]

    def test_unhashable_cells_are_encoded(self):
        values, counts, codes = ColumnData([["a"], ["a"], {"k": 1}]).dictionary
        assert codes == [0, 0, 1] and counts == [2, 1] and values == [["a"], {"k": 1}]

    def test_cached_and_shared_with_derived_relations(self):
        relation = Relation.from_columns({"a": ["x", "y", "x"], "b": [1, None, 1]})
        dictionary = relation.dictionary("a")
        assert relation.dictionary("a") is dictionary
        assert relation.project(["a"]).dictionary("a") is dictionary
        assert relation.rename_columns({"a": "z"}).dictionary("z") is dictionary

    def test_rebuilt_after_in_place_growth_and_not_pickled(self):
        column = ColumnData(["x", None])
        assert column.dictionary[2] == [0, -1]
        column.values.append("y")
        assert column.dictionary == (["x", "y"], [1, 1], [0, -1, 1])
        restored = pickle.loads(pickle.dumps(column))
        assert restored._dictionary is None
        assert restored.dictionary == column.dictionary

    def test_integers_are_keyed_by_value(self):
        values, counts, codes = ColumnData([2**53, 2**53 + 1, float(2**53), 2**53, True, 1]).dictionary
        assert codes == [0, 1, 2, 0, 3, 4] and counts == [2, 1, 1, 1, 1]
        assert [type(value) for value in values] == [int, int, float, bool, int]

    def test_group_keys_cached_and_dropped_with_the_dictionary(self):
        column = ColumnData([10, 10.0, None, "x", 10])
        keys = column.group_keys
        assert keys == [0, 0, -1, 2, 0]
        assert column.group_keys is keys
        column.values.append(10.0)  # grown in place: the dictionary is rebuilt
        assert column.group_keys == [0, 0, -1, 2, 0, 0]
        assert column.group_keys is not keys
        restored = pickle.loads(pickle.dumps(column))
        assert restored._group_keys is None
        assert restored.group_keys == column.group_keys

    def test_group_keys_are_the_codes_when_no_two_codes_share_a_value_key(self):
        column = ColumnData([3, 1, None, 3])
        assert column.group_keys is column.dictionary[2]

    @PROPERTY
    @given(relations())
    def test_distinct_values_read_the_dictionary(self, relation):
        for name in relation.column_names:
            assert relation.distinct_values(name) == relation.dictionary(name)[0]


class TestTokenCache:
    """``ColumnData.tokens``: one word-token list per dictionary code."""

    @PROPERTY
    @given(relations())
    def test_tokens_per_code(self, relation):
        for column in relation.store.columns:
            assert column.tokens == [tokenize(str(value)) for value in column.dictionary[0]]
            assert column.tokens is column.tokens

    def test_rebuilt_after_in_place_growth_and_not_pickled(self):
        column = ColumnData(["Abbey Road", None, "abbey road"])
        tokens = column.tokens
        assert tokens == [["abbey", "road"], ["abbey", "road"]]
        column.values.append("Kind of Blue")  # grown in place: the dictionary is rebuilt
        assert column.tokens == tokens + [["kind", "of", "blue"]]
        assert column.tokens is not tokens
        restored = pickle.loads(pickle.dumps(column))
        assert restored._tokens is None
        assert restored.tokens == column.tokens

    def test_seed_sample_tokenises_only_its_cells(self, monkeypatch):
        import repro.engine.columnar as columnar

        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(columnar, "tokenize", counting)
        relation = Relation.from_columns({"a": [f"cell {i}" for i in range(100)]})
        statistics = compute_seed_statistics(relation, 10)
        assert calls == [f"cell {i}" for i in statistics.indices]
        column = relation.store.columns[0]
        assert column.tokens == [tokenize(f"cell {i}") for i in range(100)]
        assert sorted(calls) == sorted(f"cell {i}" for i in range(100))  # each cell once

    def test_shared_with_derived_relations(self):
        relation = Relation.from_columns({"a": ["x y", "x y", None]})
        tokens = relation.store.columns[0].tokens
        assert relation.project(["a"]).store.columns[0].tokens is tokens


class TestReadersMatchPerCellReferences:
    @PROPERTY
    @given(relations())
    def test_profile_relation(self, relation):
        statistics = profile_relation(relation)
        for name in relation.column_names:
            texts = [str(value) for value in non_null(relation, name)]
            column = statistics.column(name)
            assert column.null_count == len(relation) - len(texts)
            assert column.distinct_count == len(set(texts))
            expected = sum(len(text) for text in texts) / len(texts) if texts else 0.0
            assert column.average_length.hex() == expected.hex()

    @PROPERTY
    @given(relations())
    def test_measure_fit(self, relation):
        names = list(relation.column_names)
        measure = DuplicateSimilarityMeasure(AttributeSelection(names)).fit(relation)
        for name in names:
            frequencies = Counter()
            numbers = []
            for value in non_null(relation, name):
                frequencies[str(value).strip().lower()] += 1
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    numbers.append(float(value))
            assert list(measure._value_frequencies[name].items()) == list(frequencies.items())
            scale = None
            if len(numbers) >= 2 and max(numbers) - min(numbers) > 0:
                scale = (max(numbers) - min(numbers)) * measure.numeric_range_fraction
            assert measure._numeric_scales.get(name) == scale

    @PROPERTY
    @given(relations())
    def test_field_corpus(self, relation):
        # one document per non-null cell, column by column, terms in order
        names = relation.column_names
        corpus = [str(value) for name in names for value in non_null(relation, name)]
        frequency, count = field_corpus_counts(relation)
        expected = Counter()
        for document in corpus:
            for term in dict.fromkeys(tokenize(document)):
                expected[term] += 1
        assert list(frequency.items()) == list(expected.items())
        assert count == len(corpus)
        fitted = TfIdfVectorizer().fit(corpus)
        counted = TfIdfVectorizer().fit_counts(frequency, count)
        assert counted.document_count == fitted.document_count
        assert counted.vocabulary == fitted.vocabulary
        assert [counted.idf(term).hex() for term in fitted.vocabulary] == [
            fitted.idf(term).hex() for term in fitted.vocabulary
        ]

    @PROPERTY
    @given(relations(), st.sampled_from([None, 1, 3]))
    def test_seed_statistics(self, relation, limit):
        statistics = compute_seed_statistics(relation, limit)
        rows = relation.rows
        frequency = {}
        assert statistics.document_count == len(statistics.indices)
        for position, index in enumerate(statistics.indices):
            expected = {}
            for token in tokenize(tuple_to_string(rows[index])):
                expected[token] = expected.get(token, 0) + 1
            assert list(statistics.document(position).items()) == list(expected.items())
            for term in expected:
                frequency[term] = frequency.get(term, 0) + 1
        assert list(statistics.document_frequency.items()) == list(frequency.items())
        assert statistics.vocabulary == list(frequency)

    @PROPERTY
    @given(relations(), st.sampled_from([None, 2]))
    def test_token_index(self, relation, qgram):
        strategy = TokenBlocking(qgram=qgram, min_token_length=1)
        names = list(relation.column_names)
        expected = {}
        for row_index, row in enumerate(relation.rows):
            row_tokens = {}
            for value in row:
                if not is_null(value):
                    row_tokens.update(dict.fromkeys(sorted(strategy.tokens(value))))
            for token in row_tokens:
                expected.setdefault(token, []).append(row_index)
        assert list(strategy.build_index(relation, names).items()) == list(expected.items())

    @PROPERTY
    @given(relations())
    def test_batch_scorer(self, relation):
        selection = AttributeSelection(list(relation.column_names))
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        count = len(relation)
        pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
        rows = relation.rows
        scorer = measure.columnar_scorer(relation)
        assert [similarity.hex() for similarity in scorer.similarities(pairs)] == [
            measure.compare_rows(rows[i], rows[j]).hex() for i, j in pairs
        ]
        assert scorer.explain(pairs) == [measure.explain_rows(rows[i], rows[j]) for i, j in pairs]
        bounds = []
        for i, j in pairs:
            fresh = DuplicateSimilarityMeasure(selection).fit(relation)
            bounds.append(fresh.upper_bound(rows[i], rows[j]).hex())
        assert [scorer.upper_bound(i, j).hex() for i, j in pairs] == bounds


class TestFilterBitmasks:
    """The batch scorer's upper-bound filter (per-row trigram bitmasks over a
    bit table of the scorer's own) against the per-pair reference."""

    @PROPERTY
    @given(filter_relations(), st.data())
    def test_bounds_survivors_and_soft_idfs(self, relation, data):
        measure = DuplicateSimilarityMeasure(AttributeSelection(relation.column_names))
        measure.fit(relation)
        rows = relation.rows
        count = len(relation)
        pairs = [(i, j) for i in range(count) for j in range(count) if i != j]
        bounds = [measure.upper_bound(rows[i], rows[j]) for i, j in pairs]
        scorer = measure.columnar_scorer(relation)
        assert [scorer.upper_bound(i, j).hex() for i, j in pairs] == [
            bound.hex() for bound in bounds
        ]
        # a threshold that some pair's bound equals exactly
        threshold = data.draw(st.sampled_from(bounds)) if bounds else 0.6
        candidates = [pair for pair in pairs if pair[0] < pair[1]]
        survivors = [
            pair for pair, bound in zip(pairs, bounds) if pair[0] < pair[1] and bound >= threshold
        ]
        made, build = [], measure.columnar_scorer

        def columnar_scorer(scored):  # keep the scorer the executor builds
            made.append(build(scored))
            return made[-1]

        measure.columnar_scorer = columnar_scorer
        for use_filter in (True, False):
            generator = CandidatePairGenerator(
                measure, filter_threshold=threshold, use_filter=use_filter
            )
            scores = generator.score_pairs(relation)
            expected = survivors if use_filter else candidates
            assert [(score.left_index, score.right_index) for score in scores] == expected
            # the soft IDF reads the per-code text table the filter fills
            scorer = made.pop()
            for slot, (attribute, values, _, _) in enumerate(scorer._attributes):
                for code, idf in enumerate(scorer._idfs[slot]):
                    if idf is not None:
                        assert idf.hex() == measure.soft_idf(attribute, values[code]).hex()

    def test_overlap_exactly_at_the_threshold_survives(self):
        # rows 0 and 1 share 3 of their 10 trigrams: 3 / 10 + 0.3 == 0.6;
        # rows 0 and 2 share 2 (0.5), rows 1 and 2 share 7 (1.0)
        relation = Relation.from_columns({"a": ["abcdefghi", "abcxyzuvw", "abqxyzuvw"]})
        measure = DuplicateSimilarityMeasure(AttributeSelection(["a"])).fit(relation)
        assert measure.columnar_scorer(relation).upper_bound(0, 1) == 0.6
        generator = CandidatePairGenerator(measure, filter_threshold=0.6)
        scores = generator.score_pairs(relation)
        assert [score.as_tuple() for score in scores] == [(0, 1), (1, 2)]
        assert generator.statistics.pruned == 1

    def test_scorers_share_no_bit_table(self):
        relation = Relation.from_columns({"a": ["abc", "xyz"], "b": ["xyz", None]})
        measure = DuplicateSimilarityMeasure(AttributeSelection(["a", "b"])).fit(relation)
        first = measure.columnar_scorer(relation)
        second = measure.columnar_scorer(relation)
        reference = measure.upper_bound(*relation.rows)
        assert first.upper_bound(0, 1) == second.upper_bound(1, 0) == reference
        assert first._bits is not second._bits
        # each table numbers the trigrams in the order its own scorer met them
        assert set(first._bits) == set(second._bits)
        assert list(first._bits) != list(second._bits)
