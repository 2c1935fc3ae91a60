"""Tests for TF-IDF, SoftTFIDF and the numeric/value similarities."""

import datetime
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.descriptions import AttributeSelection
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.relation import Relation
from repro.engine.types import DataType, coerce
from repro.similarity import (
    SoftTfIdfSimilarity,
    TfIdfSimilarity,
    TfIdfVectorizer,
    cosine_similarity,
    date_similarity,
    levenshtein_similarity,
    numeric_similarity,
    value_similarity,
)


CORPUS = [
    "the beatles abbey road",
    "the beatles white album",
    "miles davis kind of blue",
    "john coltrane blue train",
    "miles davis sketches of spain",
]


class TestCosine:
    def test_identical_vectors(self):
        vector = {"a": 0.6, "b": 0.8}
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vectors(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0


class TestTfIdfVectorizer:
    def test_fit_exposes_vocabulary(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        assert "beatles" in vectorizer.vocabulary
        assert vectorizer.document_count == 5

    def test_transform_is_normalised(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        vector = vectorizer.transform("miles davis kind of blue")
        norm = sum(weight ** 2 for weight in vector.values())
        assert norm == pytest.approx(1.0)

    def test_rare_terms_weigh_more_than_common_ones(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        assert vectorizer.idf("abbey") > vectorizer.idf("the")

    def test_similarity_identical_document(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        assert vectorizer.similarity(CORPUS[0], CORPUS[0]) == pytest.approx(1.0)

    def test_similarity_ranks_related_documents_higher(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        related = vectorizer.similarity("miles davis kind of blue", "miles davis sketches of spain")
        unrelated = vectorizer.similarity("miles davis kind of blue", "the beatles abbey road")
        assert related > unrelated

    def test_empty_document(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        assert vectorizer.transform("") == {}
        assert vectorizer.similarity("", CORPUS[0]) == 0.0

    def test_fit_transform(self):
        vectors = TfIdfVectorizer().fit_transform(CORPUS)
        assert len(vectors) == len(CORPUS)

    def test_unseen_terms_get_default_idf(self):
        vectorizer = TfIdfVectorizer().fit(CORPUS)
        assert vectorizer.idf("zeppelin") > 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(CORPUS), min_size=1, max_size=5),
        st.booleans(),
        st.dictionaries(
            st.sampled_from(sorted(set(" ".join(CORPUS).split())) + ["zeppelin", "queen"]),
            st.integers(1, 4),
            max_size=8,
        ),
    )
    def test_weigh_is_bit_identical_to_the_per_term_idf_expression(
        self, corpus, smooth, counts
    ):
        """``weigh`` reads the fitted IDF table directly; unsmoothed, a term
        in every document weighs 0.0 and an all-zero vector is empty."""
        vectorizer = TfIdfVectorizer(smooth=smooth).fit(corpus)

        def reference(counts):
            if not counts:
                return {}
            vector = {
                term: (1.0 + math.log(frequency)) * vectorizer.idf(term)
                for term, frequency in counts.items()
            }
            norm = math.sqrt(sum(weight * weight for weight in vector.values()))
            if norm == 0.0:
                return {}
            return {term: weight / norm for term, weight in vector.items()}

        def hexed(vector):
            return [(term, weight.hex()) for term, weight in vector.items()]

        assert hexed(vectorizer.weigh(counts)) == hexed(reference(counts))

    def test_facade_without_corpus(self):
        assert TfIdfSimilarity()("abbey road", "abbey road") == pytest.approx(1.0)


class TestSoftTfIdf:
    def test_identical_strings(self):
        measure = SoftTfIdfSimilarity(corpus=CORPUS)
        assert measure("kind of blue", "kind of blue") == pytest.approx(1.0, abs=1e-6)

    def test_typo_tolerance_beats_plain_tfidf(self):
        soft = SoftTfIdfSimilarity(corpus=CORPUS)
        plain = TfIdfSimilarity(corpus=CORPUS)
        left, right = "miles davis", "miles daviss"
        assert soft(left, right) > plain(left, right)

    def test_symmetry(self):
        measure = SoftTfIdfSimilarity(corpus=CORPUS)
        assert measure("abbey road", "abbey rd road") == pytest.approx(
            measure("abbey rd road", "abbey road")
        )

    def test_unrelated_strings_score_low(self):
        measure = SoftTfIdfSimilarity(corpus=CORPUS)
        assert measure("abbey road", "kind of blue") < 0.3

    def test_empty_strings(self):
        measure = SoftTfIdfSimilarity(corpus=CORPUS)
        assert measure("", "") == 1.0
        assert measure("abbey road", "") == 0.0

    def test_threshold_controls_fuzzy_credit(self):
        lenient = SoftTfIdfSimilarity(corpus=CORPUS, threshold=0.7)
        strict = SoftTfIdfSimilarity(corpus=CORPUS, threshold=0.99)
        assert lenient("beatles", "beatels") >= strict("beatles", "beatels")

    def test_lazy_fit_without_corpus(self):
        assert SoftTfIdfSimilarity()("abc", "abc") == pytest.approx(1.0, abs=1e-6)


class TestNumericAndValueSimilarity:
    def test_numeric_identical(self):
        assert numeric_similarity(5, 5.0) == 1.0

    def test_numeric_relative(self):
        assert numeric_similarity(10, 9) == pytest.approx(0.9)
        assert numeric_similarity(10, 0) == 0.0

    def test_numeric_scale_decay(self):
        close = numeric_similarity(100, 101, scale=10)
        far = numeric_similarity(100, 150, scale=10)
        assert close > 0.9
        assert far < 0.01

    def test_numeric_with_nulls(self):
        assert numeric_similarity(None, 5) == 0.0

    def test_date_similarity(self):
        day = datetime.date(2005, 1, 1)
        assert date_similarity(day, day) == 1.0
        assert date_similarity(day, datetime.date(2005, 1, 11)) == pytest.approx(1 - 10 / 365)
        assert date_similarity(day, "2004-12-31") > 0.99
        assert date_similarity(day, "garbage") == 0.0

    def test_value_similarity_nulls(self):
        assert value_similarity(None, None) == 1.0
        assert value_similarity(None, "x") == 0.0

    def test_value_similarity_numbers(self):
        assert value_similarity(10, 10) == 1.0
        assert value_similarity(10, 11) == pytest.approx(1 - 1 / 11)

    def test_value_similarity_strings_case_insensitive(self):
        assert value_similarity("Abbey Road", "abbey road") == 1.0

    def test_value_similarity_multiword_uses_hybrid(self):
        assert value_similarity("john smith", "smith john") > 0.9

    def test_value_similarity_booleans(self):
        assert value_similarity(True, True) == 1.0
        assert value_similarity(True, False) == 0.0

    @pytest.mark.parametrize(
        "left, right", [("yes", "TRUE"), (True, "yes"), ("yes", "\tyes\n"), ("f", False)]
    )
    def test_equal_booleans_spelled_differently_agree(self, left, right):
        # both cells parse to one truth value, so they are not a contradiction
        assert value_similarity(left, right) == 1.0
        assert value_similarity(left, not coerce(right, DataType.BOOLEAN)) == 0.0
        relation = Relation(["active"], [(left,), (right,)])
        measure = DuplicateSimilarityMeasure(AttributeSelection(["active"])).fit(relation)
        evidence = measure.explain_rows(*relation.rows)
        assert evidence.matched_attributes == ["active"]
        assert evidence.contradicting_attributes == []

    @pytest.mark.parametrize(
        "left, right",
        [("1", "yes"), ("0", "no"), (1, True), (1.0, True), ("1", "TRUE"), (0, "f")],
    )
    def test_a_boolean_and_its_0_or_1_number_agree(self, left, right):
        # both cells have one truth value, so they are not a contradiction
        assert value_similarity(left, right) == value_similarity(right, left) == 1.0
        relation = Relation(["active"], [(left,), (right,)])
        measure = DuplicateSimilarityMeasure(AttributeSelection(["active"])).fit(relation)
        scorer = measure.columnar_scorer(relation)
        assert scorer.similarities([(0, 1)]) == [measure.compare_rows(*relation.rows)] == [1.0]

    def test_a_boolean_against_another_number(self):
        assert value_similarity("1", "no") == 0.0
        assert value_similarity(0, True) == 0.0
        # 2 has no truth value: the pair is still compared as text
        assert value_similarity("2", "yes") == levenshtein_similarity("2", "yes")
        # two numbers stay numbers
        assert value_similarity("1", 1.0) == 1.0
        assert value_similarity("0", "1") == numeric_similarity(0.0, 1.0)

    def test_an_int_beyond_float_range_is_compared_as_text(self):
        huge = 10**400
        assert value_similarity(huge, "abc") == levenshtein_similarity(str(huge), "abc")
        assert value_similarity(huge, huge) == 1.0

    def test_value_similarity_dates(self):
        assert value_similarity(datetime.date(2005, 1, 1), datetime.date(2005, 1, 1)) == 1.0
