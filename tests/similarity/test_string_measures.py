"""Tests for the character- and token-level string similarity measures."""

import pytest

from repro.similarity import (
    JaccardSimilarity,
    JaroWinklerSimilarity,
    LevenshteinSimilarity,
    MongeElkanSimilarity,
    NgramSimilarity,
    dice_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    ngram_similarity,
    normalize_text,
    qgrams,
    tokenize,
)


class TestTokenize:
    def test_normalize_lowercases_and_strips_accents(self):
        assert normalize_text("  Müller   GmbH ") == "muller gmbh"

    def test_normalize_none(self):
        assert normalize_text(None) == ""

    def test_tokenize_alphanumeric(self):
        assert tokenize("Abbey Road (1969)!") == ["abbey", "road", "1969"]

    def test_qgrams_padding(self):
        grams = qgrams("ab", size=3)
        assert "##a" in grams
        assert "b##" in grams

    def test_qgrams_empty(self):
        assert qgrams("") == []

    def test_qgrams_unpadded_short_string(self):
        assert qgrams("ab", size=3, pad=False) == ["ab"]


class TestLevenshtein:
    def test_distance_identical(self):
        assert levenshtein_distance("kitten", "kitten") == 0

    def test_distance_classic_example(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_distance_empty_strings(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3
        assert levenshtein_distance("", "") == 0

    def test_distance_symmetry(self):
        assert levenshtein_distance("flaw", "lawn") == levenshtein_distance("lawn", "flaw")

    def test_similarity_range_and_identity(self):
        assert levenshtein_similarity("HumMer", "hummer") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0
        assert 0.0 < levenshtein_similarity("hummer", "hammer") < 1.0

    def test_similarity_both_empty(self):
        assert levenshtein_similarity("", "") == 1.0

    def test_object_wrapper(self):
        assert LevenshteinSimilarity()("same", "same") == 1.0
        # without normalisation, case matters
        assert LevenshteinSimilarity(normalize=False)("ABC", "abc") == 0.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_no_match(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("dixon", "dicksonx")
        boosted = jaro_winkler_similarity("dixon", "dicksonx")
        assert boosted > plain

    def test_winkler_classic_value(self):
        assert jaro_winkler_similarity("dixon", "dicksonx") == pytest.approx(0.813, abs=1e-3)

    def test_winkler_bounded_by_one(self):
        assert jaro_winkler_similarity("aaaa", "aaaa") == 1.0

    def test_object_wrapper_normalises(self):
        assert JaroWinklerSimilarity()("MARTHA", "martha") == 1.0

    @pytest.mark.parametrize(
        "prefix_scale,max_prefix", [(0.3, 4), (-0.1, 4), (0.6, 2), (float("nan"), 4), (0.1, -1)]
    )
    def test_winkler_rejects_a_boost_past_one(self, prefix_scale, max_prefix):
        # prefix_scale 0.3 would score "abcdx" / "abcdy" at 1.0267.
        with pytest.raises(ValueError, match="prefix_scale"):
            jaro_winkler_similarity(
                "abcdx", "abcdy", prefix_scale=prefix_scale, max_prefix=max_prefix
            )

    def test_object_wrapper_rejects_a_boost_past_one_when_built(self):
        with pytest.raises(ValueError, match="prefix_scale"):
            JaroWinklerSimilarity(prefix_scale=0.3)
        with pytest.raises(ValueError, match="prefix_scale"):
            JaroWinklerSimilarity(prefix_scale=-0.1)

    def test_winkler_largest_valid_boost_reaches_one_at_most(self):
        assert JaroWinklerSimilarity(prefix_scale=0.25)("abcdx", "abcdy") <= 1.0
        assert jaro_winkler_similarity("abcdx", "abcdy", prefix_scale=0.5, max_prefix=2) <= 1.0


class TestTokenMeasures:
    def test_ngram_identical_and_disjoint(self):
        assert ngram_similarity("database", "database") == 1.0
        assert ngram_similarity("abc", "xyz") == 0.0

    def test_ngram_partial(self):
        assert 0.0 < ngram_similarity("database", "databases") < 1.0

    def test_ngram_empty(self):
        assert ngram_similarity("", "") == 1.0
        assert ngram_similarity("abc", "") == 0.0

    def test_ngram_object(self):
        assert NgramSimilarity(size=2)("ab", "ab") == 1.0

    def test_jaccard(self):
        assert jaccard_similarity("the beatles", "beatles the") == 1.0
        assert jaccard_similarity("miles davis", "john coltrane") == 0.0
        assert jaccard_similarity("", "") == 1.0
        assert jaccard_similarity("a b", "") == 0.0
        assert JaccardSimilarity()("a b c", "a b d") == pytest.approx(0.5)

    def test_dice(self):
        assert dice_similarity("a b", "a c") == pytest.approx(0.5)
        assert dice_similarity("", "") == 1.0

    def test_monge_elkan_tolerates_word_order_and_typos(self):
        straight = levenshtein_similarity("john smith", "smith john")
        hybrid = monge_elkan_similarity("john smith", "smith john")
        assert hybrid > straight
        assert hybrid > 0.9

    def test_monge_elkan_empty(self):
        assert monge_elkan_similarity("", "") == 1.0
        assert monge_elkan_similarity("abc", "") == 0.0

    def test_monge_elkan_asymmetric_option(self):
        directed = monge_elkan_similarity("john", "john smith", symmetric=False)
        assert directed == pytest.approx(1.0)

    def test_monge_elkan_object_with_custom_secondary(self):
        measure = MongeElkanSimilarity(secondary=LevenshteinSimilarity())
        assert measure("abc def", "abc def") == 1.0


class TestSymmetryAndBounds:
    @pytest.mark.parametrize(
        "function",
        [
            levenshtein_similarity,
            jaro_winkler_similarity,
            ngram_similarity,
            jaccard_similarity,
            monge_elkan_similarity,
        ],
    )
    @pytest.mark.parametrize(
        "left,right",
        [
            ("Humboldt Merger", "HumMer"),
            ("data fusion", "datafusion"),
            ("Trondheim", "Tronheim"),
            ("a", "b"),
        ],
    )
    def test_symmetric_and_bounded(self, function, left, right):
        forward = function(left, right)
        backward = function(right, left)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert 0.0 <= forward <= 1.0
