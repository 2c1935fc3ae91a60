"""Property-based tests (hypothesis) for the similarity substrate."""

import itertools
import re
import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    ngram_similarity,
    normalize_text,
)
from repro.similarity import monge_elkan
from repro.similarity.jaro import jaro_winkler_bound
from repro.similarity.monge_elkan import TokenPairTable, monge_elkan_tokens
from repro.similarity.tfidf import TfIdfVectorizer

text = st.text(alphabet=string.ascii_letters + string.digits + " ", max_size=30)


def dp_levenshtein(left, right):
    """The two-row dynamic program: the oracle for the bit-parallel distance."""
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def nested_loop_jaro(left, right):
    """Jaro with the window scanned cell by cell: the oracle for ``str.find`` matching."""
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0
    match_window = max(max(len_left, len_right) // 2 - 1, 0)
    left_matched = [False] * len_left
    right_matched = [False] * len_right
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_right)
        for j in range(start, end):
            if right_matched[j] or right[j] != char:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_left):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_left + matches / len_right + (matches - transpositions) / matches
    ) / 3.0


def nested_loop_jaro_winkler(left, right):
    """Jaro-Winkler (scale 0.1, prefix at most 4) over :func:`nested_loop_jaro`."""
    base = nested_loop_jaro(left, right)
    prefix = 0
    for l_char, r_char in zip(left[:4], right[:4]):
        if l_char != r_char:
            break
        prefix += 1
    return base + prefix * 0.1 * (1.0 - base)


# A small non-ASCII alphabet keeps characters recurring, so distances are
# neither trivially 0 nor trivially the longer length; lengths 0-150 cross
# the 64- and 128-bit boundaries of the bit vectors.
NON_ASCII = "aäbéß ǘ中\u0301"
long_text = st.integers(min_value=0, max_value=150).flatmap(
    lambda size: st.text(alphabet=NON_ASCII, min_size=size, max_size=size)
)


@st.composite
def edited_pair(draw):
    """A string and a copy with a few random insertions, deletions and substitutions."""
    source = draw(long_text)
    edited = list(source)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        position = draw(st.integers(min_value=0, max_value=len(edited)))
        operation = draw(st.sampled_from(["insert", "delete", "substitute"]))
        char = draw(st.sampled_from(NON_ASCII))
        if operation == "insert":
            edited.insert(position, char)
        elif position < len(edited):
            if operation == "delete":
                del edited[position]
            else:
                edited[position] = char
    return source, "".join(edited)


@st.composite
def affixed_pair(draw, alphabet=NON_ASCII):
    """Two strings that share a generated prefix and suffix around distinct middles."""
    part = st.text(alphabet=alphabet, max_size=12)
    prefix, suffix = draw(part), draw(part)
    return prefix + draw(part) + suffix, prefix + draw(part) + suffix


# Few letters, so every character recurs inside the match window.
repeated_letters = st.text(alphabet="aab", max_size=16)


class TestLevenshteinProperties:
    @given(text, text)
    @settings(max_examples=80)
    def test_distance_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(text)
    @settings(max_examples=50)
    def test_distance_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(text, text)
    @settings(max_examples=80)
    def test_distance_bounded_by_longer_string(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(text, text, text)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(text, text)
    @settings(max_examples=80)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0


class TestLevenshteinOracle:
    """The bit-parallel distance equals the dynamic program at every length."""

    @given(long_text, long_text)
    @settings(max_examples=150, deadline=None)
    def test_independent_strings(self, a, b):
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b)

    @given(edited_pair())
    @settings(max_examples=150, deadline=None)
    def test_edited_copies(self, pair):
        a, b = pair
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
        assert levenshtein_distance(b, a) == dp_levenshtein(a, b)

    @given(affixed_pair())
    @settings(max_examples=200, deadline=None)
    def test_shared_prefixes_and_suffixes(self, pair):
        a, b = pair
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
        assert levenshtein_distance(b, a) == dp_levenshtein(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [
            ("aaa", "aaaa"),  # the prefix and the suffix would overlap
            ("abcab", "ab"),
            ("x@example.edu", "y@example.edu"),
            ("anna.schmidt@example.edu", "anna.schmitd@example.edu"),
        ],
    )
    def test_affixes_that_overlap_or_cover_a_side(self, a, b):
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
        assert levenshtein_distance(b, a) == dp_levenshtein(a, b)

    @pytest.mark.parametrize("size", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, size):
        a = ("abcä" * 40)[:size]
        b = a[1:] + "ß"
        assert levenshtein_distance(a, b) == dp_levenshtein(a, b) == 2
        assert levenshtein_distance(a, "") == size


class TestJaroOracle:
    """``str.find`` matching gives the nested-loop Jaro's float, bit for bit."""

    @given(st.text(max_size=24), st.text(max_size=24))
    @settings(max_examples=300)
    def test_unicode_text(self, a, b):
        assert jaro_similarity(a, b).hex() == nested_loop_jaro(a, b).hex()
        assert jaro_winkler_similarity(a, b).hex() == nested_loop_jaro_winkler(a, b).hex()

    @given(repeated_letters, repeated_letters)
    @settings(max_examples=300)
    def test_repeated_letters(self, a, b):
        assert jaro_similarity(a, b).hex() == nested_loop_jaro(a, b).hex()
        assert jaro_winkler_similarity(a, b).hex() == nested_loop_jaro_winkler(a, b).hex()

    @given(affixed_pair(alphabet="abcä "))
    @settings(max_examples=300)
    def test_shared_prefixes_and_suffixes(self, pair):
        a, b = pair
        assert jaro_similarity(a, b).hex() == nested_loop_jaro(a, b).hex()
        assert jaro_winkler_similarity(a, b).hex() == nested_loop_jaro_winkler(a, b).hex()

    def test_jaro_winkler_is_symmetric_bit_for_bit(self):
        # Every ordered pair of {a,b}-strings up to length 7 and of
        # {a,b,c}-strings up to length 4: the memo tables store one result
        # under both orientations on the strength of this.
        def strings(alphabet, longest):
            for size in range(longest + 1):
                for letters in itertools.product(alphabet, repeat=size):
                    yield "".join(letters)

        for alphabet, longest in (("ab", 7), ("abc", 4)):
            words = list(strings(alphabet, longest))
            for a in words:
                for b in words:
                    assert jaro_winkler_similarity(a, b).hex() == (
                        jaro_winkler_similarity(b, a).hex()
                    ), (a, b)


class TestJaroWinklerBound:
    """The character-set bound SoftTFIDF skips Jaro-Winkler by is never below it."""

    @staticmethod
    def check(a, b):
        similarity = jaro_winkler_similarity(a, b)
        assert jaro_winkler_bound(a, b) >= similarity, (a, b)
        # the memoised character sets give the same bound, in either order
        bound = jaro_winkler_bound(a, b, frozenset(a), frozenset(b))
        assert bound.hex() == jaro_winkler_bound(b, a).hex() == jaro_winkler_bound(a, b).hex()

    @given(st.text(max_size=24), st.text(max_size=24))
    @settings(max_examples=300)
    def test_unicode_text(self, a, b):
        self.check(a, b)

    @given(st.text(alphabet=NON_ASCII, max_size=16), st.text(alphabet=NON_ASCII, max_size=16))
    @settings(max_examples=300)
    def test_non_ascii_text(self, a, b):
        self.check(a, b)

    @given(repeated_letters, repeated_letters)
    @settings(max_examples=300)
    def test_repeated_letters(self, a, b):
        self.check(a, b)

    @given(affixed_pair(alphabet="abcä "))
    @settings(max_examples=300)
    def test_long_common_prefixes(self, pair):
        self.check(*pair)

    @given(edited_pair())
    @settings(max_examples=200)
    def test_edited_copies(self, pair):
        self.check(*pair)

    def test_empty_and_equal_strings(self):
        for a, b in (("", ""), ("", "abc"), ("abc", ""), ("abc", "abc"), ("é", "é")):
            self.check(a, b)
        assert jaro_winkler_bound("abc", "abc") == 1.0
        assert jaro_winkler_bound("", "") == 1.0
        assert jaro_winkler_bound("abc", "xyz") == 0.0


class TestMongeElkanTokenTable:
    """The Jaro-Winkler token-pair table (fresh, or shared and already
    filled) gives the same floats as a secondary of the caller's own, which
    is evaluated for every token pair."""

    @given(
        st.lists(st.text(alphabet="abcé", min_size=1, max_size=6), max_size=6),
        st.lists(st.text(alphabet="abcé", min_size=1, max_size=6), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_table_equals_generic_path(self, left, right, symmetric):
        expected = monge_elkan_tokens(
            left, right, lambda a, b: jaro_winkler_similarity(a, b), symmetric=symmetric
        ).hex()
        assert monge_elkan_tokens(left, right, symmetric=symmetric).hex() == expected
        table = TokenPairTable()
        for _ in range(2):  # the second call reads every pair from the table
            assert monge_elkan_tokens(left, right, symmetric=symmetric, table=table).hex() == (
                expected
            )

    def test_one_evaluation_per_unordered_pair(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return jaro_winkler_similarity(a, b)

        monkeypatch.setattr(monge_elkan, "jaro_winkler_similarity", counting)
        table = TokenPairTable()
        monge_elkan_tokens(["anna", "schmidt"], ["schmidt", "berlin"], table=table)
        monge_elkan_tokens(["berlin", "anna"], ["anna", "schmidt"], table=table)
        # the second call evaluates only ("anna", "anna"); the rest it reads
        assert calls == [("anna", "schmidt"), ("anna", "berlin"), ("schmidt", "schmidt"),
                         ("schmidt", "berlin"), ("anna", "anna")]


def nfkd_normalize_text(text):
    """``normalize_text`` without its ASCII fast path: the oracle."""
    decomposed = unicodedata.normalize("NFKD", str(text))
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.sub(r"\s+", " ", stripped.lower()).strip()


class TestNormalizeTextOracle:
    @given(st.one_of(st.text(max_size=40), st.text(alphabet=string.printable, max_size=40)))
    @settings(max_examples=300)
    def test_matches_the_always_decomposing_form(self, value):
        assert normalize_text(value) == nfkd_normalize_text(value)

    def test_non_text_cells(self):
        for value in (42, 3.5, True, None):
            assert normalize_text(value) == ("" if value is None else nfkd_normalize_text(value))


class TestBoundedSymmetricMeasures:
    @given(text, text, text, st.sampled_from([(0.1, 4), (0.25, 4), (0.5, 2), (1.0, 1)]))
    @settings(max_examples=100)
    def test_jaro_winkler_bounds_and_symmetry(self, prefix, a, b, boost):
        # The default boost and the largest valid ones, over shared prefixes.
        prefix_scale, max_prefix = boost
        forward = jaro_winkler_similarity(prefix + a, prefix + b, prefix_scale, max_prefix)
        backward = jaro_winkler_similarity(prefix + b, prefix + a, prefix_scale, max_prefix)
        assert 0.0 <= forward <= 1.0
        assert forward.hex() == backward.hex()

    @given(text, text)
    @settings(max_examples=60)
    def test_ngram_bounds_and_symmetry(self, a, b):
        forward = ngram_similarity(a, b)
        assert 0.0 <= forward <= 1.0
        assert abs(forward - ngram_similarity(b, a)) < 1e-9

    @given(text, text)
    @settings(max_examples=60)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        forward = jaccard_similarity(a, b)
        assert 0.0 <= forward <= 1.0
        assert abs(forward - jaccard_similarity(b, a)) < 1e-9

    @given(text)
    @settings(max_examples=40)
    def test_self_similarity_is_one(self, a):
        assert jaccard_similarity(a, a) == 1.0
        assert ngram_similarity(a, a) == 1.0
        assert monge_elkan_similarity(a, a) == 1.0


class TestTfIdfProperties:
    @given(st.lists(text, min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_vectors_are_unit_length_or_empty(self, corpus):
        vectorizer = TfIdfVectorizer().fit(corpus)
        for document in corpus:
            vector = vectorizer.transform(document)
            if vector:
                norm = sum(weight ** 2 for weight in vector.values())
                assert abs(norm - 1.0) < 1e-9

    @given(st.lists(text, min_size=2, max_size=8))
    @settings(max_examples=40)
    def test_self_similarity_is_maximal(self, corpus):
        vectorizer = TfIdfVectorizer().fit(corpus)
        for document in corpus:
            if vectorizer.transform(document):
                assert vectorizer.similarity(document, document) > 0.999
