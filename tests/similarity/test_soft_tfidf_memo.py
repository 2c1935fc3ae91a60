"""A fitted SoftTF-IDF memoises each value's vector; the memo must change no score.

Every score is compared as ``float.hex`` against a fresh instance that has
never cached anything, so a stale or shared cache entry shows as a bit
difference, not as a tolerance miss.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.similarity import SoftTfIdfSimilarity, soft_tfidf
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.tokenize import tokenize

CORPUS = [
    "freie universitaet berlin",
    "humboldt universitaet zu berlin",
    "technische universitaet berlin",
    "universitaet potsdam",
    "",
]

# Heavy on repeats and empties: the values a memo serves from the cache.
LEFT = [
    "freie universitaet berlin",
    "freie universitaet berlin",
    "",
    "humboldt universitaet",
    "freie universitaet berlin",
    "potsdam",
    "",
]
RIGHT = [
    "freie universitat berlin",
    "freie universitat berlin",
    "",
    "humboldt universitaet",
    "tu berlin",
    "potsdam",
    "berlin",
]

# A small alphabet keeps tokens recurring and near-matching across values.
value = st.text(alphabet="abcde ", max_size=14)


def fresh_score(corpus, left, right):
    return SoftTfIdfSimilarity(corpus=corpus).compare(left, right).hex()


def counts_of(corpus):
    """The document-frequency statistics ``fit_counts`` takes for *corpus*."""
    document_frequency = Counter()
    for document in corpus:
        document_frequency.update(set(tokenize(document)))
    return document_frequency, len(corpus)


class TestVectorMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.lists(value, min_size=1, max_size=6),
        values=st.lists(value, min_size=1, max_size=6),
    )
    @example(corpus=CORPUS, values=LEFT + RIGHT)
    def test_memoised_scores_equal_fresh_instance(self, corpus, values):
        measure = SoftTfIdfSimilarity(corpus=corpus)
        for _ in range(2):
            for left in values:
                for right in values:
                    assert measure.compare(left, right).hex() == fresh_score(
                        corpus, left, right
                    ), (left, right)

    def test_refit_drops_memoised_vectors(self):
        corpus_a = ["anna schmidt berlin", "anna weber berlin", "ben mueller"]
        corpus_b = ["berlin", "berlin", "berlin potsdam", "anna", "schmidt"]
        pairs = list(zip(LEFT + ["anna schmidt"], RIGHT + ["anna schmitd berlin"]))

        def scores(measure):
            return [measure.compare(left, right).hex() for left, right in pairs]

        expected = scores(SoftTfIdfSimilarity(corpus=corpus_b))
        assert scores(SoftTfIdfSimilarity(corpus=corpus_a)) != expected

        refitted = SoftTfIdfSimilarity(corpus=corpus_a)
        scores(refitted)
        assert scores(refitted.fit(corpus_b)) == expected

        counted = SoftTfIdfSimilarity(corpus=corpus_a)
        scores(counted)
        assert scores(counted.fit_counts(*counts_of(corpus_b))) == expected

    def test_cache_bounds_score_like_the_default(self):
        pairs = [(left, right) for left in LEFT for right in RIGHT]
        default = SoftTfIdfSimilarity(corpus=CORPUS)
        expected = [default.compare(left, right).hex() for left, right in pairs]
        for size in (1, 0):
            bounded = SoftTfIdfSimilarity(corpus=CORPUS, secondary_cache_size=size)
            for _ in range(2):
                assert [
                    bounded.compare(left, right).hex() for left, right in pairs
                ] == expected, size
            assert len(bounded._vectors) <= size
            assert len(bounded._secondary_cache) <= size


class TestSymmetricSecondaryMemo:
    """Jaro-Winkler is symmetric bit for bit, so one SoftTF-IDF comparison
    evaluates it once per unordered token pair: the reverse ``_directed``
    pass reads what the forward pass stored."""

    def test_one_jaro_winkler_per_unordered_token_pair(self, monkeypatch):
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return jaro_winkler_similarity(left, right)

        # The memo recognises the default secondary by identity.
        monkeypatch.setattr(soft_tfidf, "jaro_winkler_similarity", counting)
        measure = SoftTfIdfSimilarity(corpus=CORPUS, secondary=counting)
        left, right = "humboldt universitaet zu berlin", "humbolt universitat berlim"
        score = measure.compare(left, right)

        unordered = Counter(frozenset(pair) for pair in calls)
        assert calls and set(unordered.values()) == {1}
        # Both orientations were asked for, and the second one was served.
        assert {(b, a) for a, b in calls} <= set(measure._secondary_cache)
        assert score.hex() == fresh_score(CORPUS, left, right)

    def test_a_pluggable_secondary_keeps_one_entry_per_ordered_pair(self):
        def leading(left, right):  # asymmetric on purpose
            return 0.95 if left[:1] == right[:1] and len(left) <= len(right) else 0.0

        measure = SoftTfIdfSimilarity(corpus=CORPUS, secondary=leading)
        uncached = SoftTfIdfSimilarity(corpus=CORPUS, secondary=leading, secondary_cache_size=0)
        pairs = [(left, right) for left in LEFT for right in RIGHT]
        for _ in range(2):
            assert [measure.compare(a, b).hex() for a, b in pairs] == [
                uncached.compare(a, b).hex() for a, b in pairs
            ]
        cache = measure._secondary_cache
        assert all(cache[left, right] == leading(left, right) for left, right in cache)
