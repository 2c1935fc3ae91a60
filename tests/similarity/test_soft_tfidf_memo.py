"""A fitted SoftTF-IDF memoises each value's vector; the memo must change no score.

Every score is compared as ``float.hex`` against a fresh instance that has
never cached anything, so a stale or shared cache entry shows as a bit
difference, not as a tolerance miss.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.similarity import SoftTfIdfSimilarity
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
