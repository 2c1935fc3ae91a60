"""A fitted SoftTF-IDF memoises each value's vector; the memo must change no score.

Every score is compared as ``float.hex`` against a fresh instance that has
never cached anything, so a stale or shared cache entry shows as a bit
difference, not as a tolerance miss.
"""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.relation import Relation
from repro.matching.duplicate_seed import SeedPair
from repro.matching.field_matrix import build_field_matrix
from repro.similarity import SoftTfIdfSimilarity, soft_tfidf
from repro.similarity.jaro import jaro_winkler_bound, jaro_winkler_similarity
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


def unpruned(left, right):
    """The default secondary behind a wrapper, which the bound never prunes."""
    return jaro_winkler_similarity(left, right)


# Near-miss spellings, so many token pairs score around the threshold.
WORDS = ["humboldt", "humbolt", "universitaet", "universitat", "berlin", "berlim",
         "potsdam", "postdam", "freie", "frei", "anna", "ana", "schmidt", "schmitd"]
field = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join), st.text(alphabet="abcdé ", max_size=12)
)


class TestJaroWinklerPruning:
    """Skipping Jaro-Winkler where its bound cannot pass θ changes no score:
    the default secondary (pruned) against the same function behind a
    wrapper (never pruned), compared as ``float.hex``."""

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.lists(field, min_size=1, max_size=6),
        values=st.lists(field, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_compare_and_field_matrices_equal_unpruned(self, corpus, values, data):
        tokens = sorted({token for value in values for token in tokenize(value)})
        observed = [jaro_winkler_similarity(a, b) for a in tokens for b in tokens if a != b]
        # thresholds the secondary attains exactly, where ``>`` decides, and
        # thresholds just below them, which those pairs pass
        below = [math.nextafter(similarity, 0.0) for similarity in observed]
        threshold = data.draw(st.sampled_from(observed + below + [0.9, 0.0]))
        for size in (soft_tfidf.DEFAULT_SECONDARY_CACHE_SIZE, 1, 0):
            pruned = SoftTfIdfSimilarity(corpus, threshold=threshold, secondary_cache_size=size)
            plain = SoftTfIdfSimilarity(
                corpus, secondary=unpruned, threshold=threshold, secondary_cache_size=size
            )
            for _ in range(2):
                for left in values:
                    for right in values:
                        assert pruned.compare(left, right).hex() == (
                            plain.compare(left, right).hex()
                        ), (left, right, threshold)
            assert len(pruned._secondary_cache) <= size and len(pruned._char_sets) <= size
        relation = Relation([f"a{i}" for i in range(len(values))], [tuple(values)])
        seed = SeedPair(0, 0, 1.0)
        pruned = build_field_matrix(relation, relation, seed, SoftTfIdfSimilarity(corpus))
        plain = build_field_matrix(
            relation, relation, seed, SoftTfIdfSimilarity(corpus, secondary=unpruned)
        )
        assert pruned.scores.tobytes() == plain.scores.tobytes()

    def test_a_pair_at_its_bound_just_above_the_threshold(self):
        # "berlin" / "berlim": no transposition and every shared character
        # matched, so the bound is the similarity itself
        similarity = jaro_winkler_similarity("berlin", "berlim")
        assert jaro_winkler_bound("berlin", "berlim") == similarity
        # the pair is close just below its similarity, and not at it
        for threshold, close in ((math.nextafter(similarity, 0.0), True), (similarity, False)):
            pruned = SoftTfIdfSimilarity(CORPUS, threshold=threshold)
            plain = SoftTfIdfSimilarity(CORPUS, secondary=unpruned, threshold=threshold)
            score = pruned.compare("tu berlin", "tu berlim")
            assert score.hex() == plain.compare("tu berlin", "tu berlim").hex()
            assert (score > plain.compare("tu berlin", "tu potsdam")) is close

    def test_pruned_pairs_skip_the_secondary(self, monkeypatch):
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return jaro_winkler_similarity(left, right)

        monkeypatch.setattr(soft_tfidf, "jaro_winkler_similarity", counting)
        measure = SoftTfIdfSimilarity(corpus=CORPUS, secondary=counting)
        score = measure.compare("humboldt universitaet zu berlin", "humbolt universitat berlim")
        # only the near spellings are evaluated; "zu" against "berlim" is not
        assert {frozenset(pair) for pair in calls} == {
            frozenset(pair)
            for pair in [("humboldt", "humbolt"), ("universitaet", "universitat"),
                         ("berlin", "berlim")]
        }
        assert measure._secondary_cache["zu", "berlim"] == 0.0
        assert score.hex() == fresh_score(CORPUS, "humboldt universitaet zu berlin",
                                          "humbolt universitat berlim")
