"""The blocked, band-checked seed search is exact.

``DuplicateSeeder.find_seeds`` sums an approximate cosine for every
term-sharing pair in bounded numpy blocks and computes the exact cosine only
for the pairs within δ of the k-th best approximate value.  The optimisation
must be invisible: these tests assert that it returns *exactly* the full
scan's seeds — same pairs, same order, bit-identical similarities
(``float.hex``) — on arbitrary generated relations, including the
adversarial cases (ties at the boundary, similarities equal to
``min_similarity``, empty documents, blocks of one row).  The full scan,
:func:`full_scan`, is the reference: the exhaustive loop the seeder ran
before, over documents tokenised straight from ``tuple_to_string``.
"""

import heapq
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.matching.duplicate_seed as duplicate_seed
from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.matching.duplicate_seed import (
    DuplicateSeeder,
    SeedPair,
    SeedScoringStatistics,
    sample_indices,
    tuple_to_string,
)
from repro.similarity.tfidf import TfIdfVectorizer, cosine_similarity, merge_counts
from repro.similarity.tokenize import tokenize

#: Overlapping word pool: shared tokens make candidates plentiful and tie-prone.
WORDS = [
    "anna", "annna", "schmidt", "schmitd", "ben", "mueller",
    "berlin", "hamburg", "weber", "carla", "wolf", "elena",
]

CELL = st.one_of(
    st.none(),
    st.sampled_from(WORDS),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(" ".join),
    st.text(alphabet="abz ", max_size=8),
    st.integers(min_value=0, max_value=9),
)


@st.composite
def relations(draw, max_size=15):
    size = draw(st.integers(min_value=0, max_value=max_size))
    rows = [
        {"name": draw(CELL), "city": draw(CELL), "age": draw(CELL)}
        for _ in range(size)
    ]
    return Relation.from_dicts(rows, schema=Schema(["name", "city", "age"]), name="generated")


PARITY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def documents(relation: Relation, limit) -> Tuple[List[int], List[Dict[str, int]]]:
    """The sampled rows and their term counts, in first-occurrence order."""
    indices = sample_indices(len(relation), limit)
    rows = relation.rows
    documents = []
    for index in indices:
        counts: Dict[str, int] = {}
        for token in tokenize(tuple_to_string(rows[index])):
            counts[token] = counts.get(token, 0) + 1
        documents.append(counts)
    return indices, documents


def full_scan(left, right, max_seeds=10, min_similarity=0.25, max_tuples_per_relation=500):
    """The reference: the exact cosine of every term-sharing pair, a top-k heap.

    Returns the seeds and the counters (every term-sharing pair is a
    candidate and is scored).
    """
    left_indices, left_documents = documents(left, max_tuples_per_relation)
    right_indices, right_documents = documents(right, max_tuples_per_relation)
    frequencies = []
    for side in (left_documents, right_documents):
        frequency: Dict[str, int] = {}
        for counts in side:
            for term in counts:
                frequency[term] = frequency.get(term, 0) + 1
        frequencies.append((frequency, len(side)))

    # Cross-source IDF: fitting one vectorizer on both corpora is exactly
    # adding the two document-frequency tables over the summed corpus size.
    merged = merge_counts(*frequencies)
    weigh = TfIdfVectorizer().fit_counts(*merged).weigh
    left_vectors = [weigh(counts) for counts in left_documents]
    right_vectors = [weigh(counts) for counts in right_documents]

    # Invert the right-hand vectors so only pairs sharing at least one
    # term are scored (sparse dot products), instead of all |L| x |R|.
    postings: dict = {}
    for position, vector in enumerate(right_vectors):
        for term in vector:
            postings.setdefault(term, set()).add(position)

    counters = SeedScoringStatistics()

    # Min-heap of the current top-k under the key (similarity asc,
    # left desc, right desc): the root is the *worst* entry — lowest
    # similarity, and among equals the largest positions — so smaller
    # indices win ties at the boundary, deterministically.
    heap: List[Tuple[float, int, int]] = []
    for left_position, left_vector in enumerate(left_vectors):
        candidates = set()
        for term in left_vector:
            candidates.update(postings.get(term, ()))
        counters.candidate_count += len(candidates)
        counters.scored_count += len(candidates)
        for right_position in candidates:
            similarity = cosine_similarity(
                left_vector, right_vectors[right_position]
            )
            if similarity < min_similarity:
                continue
            entry = (similarity, -left_position, -right_position)
            if len(heap) < max_seeds:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

    pairs = [
        SeedPair(
            left_index=left_indices[-negated_left],
            right_index=right_indices[-negated_right],
            similarity=similarity,
        )
        for similarity, negated_left, negated_right in heap
    ]
    pairs.sort(key=lambda pair: (-pair.similarity, pair.left_index, pair.right_index))
    return pairs, counters


def seed_tuples(seeds):
    """Exact-equality view of a seed list (floats compared bit for bit)."""
    return [(s.left_index, s.right_index, s.similarity.hex()) for s in seeds]


def assert_counter_invariants(banded, full):
    """The full scan scores every term-sharing pair; the banded search
    counts at most those pairs as candidates and scores at most those."""
    assert full.scored_count == full.candidate_count
    assert banded.candidate_count <= full.candidate_count
    assert banded.scored_count <= banded.candidate_count


def assert_matches_full_scan(left, right, **options):
    seeder = DuplicateSeeder(**options)
    seeds = seeder.find_seeds(left, right)
    reference, counters = full_scan(left, right, **options)
    assert seed_tuples(seeds) == seed_tuples(reference)
    assert_counter_invariants(seeder.last_scoring, counters)
    return seeds


def relation_of(values, name="rel"):
    return Relation.from_dicts([{"text": value} for value in values], name=name)


class TestPruningParity:
    @PARITY_SETTINGS
    @given(
        left=relations(),
        right=relations(),
        max_seeds=st.integers(min_value=1, max_value=8),
        min_similarity=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
    )
    def test_pruned_seeds_equal_full_scan(self, left, right, max_seeds, min_similarity):
        assert_matches_full_scan(
            left, right, max_seeds=max_seeds, min_similarity=min_similarity
        )

    @PARITY_SETTINGS
    @given(
        left=relations(max_size=25),
        right=relations(max_size=25),
        max_seeds=st.integers(min_value=1, max_value=8),
        min_similarity=st.sampled_from([0.0, 0.25, 0.5]),
        budget=st.integers(min_value=1, max_value=80),
    )
    def test_small_blocks_equal_full_scan(self, left, right, max_seeds, min_similarity, budget):
        # a budget this small cuts even these relations into many blocks,
        # most of them one row
        with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", budget):
            assert_matches_full_scan(
                left, right, max_seeds=max_seeds, min_similarity=min_similarity
            )

    def test_parity_on_identical_relations_with_ties(self):
        """Many identical rows: every similarity ties at 1.0 at the boundary."""
        rows = [{"a": "anna schmidt", "b": "berlin"}] * 6 + [
            {"a": "ben mueller", "b": "hamburg"}
        ] * 6
        left = Relation.from_dicts(rows, name="l")
        right = Relation.from_dicts(list(reversed(rows)), name="r")
        for max_seeds in (1, 3, 6, 12, 20, 100):
            for budget in (1, 7, duplicate_seed._BLOCK_BUDGET):
                with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", budget):
                    assert_matches_full_scan(left, right, max_seeds=max_seeds)

    def test_parity_on_generated_students(self):
        dataset = students_scenario(
            entity_count=60, corruption=CorruptionConfig.low(), seed=13
        )
        sources = dataset.source_list
        assert_matches_full_scan(sources[0], sources[1])

    def test_parity_with_sampling(self):
        rows = [{"a": f"anna {i % 7}", "b": f"berlin {i % 5}"} for i in range(60)]
        left = Relation.from_dicts(rows, name="l")
        right = Relation.from_dicts(rows, name="r")
        assert_matches_full_scan(left, right, max_tuples_per_relation=20)

    def test_unsampled_relations_spanning_several_blocks(self):
        """Whole relations past the default sample size: the default budget
        cuts them into several blocks."""
        sources = students_scenario(
            entity_count=800, corruption=CorruptionConfig.low(), seed=5
        ).source_list
        left, right = sources[0], sources[1]
        assert min(len(left), len(right)) > 500
        assert len(left) * len(right) > 4 * duplicate_seed._BLOCK_BUDGET
        assert_matches_full_scan(left, right, max_seeds=25, max_tuples_per_relation=None)

    def test_cd_stores_spanning_several_blocks(self):
        sources = cd_stores_scenario(entity_count=150, store_count=2, seed=3).source_list
        with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", 500):
            assert_matches_full_scan(sources[0], sources[1], max_seeds=5)


class TestBoundaryCases:
    @pytest.mark.parametrize("budget", [1, duplicate_seed._BLOCK_BUDGET])
    @pytest.mark.parametrize(
        "left_texts,right_texts,expected",
        [
            # one left row: (0, 0) and (0, 1) tie exactly, but the
            # approximate cosine of (0, 1) is one ulp higher
            (["carla elena hamburg berlin"],
             ["elena ben carla", "berlin wolf carla wolf carla berlin"], (0, 0)),
            # two left rows, so with a budget of 1 the tied pairs sit in
            # different blocks: (2, 3) is approximated one ulp above (0, 3)
            (["wolf hamburg elena berlin anna ben", "elena wolf",
              "carla elena berlin ben hamburg schmidt"],
             ["anna schmidt", "carla berlin schmidt wolf", "wolf schmidt",
              "ben hamburg berlin hamburg"], (0, 3)),
        ],
    )
    def test_exact_ties_that_the_approximation_splits(
        self, left_texts, right_texts, expected, budget
    ):
        """k = 1 and two pairs whose exact cosines tie: the index tiebreak
        picks the pair the approximation ranks second, so only the δ band
        keeps it."""
        left, right = relation_of(left_texts, name="l"), relation_of(right_texts, name="r")
        with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", budget):
            (seed,) = assert_matches_full_scan(left, right, max_seeds=1)
        assert (seed.left_index, seed.right_index) == expected

    def test_similarity_exactly_at_min_similarity_is_kept(self):
        left = relation_of(["anna schmidt berlin", "ben mueller hamburg"], name="l")
        right = relation_of(["anna schmidt hamburg", "carla wolf", "ben weber"], name="r")
        scores = full_scan(left, right, max_seeds=100, min_similarity=0.0)[0]
        for threshold in sorted({seed.similarity for seed in scores}):
            seeds = assert_matches_full_scan(
                left, right, max_seeds=100, min_similarity=threshold
            )
            assert seeds[-1].similarity == threshold

    def test_empty_and_all_null_documents(self):
        left = Relation.from_dicts(
            [{"a": None, "b": None}, {"a": "anna schmidt", "b": None},
             {"a": "", "b": "  "}, {"a": "ben", "b": "hamburg"}, {"a": None, "b": "!!"}],
            name="l",
        )
        right = Relation.from_dicts(
            [{"a": "anna", "b": None}, {"a": None, "b": None},
             {"a": "ben mueller", "b": "hamburg"}],
            name="r",
        )
        for budget in (1, 2, duplicate_seed._BLOCK_BUDGET):
            with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", budget):
                seeds = assert_matches_full_scan(left, right, min_similarity=0.0)
        assert {(seed.left_index, seed.right_index) for seed in seeds} == {
            (1, 0), (3, 2),
        }

    def test_more_seeds_requested_than_eligible_pairs(self):
        left = relation_of(["anna schmidt", "ben mueller", "carla"], name="l")
        right = relation_of(["anna schmidt", "ben weber"], name="r")
        seeds = assert_matches_full_scan(left, right, max_seeds=50, min_similarity=0.0)
        assert len(seeds) == 2

    def test_a_single_shared_term(self):
        left = relation_of(["anna schmidt berlin", "carla wolf"], name="l")
        right = relation_of(["berlin", "elena weber"], name="r")
        seeder = DuplicateSeeder(min_similarity=0.0)
        seeds = seeder.find_seeds(left, right)
        assert [(seed.left_index, seed.right_index) for seed in seeds] == [(0, 0)]
        assert seeder.last_scoring.candidate_count == 1
        assert seed_tuples(seeds) == seed_tuples(full_scan(left, right, min_similarity=0.0)[0])

    def test_no_shared_term(self):
        left = relation_of(["anna schmidt"], name="l")
        right = relation_of(["ben mueller"], name="r")
        seeder = DuplicateSeeder(min_similarity=-1.0)
        assert seeder.find_seeds(left, right) == []
        assert seeder.last_scoring.candidate_count == 0


class TestScoringStatistics:
    def test_counters_are_bounded_by_the_full_scan(self):
        """The full scan counts every term-sharing pair; the banded search
        counts only the pairs whose approximate cosine reached the floor."""
        dataset = students_scenario(
            entity_count=40, corruption=CorruptionConfig.low(), seed=3
        )
        sources = dataset.source_list
        seeder = DuplicateSeeder()
        seeder.find_seeds(sources[0], sources[1])
        _, full = full_scan(sources[0], sources[1])
        assert_counter_invariants(seeder.last_scoring, full)
        assert seeder.last_scoring.candidate_count < full.candidate_count

    def test_pruning_skips_most_candidates_at_scale(self):
        """Only the band around the k-th best gets an exact cosine."""
        dataset = students_scenario(
            entity_count=100, corruption=CorruptionConfig.low(), seed=7
        )
        sources = dataset.source_list
        seeder = DuplicateSeeder()
        seeder.find_seeds(sources[0], sources[1])
        statistics = seeder.last_scoring
        assert statistics.candidate_count > 2 * seeder.max_seeds
        assert statistics.scored_count <= 2 * seeder.max_seeds
        assert statistics.scored_fraction < 0.5

    def test_statistics_dict_shape(self):
        statistics = SeedScoringStatistics(candidate_count=10, scored_count=4)
        assert statistics.as_dict() == {
            "seed_candidates": 10,
            "seed_cosines": 4,
            "seed_pruned": 6,
            "seed_scored_fraction": 0.4,
        }

    def test_empty_scoring_fraction_is_one(self):
        assert SeedScoringStatistics().scored_fraction == 1.0

    def test_scoring_listener_receives_counters(self, ee_students, cs_students):
        # the caller's counters accumulate over calls; last_scoring holds
        # only the latest call's
        scoring = SeedScoringStatistics()
        seeder = DuplicateSeeder()
        seeder.find_seeds(ee_students, cs_students, scoring=scoring)
        assert scoring == seeder.last_scoring
        seeder.find_seeds(ee_students, cs_students, scoring=scoring)
        assert scoring.candidate_count == 2 * seeder.last_scoring.candidate_count
        assert scoring.scored_count == 2 * seeder.last_scoring.scored_count


class TestSeederProgress:
    def test_progress_reaches_total(self, ee_students, cs_students):
        events = []
        seeder = DuplicateSeeder()
        seeder.find_seeds(
            ee_students,
            cs_students,
            progress_callback=lambda phase, done, total: events.append((phase, done, total)),
        )
        assert events
        assert all(phase == "seeds_scored" for phase, _, _ in events)
        dones = [done for _, done, _ in events]
        assert dones == list(range(1, len(ee_students) + 1))
        assert all(total == len(ee_students) for _, _, total in events)

    @pytest.mark.parametrize("budget", [1, 3, duplicate_seed._BLOCK_BUDGET])
    def test_progress_fires_once_per_left_tuple_in_every_block_layout(self, budget):
        left = relation_of(["anna", None, "ben", "carla wolf", None, "elena"], name="l")
        right = relation_of(["anna", "carla", "wolf"], name="r")
        events = []
        with mock.patch.object(duplicate_seed, "_BLOCK_BUDGET", budget):
            DuplicateSeeder().find_seeds(
                left, right, progress_callback=lambda *event: events.append(event)
            )
        assert events == [("seeds_scored", done, 6) for done in range(1, 7)]

    def test_no_callback_is_fine(self, ee_students, cs_students):
        assert DuplicateSeeder().find_seeds(ee_students, cs_students)
