"""Pruned seed scoring is exact (ISSUE 6 tentpole).

``DuplicateSeeder`` with ``prune=True`` skips cosines whose per-term
max-weight upper bound is provably below the current top-k floor.  The
optimisation must be invisible: property tests assert that the pruned path
returns *exactly* the full scan's seeds — same pairs, same order, same
bit-identical similarities — on arbitrary generated relations, including the
adversarial cases (ties at the boundary, similarities equal to
``min_similarity``, near-duplicate rows).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import students_scenario
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.matching.duplicate_seed import DuplicateSeeder, SeedScoringStatistics

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


def seed_tuples(seeds):
    """Exact-equality view of a seed list (floats compared bit for bit)."""
    return [(s.left_index, s.right_index, s.similarity) for s in seeds]


def assert_counter_invariants(pruned, full):
    """The full scan scores every posting-sharing pair; the pruned scan
    examines at most those pairs and scores at most the ones it examined."""
    assert full.scored_count == full.candidate_count
    assert pruned.candidate_count <= full.candidate_count
    assert pruned.scored_count <= pruned.candidate_count


class TestPruningParity:
    @PARITY_SETTINGS
    @given(
        left=relations(),
        right=relations(),
        max_seeds=st.integers(min_value=1, max_value=8),
        min_similarity=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
    )
    def test_pruned_seeds_equal_full_scan(self, left, right, max_seeds, min_similarity):
        pruned = DuplicateSeeder(
            max_seeds=max_seeds, min_similarity=min_similarity, prune=True
        )
        full = DuplicateSeeder(
            max_seeds=max_seeds, min_similarity=min_similarity, prune=False
        )
        assert seed_tuples(pruned.find_seeds(left, right)) == seed_tuples(
            full.find_seeds(left, right)
        )
        assert_counter_invariants(pruned.last_scoring, full.last_scoring)

    def test_parity_on_identical_relations_with_ties(self):
        """Many identical rows: every similarity ties at 1.0 at the boundary."""
        rows = [{"a": "anna schmidt", "b": "berlin"}] * 6 + [
            {"a": "ben mueller", "b": "hamburg"}
        ] * 6
        left = Relation.from_dicts(rows, name="l")
        right = Relation.from_dicts(list(reversed(rows)), name="r")
        for max_seeds in (1, 3, 6, 12, 20):
            pruned = DuplicateSeeder(max_seeds=max_seeds, prune=True).find_seeds(left, right)
            full = DuplicateSeeder(max_seeds=max_seeds, prune=False).find_seeds(left, right)
            assert seed_tuples(pruned) == seed_tuples(full)

    def test_parity_on_generated_students(self):
        dataset = students_scenario(
            entity_count=60, corruption=CorruptionConfig.low(), seed=13
        )
        sources = dataset.source_list
        pruned = DuplicateSeeder(prune=True).find_seeds(sources[0], sources[1])
        full = DuplicateSeeder(prune=False).find_seeds(sources[0], sources[1])
        assert seed_tuples(pruned) == seed_tuples(full)

    def test_parity_with_sampling(self):
        rows = [{"a": f"anna {i % 7}", "b": f"berlin {i % 5}"} for i in range(60)]
        left = Relation.from_dicts(rows, name="l")
        right = Relation.from_dicts(rows, name="r")
        pruned = DuplicateSeeder(
            max_tuples_per_relation=20, prune=True
        ).find_seeds(left, right)
        full = DuplicateSeeder(
            max_tuples_per_relation=20, prune=False
        ).find_seeds(left, right)
        assert seed_tuples(pruned) == seed_tuples(full)


class TestScoringStatistics:
    def test_counters_are_bounded_by_the_full_scan(self):
        """The full scan counts the posting-sharing pairs; the pruned scan
        counts only the pairs its essential terms proposed."""
        dataset = students_scenario(
            entity_count=40, corruption=CorruptionConfig.low(), seed=3
        )
        sources = dataset.source_list
        pruned = DuplicateSeeder(prune=True)
        pruned.find_seeds(sources[0], sources[1])
        full = DuplicateSeeder(prune=False)
        full.find_seeds(sources[0], sources[1])
        assert_counter_invariants(pruned.last_scoring, full.last_scoring)
        assert pruned.last_scoring.candidate_count < full.last_scoring.candidate_count

    def test_pruning_skips_most_candidates_at_scale(self):
        """Acceptance: a measured fraction (< 50%) of candidates is scored."""
        dataset = students_scenario(
            entity_count=100, corruption=CorruptionConfig.low(), seed=7
        )
        sources = dataset.source_list
        seeder = DuplicateSeeder(prune=True)
        seeder.find_seeds(sources[0], sources[1])
        statistics = seeder.last_scoring
        assert statistics.candidate_count > 0
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

    def test_no_callback_is_fine(self, ee_students, cs_students):
        assert DuplicateSeeder().find_seeds(ee_students, cs_students)
