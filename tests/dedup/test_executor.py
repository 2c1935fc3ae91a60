"""The one in-process scoring path is bit-identical to the per-pair loop."""

import tracemalloc
from collections import Counter
from decimal import Decimal

import pytest

from repro.datagen.corruptor import CorruptionConfig
from repro.datagen.scenarios import cd_stores_scenario, students_scenario
from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.detector import DuplicateDetector
from repro.dedup.executor import SerialExecutor
from repro.dedup.pairs import CandidatePairGenerator
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.relation import Relation
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources
from repro.similarity import monge_elkan
from repro.similarity.jaro import jaro_winkler_similarity


def combined_relation(dataset):
    sources = dataset.source_list
    matching = MultiMatcher(DumasMatcher()).match(sources)
    return transform_sources(sources, matching.correspondences)


class TestColumnarBatchParity:
    """``CandidatePairGenerator.score_pairs`` scores the candidate batch with
    the columnar scorer, bit-identically to the per-pair reference: same
    floats, same pruning decisions, same evidence — for every combination of
    filter and evidence settings."""

    def setup_scoring(self, dataset):
        relation = combined_relation(dataset)
        selection = select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        generator = CandidatePairGenerator(measure, filter_threshold=0.6)
        pairs = list(generator.candidate_indices(relation))
        return relation, measure, pairs

    def reference_scores(
        self, measure, relation, pairs, threshold, use_filter, keep_evidence
    ):
        """The seed per-pair loop: row tuples, one measure call per pair."""
        rows = relation.rows
        scores, pruned = [], 0
        for i, j in pairs:
            if use_filter and measure.upper_bound(rows[i], rows[j]) < threshold:
                pruned += 1
                continue
            if keep_evidence:
                evidence = measure.explain_rows(rows[i], rows[j])
                scores.append((i, j, evidence.similarity, evidence))
            else:
                scores.append((i, j, measure.compare_rows(rows[i], rows[j]), None))
        return scores, pruned

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("keep_evidence", [True, False])
    def test_score_batch_bit_identical(
        self, small_students_dataset, use_filter, keep_evidence
    ):
        relation, measure, pairs = self.setup_scoring(small_students_dataset)
        events = []
        generator = CandidatePairGenerator(
            measure,
            filter_threshold=0.6,
            use_filter=use_filter,
            keep_evidence=keep_evidence,
            progress_callback=lambda *event: events.append(event),
        )
        scores = generator.score_pairs(relation)
        expected, pruned = self.reference_scores(
            measure, relation, pairs, 0.6, use_filter, keep_evidence
        )
        assert generator.statistics.considered == len(pairs)
        assert generator.statistics.pruned == pruned
        assert events == [("pairs_scored", len(pairs), len(pairs))]
        assert len(scores) == len(expected)
        for score, (i, j, similarity, evidence) in zip(scores, expected):
            assert (score.left_index, score.right_index) == (i, j)
            assert score.similarity == similarity  # bit-identical float
            if keep_evidence:
                assert score.evidence is not None
                assert score.evidence == evidence
            else:
                assert score.evidence is None

    @pytest.mark.parametrize("keep_evidence", [True, False])
    def test_heavy_pruning_bit_identical(self, keep_evidence):
        # The service's input shape (cds 40 x 3) under all-pairs blocking:
        # the filter prunes ~90% of the candidates, where the token-blocked
        # students inputs prune ~2%.
        dataset = cd_stores_scenario(entity_count=40, store_count=3, seed=1000)
        relation, measure, pairs = self.setup_scoring(dataset)
        generator = CandidatePairGenerator(
            measure, filter_threshold=0.6, keep_evidence=keep_evidence
        )
        scores = generator.score_pairs(relation)
        expected, pruned = self.reference_scores(
            measure, relation, pairs, 0.6, True, keep_evidence
        )
        assert generator.statistics.pruned == pruned > 0.8 * len(pairs)
        assert [
            (score.left_index, score.right_index, score.similarity.hex(), score.evidence)
            for score in scores
        ] == [(i, j, similarity.hex(), evidence) for i, j, similarity, evidence in expected]

    def test_filter_memory_peak(self):
        # Per-row trigram bitmasks keep filtering the candidates of one
        # students 1500 input near 1 MB of Python allocations (per-row
        # trigram sets took ~8.5 MB); tracemalloc counts allocations, not
        # time, so the bound holds on any runner.
        sources = students_scenario(
            entity_count=1500, corruption=CorruptionConfig.low(), seed=1000
        ).source_list
        relation = transform_sources(
            sources, MultiMatcher(DumasMatcher()).match(sources).correspondences
        )
        measure = DuplicateSimilarityMeasure(select_interesting_attributes(relation)).fit(relation)
        generator = CandidatePairGenerator(
            measure, filter_threshold=0.6, blocking=TokenBlocking(max_block_size=10)
        )
        candidates = list(generator.candidate_indices(relation))
        tracemalloc.start()
        try:
            scorer = measure.columnar_scorer(relation)
            survivors = [pair for pair in candidates if scorer.upper_bound(*pair) >= 0.6]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(candidates) > 900 and survivors
        assert peak < 3 * 2**20

    def test_columnar_scorer_upper_bound_parity(self, small_students_dataset):
        relation, measure, pairs = self.setup_scoring(small_students_dataset)
        scorer = measure.columnar_scorer(relation)
        rows = relation.rows
        for i, j in pairs:
            assert scorer.upper_bound(i, j) == measure.upper_bound(rows[i], rows[j])

    @pytest.mark.parametrize(
        "value, alike", [(0.0, -0.0), (Decimal("1.0"), Decimal("1.00"))]
    )
    def test_equal_cells_that_print_differently_score_apart(self, value, alike):
        # value == alike, but their text differs; a cache keyed by
        # (class, value) reused one cell's text and frequency for the other
        relation = Relation.from_dicts(
            [{"name": "anna", "price": value}] * 3
            + [{"name": "anna", "price": alike}, {"name": "bob", "price": f"{value}x"}]
        )
        selection = AttributeSelection(["name", "price"], weights={"name": 1.0, "price": 1.0})
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        pairs = [(0, 1), (0, 3), (3, 4), (0, 4)]
        rows = relation.rows
        scorer = measure.columnar_scorer(relation)
        assert [similarity.hex() for similarity in scorer.similarities(pairs)] == [
            measure.compare_rows(rows[i], rows[j]).hex() for i, j in pairs
        ]
        assert scorer.explain(pairs) == [measure.explain_rows(rows[i], rows[j]) for i, j in pairs]

    def test_one_jaro_winkler_per_unordered_token_pair(
        self, small_students_dataset, monkeypatch
    ):
        # Jaro-Winkler is symmetric bit for bit, so the scorer-wide token
        # table serves Monge-Elkan's backward pass, and a pair scored in
        # both orientations, from the forward pass's single evaluation.
        relation, measure, pairs = self.setup_scoring(small_students_dataset)
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return jaro_winkler_similarity(left, right)

        monkeypatch.setattr(monge_elkan, "jaro_winkler_similarity", counting)
        scorer = measure.columnar_scorer(relation)
        both_ways = pairs + [(j, i) for i, j in pairs]
        scores = scorer.similarities(both_ways)
        monkeypatch.undo()

        unordered = Counter(frozenset(pair) for pair in calls)
        assert calls and set(unordered.values()) == {1}
        rows = relation.rows
        assert [score.hex() for score in scores] == [
            measure.compare_rows(rows[i], rows[j]).hex() for i, j in both_ways
        ]

    def test_one_cell_scoring_per_unordered_cell_pair(self, small_students_dataset, monkeypatch):
        # every leaf of a cell scoring is symmetric bit for bit, so a cell
        # pair met again, in either orientation, reads the memo entry
        relation, measure, pairs = self.setup_scoring(small_students_dataset)
        scorer = measure.columnar_scorer(relation)
        original = scorer._score_cells
        calls = []

        def counting(slot, left, right):
            calls.append((slot, min(left, right), max(left, right)))
            return original(slot, left, right)

        monkeypatch.setattr(scorer, "_score_cells", counting)
        both_ways = pairs + [(j, i) for i, j in pairs]
        scores = scorer.similarities(both_ways)
        expected = set()
        for slot, (_, _, codes, _) in enumerate(scorer._attributes):
            for i, j in pairs:
                if codes[i] >= 0 and codes[j] >= 0:
                    expected.add((slot, min(codes[i], codes[j]), max(codes[i], codes[j])))
        assert len(calls) == len(expected) == len(set(calls))
        assert set(calls) == expected
        rows = relation.rows
        assert [score.hex() for score in scores] == [
            measure.compare_rows(rows[i], rows[j]).hex() for i, j in both_ways
        ]


class TestSerialParity:
    def test_detector_defaults_to_serial(self, small_students_dataset, monkeypatch):
        """Detection scores through ``SerialExecutor.score_pairs(generator,
        relation)``, the attribute ``hummerbench/layers.py`` wraps."""
        relation = combined_relation(small_students_dataset)
        original = vars(SerialExecutor)["score_pairs"]
        calls = []

        def recording(self, generator, scored_relation):
            calls.append((generator, scored_relation))
            return original(self, generator, scored_relation)

        monkeypatch.setattr(SerialExecutor, "score_pairs", recording)
        result = DuplicateDetector().detect(relation)
        assert len(calls) == 1
        generator, scored_relation = calls[0]
        assert isinstance(generator, CandidatePairGenerator)
        assert scored_relation is relation
        assert generator.statistics is result.filter_statistics
