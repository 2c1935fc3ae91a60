"""Determinism and parity tests for the pluggable scoring executors."""

import pickle

import pytest

from repro.dedup.descriptions import select_interesting_attributes
from repro.dedup.detector import DuplicateDetector
from repro.dedup.executor import (
    MultiprocessExecutor,
    ScoringBatch,
    SerialExecutor,
    executor_for_workers,
    resolve_executor,
    score_batch,
)
from repro.dedup.pairs import CandidatePairGenerator
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources


def combined_relation(dataset):
    sources = dataset.source_list
    matching = MultiMatcher(DumasMatcher()).match(sources)
    return transform_sources(sources, matching.correspondences)


def score_key(scores):
    return [(score.left_index, score.right_index, score.similarity) for score in scores]


class TestResolveExecutor:
    def test_none_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("multiprocess"), MultiprocessExecutor)

    def test_options_are_forwarded(self):
        executor = resolve_executor("multiprocess", workers=3, chunk_size=128)
        assert executor.workers == 3
        assert executor.chunk_size == 128

    def test_instances_pass_through(self):
        executor = MultiprocessExecutor(workers=2)
        assert resolve_executor(executor) is executor

    def test_instance_with_options_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor(SerialExecutor(), workers=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scoring executor"):
            resolve_executor("threads")

    def test_executor_for_workers(self):
        assert isinstance(executor_for_workers(None), SerialExecutor)
        assert isinstance(executor_for_workers(1), SerialExecutor)
        multiprocess = executor_for_workers(4, chunk_size=64)
        assert isinstance(multiprocess, MultiprocessExecutor)
        assert multiprocess.workers == 4
        assert multiprocess.chunk_size == 64

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(workers=0)
        with pytest.raises(ValueError):
            MultiprocessExecutor(chunk_size=0)
        with pytest.raises(ValueError):
            MultiprocessExecutor(min_parallel_pairs=-1)


class TestChunking:
    def test_default_chunk_size_targets_four_batches_per_worker(self):
        executor = MultiprocessExecutor(workers=2)
        assert executor.effective_chunk_size(8000) == 1000

    def test_explicit_chunk_size_wins(self):
        executor = MultiprocessExecutor(workers=2, chunk_size=100)
        assert executor.effective_chunk_size(8000) == 100

    def test_chunk_size_never_zero(self):
        executor = MultiprocessExecutor(workers=8)
        assert executor.effective_chunk_size(1) == 1


class TestMeasurePickling:
    def test_snapshot_drops_trigram_cache(self, small_students_dataset):
        relation = combined_relation(small_students_dataset)
        selection = select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        rows = relation.rows
        measure.upper_bound(rows[0], rows[1])  # populate the cache
        assert measure._trigram_cache

        clone = pickle.loads(pickle.dumps(measure))
        assert clone._trigram_cache == {}
        # the clone scores identically despite the dropped cache
        assert clone.compare_rows(rows[0], rows[1]) == measure.compare_rows(
            rows[0], rows[1]
        )
        assert clone.upper_bound(rows[0], rows[1]) == measure.upper_bound(
            rows[0], rows[1]
        )

    def test_score_batch_matches_direct_scoring(self, small_students_dataset):
        relation = combined_relation(small_students_dataset)
        selection = select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        generator = CandidatePairGenerator(measure, filter_threshold=0.6)
        pairs = list(generator.candidate_indices(relation))
        attributes = measure.fitted_attributes
        batch = ScoringBatch(
            measure=pickle.loads(pickle.dumps(measure)),
            columns={attribute: relation.column(attribute) for attribute in attributes},
            null_masks={
                attribute: relation.null_mask(attribute) for attribute in attributes
            },
            filter_threshold=0.6,
            use_filter=True,
            keep_evidence=False,
        )
        result = score_batch(batch, pairs)
        expected = generator.score_pairs(relation)
        assert score_key(result.scores) == score_key(expected)
        assert result.considered == len(pairs)
        assert result.pruned == generator.statistics.pruned


class TestColumnarBatchParity:
    """The batched columnar scorer is bit-identical to the per-pair reference
    (ISSUE 9): same floats, same pruning decisions, same evidence — for every
    combination of filter and evidence settings."""

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
        batch = ScoringBatch(
            measure=measure,
            columns={
                attribute: relation.column(attribute)
                for attribute in measure.fitted_attributes
            },
            null_masks={
                attribute: relation.null_mask(attribute)
                for attribute in measure.fitted_attributes
            },
            filter_threshold=0.6,
            use_filter=use_filter,
            keep_evidence=keep_evidence,
        )
        result = score_batch(batch, pairs)
        expected, pruned = self.reference_scores(
            measure, relation, pairs, 0.6, use_filter, keep_evidence
        )
        assert result.considered == len(pairs)
        assert result.pruned == pruned
        assert len(result.scores) == len(expected)
        for score, (i, j, similarity, evidence) in zip(result.scores, expected):
            assert (score.left_index, score.right_index) == (i, j)
            assert score.similarity == similarity  # bit-identical float
            if keep_evidence:
                assert score.evidence is not None
                assert score.evidence == evidence
            else:
                assert score.evidence is None

    def test_columnar_scorer_upper_bound_parity(self, small_students_dataset):
        relation, measure, pairs = self.setup_scoring(small_students_dataset)
        scorer = measure.columnar_scorer(
            {
                attribute: relation.column(attribute)
                for attribute in measure.fitted_attributes
            }
        )
        rows = relation.rows
        for i, j in pairs:
            assert scorer.upper_bound(i, j) == measure.upper_bound(rows[i], rows[j])


class TestSerialParity:
    """The serial executor is byte-identical to the seed scoring loop."""

    def test_detector_defaults_to_serial(self):
        assert isinstance(DuplicateDetector().executor, SerialExecutor)

    def test_small_input_fallback_matches_serial(self, small_students_dataset):
        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(executor=SerialExecutor()).detect(relation)
        # high threshold → the fallback path scores in-process
        fallback = DuplicateDetector(
            executor=MultiprocessExecutor(workers=2, min_parallel_pairs=10**9)
        ).detect(relation)
        assert score_key(fallback.scores) == score_key(serial.scores)
        assert fallback.cluster_assignment == serial.cluster_assignment
        assert (
            fallback.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )


@pytest.mark.parametrize("blocking", ["allpairs", "token"])
class TestMultiprocessParity:
    """Multiprocess scoring reproduces the serial run exactly (ISSUE 2 bar)."""

    def parity_check(self, relation, blocking, **executor_options):
        serial = DuplicateDetector(blocking=blocking, executor=SerialExecutor()).detect(
            relation
        )
        parallel = DuplicateDetector(
            blocking=blocking,
            executor=MultiprocessExecutor(min_parallel_pairs=0, **executor_options),
        ).detect(relation)
        assert score_key(parallel.scores) == score_key(serial.scores)
        assert set(parallel.duplicate_pairs) == set(serial.duplicate_pairs)
        assert parallel.cluster_assignment == serial.cluster_assignment
        assert (
            parallel.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )
        return serial, parallel

    def test_students_parity(self, small_students_dataset, blocking):
        relation = combined_relation(small_students_dataset)
        self.parity_check(relation, blocking, workers=2)

    def test_cds_parity(self, small_cds_dataset, blocking):
        relation = combined_relation(small_cds_dataset)
        self.parity_check(relation, blocking, workers=2)

    def test_tiny_chunks_preserve_order(self, small_students_dataset, blocking):
        # chunk_size=7 forces many batches per worker; the merged score list
        # must still come back in candidate order.
        relation = combined_relation(small_students_dataset)
        self.parity_check(relation, blocking, workers=2, chunk_size=7)


class TestAdaptiveExecutorParity:
    """Adaptive blocking composes with the multiprocess executor (ISSUE 3).

    On the parity fixture the planner falls back to all-pairs (the input is
    far below ``small_threshold``), so adaptive + multiprocess must be
    bit-identical to a serial all-pairs run — same ``PairScore`` list, same
    clusters, same filter counters; only the plan report is extra.
    """

    def test_adaptive_multiprocess_matches_serial_allpairs(self, small_students_dataset):
        from repro.dedup.blocking import AdaptiveBlocking

        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(
            blocking="allpairs", executor=SerialExecutor()
        ).detect(relation)
        adaptive = DuplicateDetector(
            blocking="adaptive",
            executor=MultiprocessExecutor(workers=2, min_parallel_pairs=0),
        ).detect(relation)
        assert score_key(adaptive.scores) == score_key(serial.scores)
        assert adaptive.cluster_assignment == serial.cluster_assignment
        serial_stats = serial.filter_statistics.as_dict()
        adaptive_stats = adaptive.filter_statistics.as_dict()
        plan = adaptive_stats.pop("blocking_plan")
        serial_stats.pop("blocking_plan")
        assert plan["strategy"] == "allpairs"
        assert adaptive_stats == serial_stats
        # sanity: the planner really did fall back because of input size
        assert isinstance(
            DuplicateDetector(blocking="adaptive").blocking, AdaptiveBlocking
        )

    def test_escalated_plan_is_executor_invariant(self, small_students_dataset):
        # Force the escalated (non-allpairs) path with small_threshold=0 and
        # check serial vs. multiprocess runs of the *same* plan agree exactly,
        # plan report included.
        from repro.dedup.blocking import AdaptiveBlocking

        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(
            blocking=AdaptiveBlocking(small_threshold=0),
            executor=SerialExecutor(),
        ).detect(relation)
        parallel = DuplicateDetector(
            blocking=AdaptiveBlocking(small_threshold=0),
            executor=MultiprocessExecutor(workers=2, min_parallel_pairs=0),
        ).detect(relation)
        assert serial.filter_statistics.blocking_plan["strategy"] != "allpairs"
        assert score_key(parallel.scores) == score_key(serial.scores)
        assert parallel.cluster_assignment == serial.cluster_assignment
        assert (
            parallel.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )


class TestEvidenceAndThreading:
    def test_keep_evidence_survives_the_pool(self, small_students_dataset):
        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(
            keep_evidence=True, executor=SerialExecutor()
        ).detect(relation)
        parallel = DuplicateDetector(
            keep_evidence=True,
            executor=MultiprocessExecutor(workers=2, min_parallel_pairs=0),
        ).detect(relation)
        assert score_key(parallel.scores) == score_key(serial.scores)
        for left, right in zip(serial.scores, parallel.scores):
            assert left.evidence is not None and right.evidence is not None
            assert left.evidence.similarity == right.evidence.similarity
            assert left.evidence.per_attribute == right.evidence.per_attribute

    def test_hummer_threads_executor_into_detector(self):
        from repro.config import DedupConfig, FusionConfig
        from repro.hummer import HumMer

        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(executor="multiprocess")))
        assert isinstance(hummer.detector.executor, MultiprocessExecutor)

    def test_injected_detector_executor_wins(self):
        from repro.hummer import HumMer

        detector = DuplicateDetector(
            executor=MultiprocessExecutor(workers=2, min_parallel_pairs=0)
        )
        hummer = HumMer(detector=detector)
        assert hummer.detector.executor is detector.executor

    def test_configured_pipeline_executor(self, small_students_dataset):
        from repro.config import DedupConfig, FusionConfig
        from repro.core.pipeline import FusionPipeline
        from repro.hummer import HumMer

        dataset = small_students_dataset
        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(executor="multiprocess")))
        for alias, relation in dataset.sources.items():
            hummer.register(alias, relation)
        assert isinstance(hummer.pipeline().detector.executor, MultiprocessExecutor)
        result = hummer.fuse(list(dataset.sources))
        serial_result = FusionPipeline(hummer.catalog).run(list(dataset.sources))
        assert result.detection.cluster_assignment == (
            serial_result.detection.cluster_assignment
        )
