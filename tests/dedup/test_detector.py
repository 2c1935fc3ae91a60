"""Tests for pair generation, filtering, classification and the detector."""

import pytest

from repro.dedup.classification import classify_pairs
from repro.dedup.descriptions import select_interesting_attributes
from repro.dedup.detector import OBJECT_ID_COLUMN, DuplicateDetector
from repro.dedup.filters import UpperBoundFilter
from repro.dedup.pairs import CandidatePairGenerator, PairScore
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
from repro.engine.relation import Relation
from repro.evaluation import evaluate_clusters
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources


@pytest.fixture
def duplicated_people():
    return Relation.from_dicts(
        [
            {"name": "Anna Schmidt", "city": "Berlin", "email": "anna.schmidt@mail.de", "sourceID": "a"},
            {"name": "Anna Schmitd", "city": "Berlin", "email": "anna.schmidt@mail.de", "sourceID": "b"},
            {"name": "Ben Mueller", "city": "Hamburg", "email": "ben.m@mail.de", "sourceID": "a"},
            {"name": "Benjamin Mueller", "city": "Hamburg", "email": "ben.m@mail.de", "sourceID": "b"},
            {"name": "Carla Weber", "city": "Munich", "email": "carla@web.de", "sourceID": "a"},
        ],
        name="people",
    )


class TestCandidatePairs:
    def make_generator(self, relation, **kwargs):
        selection = select_interesting_attributes(relation)
        measure = DuplicateSimilarityMeasure(selection).fit(relation)
        return CandidatePairGenerator(measure, filter_threshold=0.5, **kwargs)

    def test_all_pairs_enumerated(self, duplicated_people):
        generator = self.make_generator(duplicated_people)
        assert len(list(generator.candidate_indices(duplicated_people))) == 10

    def test_cross_source_only_skips_same_source(self, duplicated_people):
        generator = self.make_generator(duplicated_people, cross_source_only=True)
        pairs = list(generator.candidate_indices(duplicated_people))
        assert (0, 2) not in pairs  # both from source a
        assert (0, 1) in pairs

    def test_score_pairs_returns_similarities(self, duplicated_people):
        generator = self.make_generator(duplicated_people, use_filter=False)
        scores = generator.score_pairs(duplicated_people)
        assert len(scores) == 10
        assert all(0.0 <= score.similarity <= 1.0 for score in scores)

    def test_keep_evidence(self, duplicated_people):
        generator = self.make_generator(duplicated_people, use_filter=False, keep_evidence=True)
        scores = generator.score_pairs(duplicated_people)
        assert all(score.evidence is not None for score in scores)

    def test_filter_reduces_full_comparisons_without_losing_duplicates(self, duplicated_people):
        unfiltered = self.make_generator(duplicated_people, use_filter=False)
        filtered = self.make_generator(duplicated_people, use_filter=True)
        unfiltered_scores = {s.as_tuple(): s.similarity for s in unfiltered.score_pairs(duplicated_people)}
        filtered_scores = {s.as_tuple(): s.similarity for s in filtered.score_pairs(duplicated_people)}
        assert filtered.filter.statistics.pruned >= 0
        # every pair above the threshold survives the filter with the same score
        for pair, similarity in unfiltered_scores.items():
            if similarity >= 0.5:
                assert filtered_scores.get(pair) == pytest.approx(similarity)


class TestUpperBoundFilter:
    def test_statistics_and_disable(self, duplicated_people):
        selection = select_interesting_attributes(duplicated_people)
        measure = DuplicateSimilarityMeasure(selection).fit(duplicated_people)
        enabled = UpperBoundFilter(measure, threshold=0.99)
        disabled = UpperBoundFilter(measure, threshold=0.99, enabled=False)
        rows = duplicated_people.rows
        enabled.passes(rows[0], rows[4])
        disabled.passes(rows[0], rows[4])
        assert enabled.statistics.considered == 1
        assert disabled.statistics.pruned == 0
        assert 0.0 <= enabled.statistics.pruning_ratio <= 1.0

    def test_reset(self, duplicated_people):
        selection = select_interesting_attributes(duplicated_people)
        measure = DuplicateSimilarityMeasure(selection).fit(duplicated_people)
        filt = UpperBoundFilter(measure, threshold=0.9)
        filt.passes(duplicated_people.rows[0], duplicated_people.rows[1])
        filt.statistics.reset()
        assert filt.statistics.considered == 0


class TestClassification:
    def test_three_segments(self):
        scores = [PairScore(0, 1, 0.9), PairScore(0, 2, 0.72), PairScore(1, 2, 0.2)]
        classified = classify_pairs(scores, threshold=0.8, uncertainty_band=0.1)
        assert classified.counts == {
            "sure_duplicates": 1,
            "unsure": 1,
            "sure_non_duplicates": 1,
        }

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            classify_pairs([], threshold=0.8, uncertainty_band=-0.1)

    def test_accepted_pairs_default_behaviour(self):
        scores = [PairScore(0, 1, 0.9), PairScore(0, 2, 0.72)]
        classified = classify_pairs(scores, threshold=0.8, uncertainty_band=0.1)
        assert classified.accepted_pairs(accept_unsure_by_default=False) == [(0, 1)]
        assert set(classified.accepted_pairs(accept_unsure_by_default=True)) == {(0, 1), (0, 2)}

    def test_user_decisions_override_default(self):
        scores = [PairScore(0, 2, 0.72)]
        classified = classify_pairs(scores, threshold=0.8, uncertainty_band=0.1)
        classified.confirm((0, 2), False)
        assert classified.accepted_pairs(accept_unsure_by_default=True) == []
        classified.confirm((0, 2), True)
        assert classified.accepted_pairs(accept_unsure_by_default=False) == [(0, 2)]

    def test_confirm_all(self):
        scores = [PairScore(0, 2, 0.72), PairScore(1, 3, 0.75)]
        classified = classify_pairs(scores, threshold=0.8, uncertainty_band=0.1)
        classified.confirm_all(True)
        assert len(classified.accepted_pairs(accept_unsure_by_default=False)) == 2


class TestDuplicateDetector:
    def test_appends_object_id_column(self, duplicated_people):
        result = DuplicateDetector(threshold=0.7).detect(duplicated_people)
        assert OBJECT_ID_COLUMN in result.relation.schema
        assert len(result.relation) == len(duplicated_people)

    def test_finds_the_obvious_duplicates(self, duplicated_people):
        result = DuplicateDetector(threshold=0.7).detect(duplicated_people)
        assignment = result.cluster_assignment
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]
        assert assignment[4] not in (assignment[0], assignment[2])
        assert result.cluster_count == 3

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DuplicateDetector(threshold=1.5)

    def test_multi_tuple_clusters(self, duplicated_people):
        result = DuplicateDetector(threshold=0.7).detect(duplicated_people)
        multi = result.multi_tuple_clusters()
        assert all(len(rows) > 1 for rows in multi.values())
        assert len(multi) == 2

    def test_higher_threshold_means_fewer_duplicates(self, duplicated_people):
        lenient = DuplicateDetector(threshold=0.5, uncertainty_band=0.0).detect(duplicated_people)
        strict = DuplicateDetector(threshold=0.99, uncertainty_band=0.0).detect(duplicated_people)
        assert strict.cluster_count >= lenient.cluster_count

    def test_redetect_with_decisions_respects_user(self, duplicated_people):
        detector = DuplicateDetector(threshold=0.95, uncertainty_band=0.4, accept_unsure=False)
        result = detector.detect(duplicated_people)
        # accept every unsure pair manually, clusters can only shrink in number
        result.classified.confirm_all(True)
        revised = detector.redetect_with_decisions(duplicated_people, result)
        assert revised.cluster_count <= result.cluster_count

    def test_filter_does_not_change_the_clustering(self, duplicated_people):
        with_filter = DuplicateDetector(threshold=0.7, use_filter=True).detect(duplicated_people)
        without_filter = DuplicateDetector(threshold=0.7, use_filter=False).detect(duplicated_people)
        assert with_filter.cluster_assignment == without_filter.cluster_assignment
        assert with_filter.filter_statistics.considered == 10

    def test_end_to_end_quality_on_generated_data(self, small_students_dataset):
        sources = small_students_dataset.source_list
        matching = MultiMatcher(DumasMatcher()).match(sources)
        combined = transform_sources(sources, matching.correspondences)
        result = DuplicateDetector().detect(combined)
        truth_pairs = small_students_dataset.truth.duplicate_pairs_within(
            small_students_dataset.combined_row_origin()
        )
        metrics = evaluate_clusters(result.cluster_assignment, truth_pairs)
        assert metrics.f1 >= 0.8


class TestAcceptUnsureRule:
    """``duplicate_pairs`` counts the pairs that were clustered: undecided
    unsure pairs follow the detector's ``accept_unsure``, before and after
    the user decides some of them."""

    def session(self):
        from repro import DedupConfig, FusionConfig
        from repro.datagen.scenarios import cd_stores_scenario
        from repro.hummer import HumMer

        dataset = cd_stores_scenario(entity_count=40, store_count=3, seed=1000)
        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(accept_unsure=False)))
        for alias, relation in dataset.sources.items():
            hummer.register(alias, relation)
        return hummer.session(list(dataset.sources))

    def test_summary_counts_only_clustered_pairs(self):
        result = self.session().run()
        detection = result.detection
        counts = detection.classified.counts
        assert counts["unsure"] > 0
        assert result.summary()["duplicate_pairs"] == detection.clustering_report.edges
        assert len(detection.duplicate_pairs) == counts["sure_duplicates"]

    def test_rule_holds_after_redetect_with_decisions(self):
        session = self.session()
        detection = session.advance_to("duplicate_detection")
        classified = detection.classified
        classified.confirm(classified.unsure[0].as_tuple(), True)
        session.apply_duplicate_decisions()
        result = session.run()
        detection = result.detection
        assert detection.accept_unsure is False
        assert result.summary()["duplicate_pairs"] == detection.clustering_report.edges
        assert len(detection.duplicate_pairs) == (
            detection.classified.counts["sure_duplicates"] + 1
        )
