"""Prepared-vs-fresh DUMAS matching parity (ISSUE 6 tentpole).

The prepared path replaces the per-pair field-corpus refit with a merge of
per-source :class:`FieldCorpusArtifact` counts.  The merge is designed to be
*bit-identical* — counts add and per-term IDF is a pure function of them —
so these tests assert exact equality, never ``approx``: the moment the warm
path drifts by one ulp from the cold path, preparing changes results, and
that is a bug.
"""

import repro.matching.dumas as dumas_module
from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.matching.dumas import DumasMatcher
from repro.prepare import FIELD_KIND, SourcePreparer, build_field_corpus
from repro.similarity.soft_tfidf import SoftTfIdfSimilarity
from repro.similarity.tfidf import TfIdfVectorizer


def matching_fingerprint(result):
    """Everything observable about a MatchingResult, exact floats included."""
    return (
        [
            (c.left_attribute, c.right_attribute, c.score, c.origin)
            for c in result.correspondences
        ],
        [(s.left_index, s.right_index, s.similarity) for s in result.seeds],
        result.matrix.left_attributes,
        result.matrix.right_attributes,
        result.matrix.scores.tolist(),
    )


def field_corpus_of(*relations):
    """The cold path's corpus: every non-null cell string, in row order."""
    from repro.engine.types import is_null

    corpus = []
    for relation in relations:
        for values in relation.rows:
            corpus.extend(str(value) for value in values if not is_null(value))
    return corpus


class TestPreparedMatchingParity:
    def test_prepared_match_is_bit_identical_on_golden_tables(self, catalog):
        # bundle_for keys on object identity, so match the relations the
        # preparer saw: the catalog's memoised fetch results
        left = catalog.fetch("EE_Students")
        right = catalog.fetch("CS_Students")
        fresh = DumasMatcher().match(left, right)

        prepared = SourcePreparer(catalog).prepare(["EE_Students", "CS_Students"])
        assert prepared.field_corpus(left, right) is not None
        warm = DumasMatcher().match(left, right, prepared=prepared)

        assert matching_fingerprint(warm) == matching_fingerprint(fresh)

    def test_prepared_match_is_bit_identical_on_generated_dataset(
        self, small_students_dataset
    ):
        catalog = Catalog()
        for alias, relation in small_students_dataset.sources.items():
            catalog.register(alias, relation)
        aliases = list(small_students_dataset.sources)
        left = catalog.fetch(aliases[0])
        right = catalog.fetch(aliases[1])

        fresh = DumasMatcher().match(left, right)
        prepared = SourcePreparer(catalog).prepare(aliases)
        assert prepared.field_corpus(left, right) is not None
        warm = DumasMatcher().match(left, right, prepared=prepared)

        assert matching_fingerprint(warm) == matching_fingerprint(fresh)

    def test_warm_prepare_rebuilds_zero_field_corpora(self, catalog):
        aliases = ["EE_Students", "CS_Students"]
        preparer = SourcePreparer(catalog)
        cold = preparer.prepare(aliases)
        assert cold.counters.as_dict()["rebuilt_by_kind"][FIELD_KIND] == len(aliases)

        warm = preparer.prepare(aliases)
        counters = warm.counters.as_dict()
        assert counters["rebuilt_by_kind"].get(FIELD_KIND, 0) == 0
        assert counters["reused_by_kind"][FIELD_KIND] == len(aliases)

    def test_warm_match_uses_artifacts_not_cells(self, catalog, monkeypatch):
        """The warm path must never re-tokenise cell values into a corpus."""
        left = catalog.fetch("EE_Students")
        right = catalog.fetch("CS_Students")
        prepared = SourcePreparer(catalog).prepare(["EE_Students", "CS_Students"])
        matcher = DumasMatcher()

        # the cold fallback counts each relation's corpus with
        # field_corpus_counts; the warm path merges the prepared counts
        cold_counts = []
        original = dumas_module.field_corpus_counts

        def guarded(relation):
            cold_counts.append(relation)
            return original(relation)

        monkeypatch.setattr(dumas_module, "field_corpus_counts", guarded)
        result = matcher.match(left, right, prepared=prepared)
        assert result.correspondences
        assert cold_counts == []

    def test_foreign_relation_falls_back_to_cold(self, catalog, monkeypatch):
        left = catalog.fetch("EE_Students")
        prepared = SourcePreparer(catalog).prepare(["EE_Students", "CS_Students"])
        foreign = Relation.from_dicts([{"a": "x"}], name="foreign")
        assert prepared.field_corpus(left, foreign) is None
        assert prepared.field_corpus(foreign, left) is None

        # the bundle declines a pair it does not hold, so the matcher
        # handed it builds that pair's corpus cold — with the same result
        cold_counts = []
        original = dumas_module.field_corpus_counts

        def recording(relation):
            cold_counts.append(relation)
            return original(relation)

        monkeypatch.setattr(dumas_module, "field_corpus_counts", recording)
        clone = left.copy()
        warm = DumasMatcher().match(left, clone, prepared=prepared)
        assert [id(relation) for relation in cold_counts] == [id(left), id(clone)]
        cold = DumasMatcher().match(left, clone)
        assert matching_fingerprint(warm) == matching_fingerprint(cold)
        assert len(cold_counts) == 4


class TestFieldCorpusMerge:
    def test_merged_counts_equal_fresh_fit(self, ee_students, cs_students):
        """fit_counts(merged per-source artifacts) == fit(concatenated corpus)."""
        left = build_field_corpus(ee_students)
        right = build_field_corpus(cs_students)
        merged_frequency = dict(left.document_frequency)
        for term, frequency in right.document_frequency.items():
            merged_frequency[term] = merged_frequency.get(term, 0) + frequency

        from_counts = TfIdfVectorizer().fit_counts(
            merged_frequency, left.document_count + right.document_count
        )
        from_corpus = TfIdfVectorizer().fit(field_corpus_of(ee_students, cs_students))

        assert from_counts.document_count == from_corpus.document_count
        assert from_counts.vocabulary == from_corpus.vocabulary
        for term in from_corpus.vocabulary:
            assert from_counts.idf(term) == from_corpus.idf(term)

    def test_artifact_counts_cells_not_rows(self, ee_students):
        artifact = build_field_corpus(ee_students)
        # 4 rows x 4 columns, no nulls: one document per non-null cell
        assert artifact.document_count == 16

    def test_merged_soft_tfidf_scores_are_bit_identical(self, ee_students, cs_students):
        left = build_field_corpus(ee_students)
        right = build_field_corpus(cs_students)
        merged_frequency = dict(left.document_frequency)
        for term, frequency in right.document_frequency.items():
            merged_frequency[term] = merged_frequency.get(term, 0) + frequency

        warm = SoftTfIdfSimilarity().fit_counts(
            merged_frequency, left.document_count + right.document_count
        )
        cold = SoftTfIdfSimilarity(corpus=field_corpus_of(ee_students, cs_students))
        for a, b in [
            ("Anna Schmidt", "Anna Schmidt"),
            ("Anna Schmidt", "Anna Schmitd"),
            ("Electrical Engineering", "Computer Science"),
            ("ben.mueller@hu-berlin.de", "ben.mueller@hu-berlin.de"),
            ("", "Anna"),
        ]:
            assert warm.compare(a, b) == cold.compare(a, b)


class TestSoftTfIdfUnfittedPath:
    """ISSUE 6 satellite: unfitted compare must not mutate the shared instance."""

    def test_compare_does_not_mutate_shared_vectorizer(self):
        measure = SoftTfIdfSimilarity()
        first = measure.compare("anna schmidt", "anna schmitd")
        # a comparison over a disjoint vocabulary must not disturb later scores
        measure.compare("totally different words here", "zzz qqq ppp")
        assert measure.compare("anna schmidt", "anna schmitd") == first
        assert measure.vectorizer.document_count == 0
        assert not measure._fitted

    def test_unfitted_compare_order_independence(self):
        pairs = [("alpha beta", "alpha bta"), ("gamma", "gamma delta")]
        forward = SoftTfIdfSimilarity()
        forward_scores = [forward.compare(a, b) for a, b in pairs]
        backward = SoftTfIdfSimilarity()
        backward_scores = [backward.compare(a, b) for a, b in reversed(pairs)]
        assert forward_scores == list(reversed(backward_scores))

    def test_empty_strings(self):
        measure = SoftTfIdfSimilarity()
        assert measure.compare("", "") == 1.0
        assert measure.compare("", "anna") == 0.0


class TestSecondaryCache:
    def test_cache_is_transparent(self, ee_students, cs_students):
        corpus = field_corpus_of(ee_students, cs_students)
        cached = SoftTfIdfSimilarity(corpus=corpus)
        uncached = SoftTfIdfSimilarity(corpus=corpus, secondary_cache_size=0)
        for a, b in [
            ("Anna Schmidt", "Anna Schmitd"),
            ("Ben Mueller", "Ben Muller"),
            ("Carla Weber", "Elena Wolf"),
        ]:
            assert cached.compare(a, b) == uncached.compare(a, b)
            # repeat: served from cache, still the same score
            assert cached.compare(a, b) == uncached.compare(a, b)

    def test_cache_respects_bound(self):
        measure = SoftTfIdfSimilarity(secondary_cache_size=4)
        measure.compare("alpha beta gamma delta", "aleph bet gimel dalet")
        measure.compare("one two three four five", "uno dos tres quatro")
        assert len(measure._secondary_cache) <= 4

    def test_cache_avoids_repeat_secondary_calls(self):
        calls = []

        def counting_secondary(left, right):
            calls.append((left, right))
            from repro.similarity.jaro import jaro_winkler_similarity

            return jaro_winkler_similarity(left, right)

        measure = SoftTfIdfSimilarity(secondary=counting_secondary)
        measure.compare("anna schmidt", "anna schmitd")
        first_round = len(calls)
        assert first_round > 0
        measure.compare("anna schmidt", "anna schmitd")
        assert len(calls) == first_round

    def test_disabled_cache_stays_empty(self):
        measure = SoftTfIdfSimilarity(secondary_cache_size=0)
        measure.compare("alpha beta", "aleph bet")
        assert measure._secondary_cache == {}
