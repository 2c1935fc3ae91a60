"""Candidate-pair scoring: the one in-process path.

Blocking decides *which* pairs duplicate detection looks at; this module
filters and scores them.  Scoring runs in the calling process through the
measure's :class:`~repro.dedup.similarity_measure.ColumnarPairScorer`: the
upper-bound filter reads per-row trigram bitmasks (the OR of per-cell masks),
and the surviving pairs are scored attribute-major in one call, bit-identical
to the per-pair loop of ``upper_bound`` plus ``compare_rows`` /
``explain_rows``.

:class:`SerialExecutor` stays a class with a ``score_pairs(generator,
relation)`` method because ``hummerbench/layers.py`` wraps that attribute to
time the scoring layer; :meth:`CandidatePairGenerator.score_pairs
<repro.dedup.pairs.CandidatePairGenerator.score_pairs>` is its caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.dedup.pairs import PairScore

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.dedup.pairs import CandidatePairGenerator
    from repro.engine.relation import Relation

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Filters and scores every candidate pair in the calling process."""

    def score_pairs(
        self, generator: "CandidatePairGenerator", relation: "Relation"
    ) -> List[PairScore]:
        """Score *generator*'s candidate pairs of *relation*, in candidate order.

        Adds the filter's ``considered`` / ``pruned`` counts to
        ``generator.statistics`` and fires ``("pairs_scored", n, n)`` on the
        generator's progress callback once, after scoring.
        """
        scorer = generator.measure.columnar_scorer(relation)
        candidates = list(generator.candidate_indices(relation))
        survivors = candidates
        if generator.filter.enabled:
            threshold = generator.filter.threshold
            survivors = [
                pair for pair in candidates if scorer.upper_bound(*pair) >= threshold
            ]
        if generator.keep_evidence:
            scores = [
                PairScore(i, j, evidence.similarity, evidence)
                for (i, j), evidence in zip(survivors, scorer.explain(survivors))
            ]
        else:
            scores = [
                PairScore(i, j, similarity)
                for (i, j), similarity in zip(survivors, scorer.similarities(survivors))
            ]
        statistics = generator.statistics
        statistics.considered += len(candidates)
        statistics.pruned += len(candidates) - len(survivors)
        if generator.progress_callback is not None:
            generator.progress_callback("pairs_scored", len(candidates), len(candidates))
        return scores
