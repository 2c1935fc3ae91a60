"""The DUMAS schema matcher: seed duplicates → field matrices → matching.

This is the pairwise algorithm of Bilke & Naumann (ICDE 2005) as summarised
in the HumMer paper §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.relation import Relation
from repro.exceptions import InsufficientDuplicatesError
from repro.matching.assignment import maximum_weight_matching
from repro.matching.correspondences import Correspondence, CorrespondenceSet
from repro.matching.duplicate_seed import (
    DuplicateSeeder,
    SeedPair,
    SeedScoringStatistics,
    StatisticsMemo,
)
from repro.matching.field_matrix import (
    FieldSimilarityMatrix,
    average_matrices,
    build_field_matrix,
)
from repro.similarity.soft_tfidf import SoftTfIdfSimilarity
from repro.similarity.tfidf import merge_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedSources

__all__ = ["MatchingResult", "DumasMatcher", "field_corpus_counts"]


@dataclass
class MatchingResult:
    """Everything the matching phase produces (for inspection/adjustment in the demo).

    Attributes:
        correspondences: the pruned 1:1 correspondences.
        seeds: the seed duplicate pairs that drove the matching.
        matrix: the averaged field-similarity matrix.
    """

    correspondences: CorrespondenceSet
    seeds: List[SeedPair] = field(default_factory=list)
    matrix: Optional[FieldSimilarityMatrix] = None

    def __repr__(self) -> str:
        return (
            f"MatchingResult({len(self.correspondences)} correspondences "
            f"from {len(self.seeds)} seed duplicates)"
        )


class DumasMatcher:
    """Pairwise instance-based schema matcher.

    Args:
        max_seeds: number of seed duplicates to use (more seeds → more robust
            correspondences, more comparisons).
        min_seed_similarity: whole-tuple TF-IDF threshold below which a pair
            is not trusted as a seed.
        correspondence_threshold: correspondences with an averaged field
            similarity below this are pruned (paper: "correspondences with a
            similarity score below a given threshold are pruned").
        field_measure: optional override for the field comparison measure
            (default: SoftTFIDF fitted on both relations' values).
    """

    def __init__(
        self,
        max_seeds: int = 10,
        min_seed_similarity: float = 0.25,
        correspondence_threshold: float = 0.35,
        field_measure: Optional[Callable[[str, str], float]] = None,
    ):
        self.max_seeds = max_seeds
        self.min_seed_similarity = min_seed_similarity
        self.correspondence_threshold = correspondence_threshold
        self.field_measure = field_measure
        self.seeder = DuplicateSeeder(
            max_seeds=max_seeds, min_similarity=min_seed_similarity
        )

    def match(
        self,
        left: Relation,
        right: Relation,
        prepared: Optional["PreparedSources"] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
        scoring: Optional[SeedScoringStatistics] = None,
        memo: Optional[StatisticsMemo] = None,
    ) -> MatchingResult:
        """Derive attribute correspondences between *left* (preferred) and *right*.

        *prepared* (the run's :class:`PreparedSources`) serves the seeding
        statistics and the field corpus; what it cannot serve is built here,
        once per *memo* when one is given (:class:`MultiMatcher` shares one
        across its pairwise matches); *progress_callback* also gets one
        ``"field_matrices"`` event per seed matrix built; the seeder adds its
        counters to *scoring*.

        Raises:
            InsufficientDuplicatesError: if no seed duplicates at all could be
                found — the caller may fall back to a name-based matcher or
                ask the user.
        """
        memo = memo if memo is not None else StatisticsMemo()
        seeds = self.seeder.find_seeds(
            left, right, prepared=prepared, progress_callback=progress_callback,
            scoring=scoring, memo=memo,
        )
        if not seeds:
            raise InsufficientDuplicatesError(
                f"no overlapping tuples found between {left.name or 'left'!r} and "
                f"{right.name or 'right'!r}; instance-based matching needs shared objects"
            )
        measure = self.field_measure or self._default_measure(left, right, prepared, memo)
        matrices = []
        for built, seed in enumerate(seeds, start=1):
            matrices.append(build_field_matrix(left, right, seed, measure=measure))
            if progress_callback is not None:
                progress_callback("field_matrices", built, len(seeds))
        averaged = average_matrices(matrices)
        triples = maximum_weight_matching(
            averaged.scores, min_weight=self.correspondence_threshold
        )
        correspondences = CorrespondenceSet(
            Correspondence(
                left_relation=left.name or "left",
                left_attribute=averaged.left_attributes[i],
                right_relation=right.name or "right",
                right_attribute=averaged.right_attributes[j],
                score=score,
                origin="instance",
            )
            for i, j, score in triples
        )
        return MatchingResult(correspondences=correspondences, seeds=seeds, matrix=averaged)

    def _default_measure(
        self, left: Relation, right: Relation, prepared, memo: StatisticsMemo
    ) -> Callable[[str, str], float]:
        """SoftTFIDF fitted on both relations' non-null cell strings.

        The IDF model is fitted from merged per-relation document
        frequencies (bit-identical to a fit on the concatenated cell
        strings — counts add and per-term IDF is a pure function of them):
        *prepared* sources serve their prebuilt counts, others are counted
        by :func:`field_corpus_counts`, once per *memo*.
        """
        merged = prepared.field_corpus(left, right) if prepared is not None else None
        if merged is None:
            merged = merge_counts(
                memo.get(field_corpus_counts, left), memo.get(field_corpus_counts, right)
            )
        return SoftTfIdfSimilarity().fit_counts(*merged)


def field_corpus_counts(relation: Relation) -> Tuple[Dict[str, int], int]:
    """``(document_frequency, document_count)`` of *relation*'s field corpus.

    Every non-null cell, rendered with ``str``, is one document, so this is
    the reduction :meth:`TfIdfVectorizer.fit` performs over those strings
    (one count per document, document frequency over the *set* of its
    tokens), computed once per distinct cell of each column's dictionary
    (from the column's cached tokens) and weighted by the cell's count.
    Terms enter in first-occurrence order, so the dict's order (and the
    persisted artifact's bytes) do not depend on ``PYTHONHASHSEED``.
    """
    document_frequency: Dict[str, int] = {}
    document_count = 0
    for column in relation.store.columns:
        counts = column.dictionary[1]
        for tokens, count in zip(column.tokens, counts):
            for term in dict.fromkeys(tokens):
                document_frequency[term] = document_frequency.get(term, 0) + count
        document_count += sum(counts)
    return document_frequency, document_count
