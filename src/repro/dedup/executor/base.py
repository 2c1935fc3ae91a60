"""The scoring-executor contract.

Blocking (PR 1) made candidate *generation* near-linear, which leaves
full-measure scoring of the surviving pairs as the dedup hot path.  Scoring
is embarrassingly parallel — each pair is filtered and compared independently
of every other pair — so this package turns the scoring loop into a strategy,
the second pluggable axis of the dedup pipeline after blocking.

A :class:`ScoringExecutor` receives the fully configured
:class:`~repro.dedup.pairs.CandidatePairGenerator` and the relation and
returns the list of :class:`~repro.dedup.pairs.PairScore` for every candidate
pair that survives the upper-bound filter.  The contract:

* the returned scores are **identical** (same pairs, same similarities, same
  order) to what the serial loop produces — executors change *where* pairs
  are scored, never *what* is scored;
* the generator's shared :class:`~repro.dedup.filters.FilterStatistics` ends
  up with the same counter values as a serial run (parallel executors merge
  their workers' partial counts back deterministically);
* candidate enumeration (blocking + cross-source rule) always happens in the
  calling process — only filtering and scoring fan out.

:class:`ScoringBatch`/:func:`score_batch` are the shared primitives: a
picklable snapshot of everything one worker needs, and the pure function that
scores a slice of pairs against it.  Every path — the serial executor, the
multiprocess fallback and the pool workers — funnels through
:func:`score_batch`, which is what makes byte-identical results structural
rather than a matter of keeping parallel loops in sync.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.dedup.pairs import CandidatePairGenerator, PairScore
    from repro.engine.relation import Relation

__all__ = ["ScoringBatch", "BatchScores", "ScoringExecutor", "score_batch", "score_with_filter"]


@dataclass
class ScoringBatch:
    """Everything a worker needs to filter and score candidate pairs.

    The snapshot is **columnar**: it ships only the measure's selected
    columns (zero-copy value lists off the relation's
    :class:`~repro.engine.columnar.ColumnStore`) plus their cached null
    masks, not the full row tuples — the worker pickle shrinks to exactly
    the cells scoring reads.  It is built once per ``score_pairs`` call and
    shipped to every worker through the process-pool initializer, so it is
    pickled once per worker rather than once per batch.  ``measure`` must be
    fitted; its transient trigram cache is dropped during pickling
    (:meth:`DuplicateSimilarityMeasure.__getstate__`).

    Attributes:
        measure: the fitted similarity measure (picklable snapshot).
        columns: selected attribute → full values list, in row-index order.
        null_masks: selected attribute → cached null mask (1 = null).
        filter_threshold: upper-bound filter threshold.
        use_filter: whether the upper-bound filter is applied at all.
        keep_evidence: retain per-attribute evidence on every scored pair.
    """

    measure: "object"
    columns: Dict[str, List]
    null_masks: Dict[str, bytes]
    filter_threshold: float
    use_filter: bool
    keep_evidence: bool
    #: Lazily built per-process :class:`ColumnarPairScorer`; its memo tables
    #: (trigram sets, cell-pair similarities, prepared cells, token-pair
    #: Jaro-Winkler scores, soft-IDF weights) persist across the chunks a
    #: worker scores.  Never pickled.
    _scorer: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_generator(
        cls, generator: "CandidatePairGenerator", relation: "Relation"
    ) -> "ScoringBatch":
        """Snapshot *generator*'s scoring configuration over *relation*."""
        measure = generator.measure
        attributes = measure.fitted_attributes
        return cls(
            measure=measure,
            columns={attribute: relation.column(attribute) for attribute in attributes},
            null_masks={
                attribute: relation.null_mask(attribute) for attribute in attributes
            },
            filter_threshold=generator.filter.threshold,
            use_filter=generator.filter.enabled,
            keep_evidence=generator.keep_evidence,
        )

    def scorer(self):
        """The batch scorer, built on first use and cached per process."""
        if self._scorer is None:
            self._scorer = self.measure.columnar_scorer(self.columns, self.null_masks)
        return self._scorer

    def __getstate__(self) -> dict:
        # The scorer holds per-process memo tables; workers rebuild it
        # lazily for exactly the rows they touch.
        state = self.__dict__.copy()
        state["_scorer"] = None
        return state


@dataclass
class BatchScores:
    """One worker's result for one batch: scores plus partial filter counters."""

    scores: List["PairScore"] = field(default_factory=list)
    considered: int = 0
    pruned: int = 0


def score_batch(batch: ScoringBatch, pairs: Iterable[Tuple[int, int]]) -> BatchScores:
    """Filter and score one slice of candidate pairs against a snapshot.

    Pure function of its arguments — safe to run in any process.  This is
    the single scoring path: the serial executor, the multiprocess fallback
    and the pool workers all call it, which is what makes executor parity
    structural rather than a matter of keeping copies in sync.

    The chunk is scored through the measure's columnar batch kernels: the
    upper-bound filter runs over per-row cached trigram sets, and the
    surviving pairs are scored attribute-major in one
    :meth:`ColumnarPairScorer.similarities` / :meth:`~ColumnarPairScorer.explain`
    call.  Counters mirror :meth:`UpperBoundFilter.passes` exactly
    (considered counts every pair, pruned counts filter rejections) so
    partial counters merge into the generator's :class:`FilterStatistics`
    without drift, and scores come back in candidate order — both
    bit-identical to the per-pair reference loop.
    """
    from repro.dedup.pairs import PairScore

    scorer = batch.scorer()
    result = BatchScores()
    pairs = list(pairs)
    result.considered = len(pairs)
    if batch.use_filter:
        threshold = batch.filter_threshold
        survivors = [
            pair for pair in pairs if scorer.upper_bound(pair[0], pair[1]) >= threshold
        ]
        result.pruned = result.considered - len(survivors)
    else:
        survivors = pairs
    if batch.keep_evidence:
        for (i, j), evidence in zip(survivors, scorer.explain(survivors)):
            result.scores.append(PairScore(i, j, evidence.similarity, evidence))
    else:
        for (i, j), similarity in zip(survivors, scorer.similarities(survivors)):
            result.scores.append(PairScore(i, j, similarity))
    return result


def score_with_filter(
    generator: "CandidatePairGenerator",
    relation: "Relation",
    pairs: Iterable[Tuple[int, int]],
) -> List["PairScore"]:
    """Score *pairs* in-process and merge the counters into the generator.

    The serial executor and the multiprocess executor's small-input fallback
    run the same :func:`score_batch` path the pool workers do — against the
    generator's live measure, with the filter counters folded into the shared
    :class:`FilterStatistics` afterwards.  The generator's optional
    ``progress_callback`` fires once for the whole (single-batch) run:
    ``("pairs_scored", considered, considered)``.
    """
    result = score_batch(ScoringBatch.from_generator(generator, relation), pairs)
    statistics = generator.statistics
    statistics.considered += result.considered
    statistics.pruned += result.pruned
    callback = getattr(generator, "progress_callback", None)
    if callback is not None:
        callback("pairs_scored", result.considered, result.considered)
    return result.scores


class ScoringExecutor(ABC):
    """Runs the filter + full-measure scoring stage over candidate pairs.

    Subclasses implement :meth:`score_pairs`.  Candidate enumeration stays in
    the calling process; only the per-pair work (upper-bound filter, full
    comparison) may fan out.  Results and statistics must match the serial
    loop exactly — see the module docstring for the full contract.
    """

    #: Short machine name, used by the CLI and ``resolve_executor``.
    name: str = "base"

    @abstractmethod
    def score_pairs(
        self, generator: "CandidatePairGenerator", relation: "Relation"
    ) -> List["PairScore"]:
        """Filter and score every candidate pair of *relation*.

        Args:
            generator: the configured generator (measure, filter, blocking).
            relation: the combined relation being deduplicated.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
