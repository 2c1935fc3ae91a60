"""Exhaustive pair enumeration — the baseline blocking strategy.

This is the seed behaviour of ``CandidatePairGenerator`` factored out behind
the :class:`~repro.dedup.blocking.base.BlockingStrategy` interface: every
``i < j`` pair is a candidate.  It is the only strategy with perfect
candidate-stage recall, and therefore the default; its cost is
``n·(n-1)/2`` pair proposals, which dominates runtime beyond a few hundred
tuples (experiment E4).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.dedup.blocking.base import BlockingStrategy
from repro.engine.relation import Relation

__all__ = ["AllPairsBlocking"]


class AllPairsBlocking(BlockingStrategy):
    """Every ``i < j`` pair is a candidate (exact, quadratic)."""

    name = "allpairs"

    def pairs(
        self, relation: Relation, attributes: Sequence[str], prepared=None
    ) -> Iterator[Tuple[int, int]]:
        size = len(relation)
        for i in range(size):
            for j in range(i + 1, size):
                yield (i, j)
