"""The blocking-strategy contract.

Blocking decides *which* tuple pairs duplicate detection looks at.  The seed
implementation enumerated every ``i < j`` pair, which grows quadratically in
the number of tuples and dominates pipeline runtime (experiment E4).  A
blocking strategy replaces that double loop with a cheap index that proposes
only plausible pairs; the upper-bound filter and the full similarity measure
then run on the proposed pairs exactly as before.

A strategy is a pure pair proposer: it receives the relation and the
"interesting" attributes the similarity measure will compare, and yields
index pairs ``(i, j)`` with ``i < j``, each pair at most once.  Everything
downstream (cross-source filtering, upper-bound filtering, scoring,
classification, clustering) is unchanged, so swapping strategies can only
change *recall of the candidate stage*, never the score of a pair that is
proposed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.engine.relation import Relation
from repro.similarity.tokenize import normalize_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.prepare.preparer import PreparedQueryView

__all__ = ["BlockingStrategy", "normalise_value", "attribute_positions"]


def normalise_value(value) -> str:
    """Canonical text form of a cell value for key building.

    Uses the same accent-stripping normalisation as the similarity measures
    (:func:`repro.similarity.tokenize.normalize_text`), so blocking keys
    agree wherever the measure's value comparison would — e.g. ``"Jörg"``
    and ``"Jorg"`` build identical keys.
    """
    return normalize_text(str(value))


def attribute_positions(relation: Relation, attributes: Sequence[str]) -> List[Tuple[str, int]]:
    """(attribute, column position) for every attribute present in *relation*."""
    return [
        (attribute, relation.schema.position(attribute))
        for attribute in attributes
        if relation.schema.has_column(attribute)
    ]


class BlockingStrategy(ABC):
    """Proposes the candidate tuple pairs duplicate detection will compare.

    Subclasses implement :meth:`pairs`.  The contract:

    * every yielded pair satisfies ``i < j``;
    * no pair is yielded twice;
    * a pair that is not yielded is never compared — a strategy trades
      candidate-stage recall for speed, so only skip pairs that share no
      evidence of being duplicates.
    """

    #: Short machine name, used by the CLI and ``resolve_blocking``.
    name: str = "base"

    @abstractmethod
    def pairs(
        self,
        relation: Relation,
        attributes: Sequence[str],
        prepared: Optional["PreparedQueryView"] = None,
    ) -> Iterator[Tuple[int, int]]:
        """Yield candidate index pairs for *relation*.

        Args:
            relation: the combined (outer-unioned) relation to deduplicate.
            attributes: the "interesting" attributes selected for comparison;
                strategies derive their blocking keys from these.
            prepared: a prepared run's view; index-based strategies ask it
                for merged structures before building them cold.
        """

    def key_values(
        self, relation: Relation, attributes: Sequence[str]
    ) -> List[Tuple[str, int]]:
        """Helper shared by key-based strategies: resolved attribute positions."""
        return attribute_positions(relation, attributes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
