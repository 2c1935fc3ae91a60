"""Pluggable candidate-pair blocking for duplicate detection.

The seed detector enumerated every ``i < j`` tuple pair, which grows
quadratically and dominates pipeline runtime (experiment E4).  This package
turns pair enumeration into a strategy:

* :class:`AllPairsBlocking` — the exact quadratic baseline (default);
* :class:`SortedNeighborhoodBlocking` — multi-pass merge/purge windowing,
  ``O(n log n + n·w)`` per pass;
* :class:`TokenBlocking` — a frequency-capped token inverted index; a pair
  is a candidate iff it shares at least one block;
* :class:`UnionBlocking` — the merged proposals of several child strategies
  (``union:snm+token`` on the CLI), for inputs where one kind of evidence
  is not enough.

Strategies only *propose* pairs; scoring, filtering and clustering are
unchanged.  See ``docs/blocking.md`` for selection guidance.
"""

from __future__ import annotations

from typing import Union

from repro.dedup.blocking.allpairs import AllPairsBlocking
from repro.dedup.blocking.base import BlockingStrategy
from repro.dedup.blocking.sorted_neighborhood import SortedNeighborhoodBlocking
from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.blocking.union import UnionBlocking

__all__ = [
    "BlockingStrategy",
    "BlockingSpec",
    "AllPairsBlocking",
    "SortedNeighborhoodBlocking",
    "TokenBlocking",
    "UnionBlocking",
    "BLOCKING_STRATEGIES",
    "resolve_blocking",
]

#: CLI / config name → strategy class.
BLOCKING_STRATEGIES = {
    AllPairsBlocking.name: AllPairsBlocking,
    SortedNeighborhoodBlocking.name: SortedNeighborhoodBlocking,
    TokenBlocking.name: TokenBlocking,
    UnionBlocking.name: UnionBlocking,
}

#: What every ``blocking=`` parameter accepts: a strategy name (including the
#: composite ``"union:child+child"`` spelling), an instance or ``None``
#: (→ the all-pairs baseline).
BlockingSpec = Union[str, BlockingStrategy, None]


def resolve_blocking(spec: BlockingSpec, **options) -> BlockingStrategy:
    """Turn a strategy name, instance or ``None`` into a :class:`BlockingStrategy`.

    Args:
        spec: ``None`` (→ all-pairs baseline), a name from
            :data:`BLOCKING_STRATEGIES` (``"allpairs"``, ``"snm"``,
            ``"token"``, ``"union"``), a composite
            ``"union:snm+token"`` spelling naming the union's children, or
            an already-constructed strategy.
        options: keyword arguments for the strategy constructor when *spec*
            is a name (e.g. ``window=`` for SNM, ``max_block_size=`` for
            token blocking).
            Rejected when *spec* is an instance.
    """
    if spec is None:
        spec = AllPairsBlocking.name
    if isinstance(spec, BlockingStrategy):
        if options:
            raise ValueError(
                "blocking options cannot be combined with an already-constructed strategy"
            )
        return spec
    if isinstance(spec, str) and spec.startswith("union:"):
        child_names = [name.strip() for name in spec.split(":", 1)[1].split("+") if name.strip()]
        if not child_names:
            raise ValueError(
                "a union blocking spec names its children after the colon, "
                "e.g. 'union:snm+token'"
            )
        children = [resolve_blocking(name) for name in child_names]
        if options:
            raise ValueError(
                "blocking options cannot be combined with a composite union spec; "
                "construct UnionBlocking([...]) with configured child instances instead"
            )
        return UnionBlocking(children)
    try:
        strategy_class = BLOCKING_STRATEGIES[spec]
    except KeyError:
        known = ", ".join(sorted(BLOCKING_STRATEGIES))
        raise ValueError(f"unknown blocking strategy {spec!r} (known: {known})") from None
    return strategy_class(**options)
