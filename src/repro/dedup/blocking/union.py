"""Union blocking — merge the pair proposals of several child strategies.

A single lossy strategy misses a true duplicate pair when its one kind of
evidence is destroyed: heavy typos break whole-token sharing (token
blocking), leading-character corruption breaks sort locality (sorted
neighborhood).  Those failure modes are largely independent, so the union of
several cheap proposers recovers pairs any one of them would drop — the
propose-from-cheap-indexes, verify-with-the-full-measure shape of sparse
bipartite enumeration.  The price is the union of the candidate counts, so
this is for high-corruption inputs, not the default.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Set, Tuple

from repro.dedup.blocking.base import BlockingStrategy
from repro.engine.relation import Relation

__all__ = ["UnionBlocking"]

#: Child strategies used when ``UnionBlocking()`` is constructed bare (the
#: ``--blocking union`` CLI spelling): one sort-based and one index-based
#: proposer, covering complementary corruption modes.
DEFAULT_CHILDREN = ("snm", "token")


class UnionBlocking(BlockingStrategy):
    """Proposes every pair that at least one child strategy proposes.

    Args:
        children: the child strategies, each anything ``resolve_blocking``
            accepts (a name, an instance, or ``None``).  Defaults to
            ``("snm", "token")``.  The CLI spelling ``union:snm+token``
            resolves to this class with the named children.
    """

    name = "union"

    def __init__(self, children: Sequence = DEFAULT_CHILDREN):
        # imported here: the package __init__ imports this module
        from repro.dedup.blocking import resolve_blocking

        resolved: List[BlockingStrategy] = [resolve_blocking(child) for child in children]
        if not resolved:
            raise ValueError(
                "union blocking needs at least one child strategy, e.g. "
                "UnionBlocking(['snm', 'token'])"
            )
        self.children = resolved

    def pairs(
        self, relation: Relation, attributes: Sequence[str], prepared=None
    ) -> Iterator[Tuple[int, int]]:
        seen: Set[Tuple[int, int]] = set()
        for child in self.children:
            for pair in child.pairs(relation, attributes, prepared):
                if pair in seen:
                    continue
                seen.add(pair)
                yield pair

    def __repr__(self) -> str:
        return f"UnionBlocking(children={self.children!r})"
