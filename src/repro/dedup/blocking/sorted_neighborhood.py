"""Sorted-neighborhood blocking (Hernández & Stolfo's merge/purge method).

Sort the tuples on a cheap blocking key, slide a fixed-size window over the
sorted order and propose only the pairs that co-occur in some window.  One
pass costs ``O(n log n + n·w)`` instead of ``O(n²)``; duplicates whose key
values sort far apart in one pass are recovered by running *multiple passes*
over different keys (one per interesting attribute by default) and taking the
union of the proposed pairs.

The default sort key is *rarest token first*: the words of a value are
reordered by ascending corpus frequency before sorting, so
``"Freie Berlin Universitaet"`` and ``"Freie Universitaet Berlin"`` map to
the same key (word-order corruption is canonicalised away) and the most
identifying token — the one the similarity measure weighs highest via soft
IDF — leads the sort order.  Classic raw-value keys are available with
``key_style="value"``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.dedup.blocking.base import BlockingStrategy, normalise_value
from repro.engine.relation import Relation

__all__ = ["SortedNeighborhoodBlocking"]

#: Valid ``key_style`` values: frequency-canonicalised vs. plain text keys.
_KEY_STYLES = ("rare-first", "value")


class SortedNeighborhoodBlocking(BlockingStrategy):
    """Multi-pass sorted-neighborhood candidate generation.

    Args:
        window: number of consecutive tuples (in sorted order) each tuple is
            paired with; a tuple at sorted position ``p`` is paired with the
            tuples at positions ``p+1 .. p+window-1``.  Must be ≥ 2 — a
            window of 2 pairs only immediate neighbours.
        keys: attributes to sort on, one pass per key.  Defaults to the
            interesting attributes handed in by the detector (most
            identifying first), so a duplicate pair is proposed as long as
            *any* high-weight attribute sorts the two tuples close together.
        max_keys: cap on the number of passes when *keys* is defaulted
            (default 5).  The attributes arrive ordered by identifying
            power, so the cap drops the weakest passes — typically short
            numeric attributes whose windows propose many pairs the
            upper-bound filter cannot prune.
        key_style: ``"rare-first"`` (default) reorders each value's words by
            ascending corpus frequency before sorting, canonicalising word
            swaps and clustering tuples by their most identifying token;
            ``"value"`` sorts on the plain normalised value.
    """

    name = "snm"

    def __init__(
        self,
        window: int = 10,
        keys: Optional[Sequence[str]] = None,
        max_keys: Optional[int] = 5,
        key_style: str = "rare-first",
    ):
        if window < 2:
            raise ValueError("sorted-neighborhood window must be at least 2")
        if max_keys is not None and max_keys < 1:
            raise ValueError("max_keys must be at least 1 when given")
        if key_style not in _KEY_STYLES:
            raise ValueError(f"key_style must be one of {_KEY_STYLES}, got {key_style!r}")
        self.window = window
        self.keys = list(keys) if keys is not None else None
        self.max_keys = max_keys
        self.key_style = key_style

    def pass_keys(self, attributes: Sequence[str]) -> List[str]:
        """The attributes to run passes over.

        Explicit *keys* are used as given; the defaulted attribute list is
        capped at *max_keys* (it arrives most-identifying-first).
        """
        if self.keys is not None:
            return list(self.keys)
        keys = list(attributes)
        if self.max_keys is not None:
            keys = keys[: self.max_keys]
        return keys

    def pass_order(self, relation: Relation, position: int) -> List[int]:
        """Row indices of one pass, sorted by blocking key.

        Tuples with a null key sit the pass out: after the outer union many
        attributes are null for entire sources, and windowing a block of
        key-less tuples only proposes junk pairs.  A null-keyed tuple is
        recovered by the passes over its non-null attributes.
        """
        # Columnar pass: one zero-copy column fetch plus its cached null mask
        # instead of materialising every row tuple to read a single cell.
        column = relation.column_at(position)
        mask = relation.store.null_mask(position)
        tokenised: List[Optional[List[str]]] = []
        frequencies: Counter = Counter()
        for value, null in zip(column, mask):
            if null:
                tokenised.append(None)
                continue
            tokens = normalise_value(value).split()
            tokenised.append(tokens)
            frequencies.update(set(tokens))
        keyed: List[Tuple[str, int]] = []
        for index, tokens in enumerate(tokenised):
            if tokens is None:
                continue
            if self.key_style == "rare-first":
                key = " ".join(sorted(tokens, key=lambda token: (frequencies[token], token)))
            else:
                key = " ".join(tokens)
            keyed.append((key, index))
        keyed.sort()
        return [index for _, index in keyed]

    def pairs(
        self, relation: Relation, attributes: Sequence[str], prepared=None
    ) -> Iterator[Tuple[int, int]]:
        seen: Set[Tuple[int, int]] = set()
        for attribute, position in self.key_values(relation, self.pass_keys(attributes)):
            order = self.pass_order(relation, position)
            for start, left in enumerate(order):
                for right in order[start + 1 : start + self.window]:
                    pair = (left, right) if left < right else (right, left)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    yield pair

    def __repr__(self) -> str:
        return (
            f"SortedNeighborhoodBlocking(window={self.window}, "
            f"keys={self.keys!r}, max_keys={self.max_keys!r}, "
            f"key_style={self.key_style!r})"
        )
