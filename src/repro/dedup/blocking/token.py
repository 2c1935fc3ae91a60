"""Token blocking — an inverted index over the interesting attributes.

Every non-null value of every interesting attribute is split into tokens
(optionally q-grams of those tokens for typo robustness); each token is a
*block* listing the tuples containing it, and a pair is a candidate iff the
two tuples share at least one block.  Tokens that occur in a large fraction
of the tuples ("the", a shared city, a constant label) would re-create the
quadratic blow-up inside a single block, so blocks are frequency-capped: any
block larger than the cap is dropped entirely.  Such stop-tokens carry no
identifying power, which is the same soft-IDF intuition the similarity
measure itself uses.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dedup.blocking.base import BlockingStrategy
from repro.engine.columnar import encode
from repro.engine.relation import Relation
from repro.similarity.tokenize import qgrams, tokenize

__all__ = ["TokenBlocking"]


class TokenBlocking(BlockingStrategy):
    """Candidate pairs share at least one (frequency-capped) token block.

    Args:
        qgram: when set, index the q-grams of each token instead of whole
            tokens, so single-character typos still land the pair in shared
            blocks.  ``None`` (default) indexes whole word tokens, which is
            cheaper and sufficient when several attributes are compared.
        max_block_size: absolute cap on a block's tuple count; larger blocks
            are dropped as stop-tokens.
        max_block_fraction: relative cap — a block is also dropped when it
            holds more than this fraction of all tuples.  The effective cap
            is the smaller of the two (but never below 2).
        min_token_length: tokens shorter than this are ignored; one- and
            two-character fragments ("a", "de") are near-stopwords and only
            inflate blocks.
    """

    name = "token"

    def __init__(
        self,
        qgram: Optional[int] = None,
        max_block_size: int = 50,
        max_block_fraction: float = 0.5,
        min_token_length: int = 3,
    ):
        if qgram is not None and qgram < 2:
            raise ValueError("qgram must be at least 2 when given")
        if max_block_size < 2:
            raise ValueError("max_block_size must be at least 2")
        if not 0.0 < max_block_fraction <= 1.0:
            raise ValueError("max_block_fraction must lie in (0, 1]")
        if min_token_length < 1:
            raise ValueError("min_token_length must be at least 1")
        self.qgram = qgram
        self.max_block_size = max_block_size
        self.max_block_fraction = max_block_fraction
        self.min_token_length = min_token_length

    def effective_cap(self, row_count: int) -> int:
        """The block-size cap for a relation of *row_count* tuples."""
        relative = math.ceil(row_count * self.max_block_fraction)
        return max(2, min(self.max_block_size, relative))

    def tokens(self, value) -> Set[str]:
        """The index tokens of one cell value.

        Tokenisation shares :mod:`repro.similarity.tokenize` with the
        similarity measures, so blocking sees values (accent stripping
        included) exactly as the measure will compare them.
        """
        return self.index_terms(tokenize(str(value)))

    def index_terms(self, words: Sequence[str]) -> Set[str]:
        """The index tokens of a cell whose word tokens are *words*: the
        words of at least ``min_token_length`` characters, or their q-grams."""
        words = [word for word in words if len(word) >= self.min_token_length]
        if self.qgram is None:
            return set(words)
        grams: Set[str] = set()
        for word in words:
            grams.update(qgrams(word, size=self.qgram, pad=False))
        return grams

    def build_index(
        self, relation: Relation, attributes: Sequence[str]
    ) -> Dict[str, List[int]]:
        """Token → sorted tuple indices, before frequency capping.

        Columnar build over a dictionary of each blocking attribute
        (:func:`~repro.engine.columnar.encode`, the rule of
        :meth:`Relation.dictionary <repro.engine.relation.Relation.dictionary>`):
        every distinct cell is tokenised once and indexed by
        :meth:`index_codes`.  The dictionary is encoded afresh on every
        call, so a relation mutated in place is indexed as it now is (a
        prepared source's postings read its cached dictionary and tokens
        instead, :func:`~repro.prepare.artifacts.build_token_postings`).
        """
        encoded = []
        for attribute, position in self.key_values(relation, attributes):
            values, _, codes = encode(relation.column_at(position), relation.null_mask(attribute))
            encoded.append(([tokenize(str(value)) for value in values], codes))
        return self.index_codes(encoded)

    def index_codes(
        self, columns: Sequence[Tuple[Sequence[Sequence[str]], Sequence[int]]]
    ) -> Dict[str, List[int]]:
        """Token → ascending row indices of columns given as ``(word tokens
        per dictionary code, codes)``.

        A row reads its cells' index tokens (:meth:`index_terms`) by code —
        no row tuple or :class:`Row` view is materialised.  Iteration is
        rows-outer; a row posts its cells' tokens in column order, each
        cell's in sorted order, and skips a token it already posted (a
        posting list's last entry is then its own row).  So the token order
        of the index, and with it the candidate emission order, is a
        function of the relation alone, never of string hashing
        (``PYTHONHASHSEED``).
        """
        index: Dict[str, List[int]] = {}
        encoded = [
            ([sorted(self.index_terms(words)) for words in tokens], codes)
            for tokens, codes in columns
        ]
        for row_index in range(len(encoded[0][1]) if encoded else 0):
            for cells, codes in encoded:
                code = codes[row_index]
                if code >= 0:
                    for token in cells[code]:
                        rows = index.get(token)
                        if rows is None:
                            index[token] = [row_index]
                        elif rows[-1] != row_index:
                            rows.append(row_index)
        return index

    def indexed_blocks(
        self, relation: Relation, attributes: Sequence[str], prepared=None, cap=None
    ) -> Dict[str, List[int]]:
        """The inverted index for *relation* — prepared when available.

        A prepared run's *prepared* view is asked first; a served index is
        the union of per-source postings built once per registered source,
        shifted to the combined relation's row offsets — member-identical to
        what :meth:`build_index` would tokenise afresh, except that
        with *cap* it may leave out blocks that must exceed the cap
        (:meth:`PreparedQueryView.token_index
        <repro.prepare.preparer.PreparedQueryView.token_index>`).  Without a
        view (standalone use) the index is always built
        cold: reuse lives in the catalog's artifact store, which knows when
        a source's data changed, not in a per-strategy cache that has to
        guess.
        """
        if prepared is not None:
            index = prepared.token_index(relation, attributes, cap)
            if index is not None:
                return index
        return self.build_index(relation, attributes)

    def pairs(
        self, relation: Relation, attributes: Sequence[str], prepared=None
    ) -> Iterator[Tuple[int, int]]:
        cap = self.effective_cap(len(relation))
        index = self.indexed_blocks(relation, attributes, prepared, cap)
        seen: Set[Tuple[int, int]] = set()
        for members in index.values():
            if len(members) < 2 or len(members) > cap:
                continue
            # members are in insertion order = ascending row index
            for left_position in range(len(members)):
                left = members[left_position]
                for right in members[left_position + 1 :]:
                    pair = (left, right)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    yield pair

    def __repr__(self) -> str:
        return (
            f"TokenBlocking(qgram={self.qgram!r}, max_block_size={self.max_block_size}, "
            f"max_block_fraction={self.max_block_fraction}, "
            f"min_token_length={self.min_token_length})"
        )
