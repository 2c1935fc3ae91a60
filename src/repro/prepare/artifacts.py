"""The three per-source artifact kinds and their builders.

An artifact captures the *per-source* half of a pipeline computation — the
half that reads cell values and therefore dominates preparation-bound phase
cost.  Each builder is a pure function of one relation plus the consumer's
parameters; :mod:`repro.prepare.preparer` merges artifacts across sources at
query time.

Builders deliberately reuse the consumers' own primitives
(:meth:`TokenBlocking.index_codes`, the loop behind
:meth:`TokenBlocking.build_index`;
:func:`~repro.matching.duplicate_seed.compute_seed_statistics`;
:func:`~repro.matching.dumas.field_corpus_counts`) instead of
re-implementing tokenisation, so an artifact can never drift from what the
cold code path would compute.  All three read each column's cached word
tokens per dictionary code (:attr:`ColumnData.tokens
<repro.engine.columnar.ColumnData.tokens>`), so preparing a source
tokenises each of its distinct cells once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dedup.blocking.token import TokenBlocking
from repro.engine.relation import Relation
from repro.matching.dumas import field_corpus_counts
from repro.matching.duplicate_seed import SeedStatistics, compute_seed_statistics

__all__ = [
    "TOKEN_KIND",
    "SEED_KIND",
    "FIELD_KIND",
    "ARTIFACT_KINDS",
    "TokenPostingsArtifact",
    "FieldCorpusArtifact",
    "build_token_postings",
    "build_seed_statistics",
    "build_field_corpus",
    "token_params_key",
    "seed_params_key",
    "field_params_key",
]

#: Artifact kind names, used as store keys and counter labels.
TOKEN_KIND = "token_index"
SEED_KIND = "seed_statistics"
FIELD_KIND = "field_corpus"

#: Every kind a prepare pass builds (or reuses) for each source, in build order.
ARTIFACT_KINDS = (TOKEN_KIND, SEED_KIND, FIELD_KIND)


def token_params_key(strategy: TokenBlocking) -> Tuple:
    """The tokenisation knobs an index artifact depends on.

    The block-size caps are applied at pair-enumeration time, not index
    time, so they are deliberately *not* part of the key — one artifact
    serves every cap setting.
    """
    return (strategy.qgram, strategy.min_token_length)


#: The :class:`SeedStatistics` layout; part of the seed artifact key, so a
#: file persisted under an earlier layout is never looked up (and rebuilt).
SEED_LAYOUT = "flat-documents"


def seed_params_key(sample_limit: Optional[int]) -> Tuple:
    """The seeding knobs a statistics artifact depends on, plus its layout."""
    return (SEED_LAYOUT, sample_limit)


def field_params_key() -> Tuple:
    """The knobs a field-corpus artifact depends on.

    The corpus is tokenised with the stock :func:`tokenize` —
    the only tokenizer :class:`~repro.similarity.soft_tfidf.SoftTfIdfSimilarity`
    constructs in the DUMAS default measure — so there is nothing to key on.
    """
    return ()


@dataclass
class TokenPostingsArtifact:
    """Per-attribute token inverted index of one relation.

    ``postings[attribute]`` maps each token to the ascending row indices
    whose value of *attribute* contains it — exactly what
    :meth:`TokenBlocking.build_index` produces for that single attribute.
    Keeping attributes separate (rather than the row-level union the
    combined index needs) is what makes merging possible: at query time only
    the attributes that survived schema matching and attribute selection are
    unioned, per source, under the combined relation's row offsets.

    Attributes:
        row_count: tuples in the indexed relation.
        params: the tokenisation knobs (see :func:`token_params_key`).
        postings: lower-cased attribute name → token → ascending row indices.
    """

    row_count: int
    params: Tuple
    postings: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)

    def attribute_postings(self, attribute: str) -> Optional[Dict[str, List[int]]]:
        """The token index of one attribute (``None`` when not indexed)."""
        return self.postings.get(attribute.lower())


@dataclass
class FieldCorpusArtifact:
    """Term/document frequencies of one relation's non-null cell strings.

    This is the per-source half of the field corpus
    :meth:`DumasMatcher._default_measure` fits SoftTFIDF on: every non-null
    cell value, rendered with ``str``, is one document.  The artifact stores
    the reduction :meth:`TfIdfVectorizer.fit` performs over that corpus —
    per-term document frequency plus the document count — so match time only
    has to *add* the two sides' counts (frequencies add, corpus sizes add)
    and feed them to :meth:`TfIdfVectorizer.fit_counts`, which is
    bit-identical to fitting on the concatenated corpora.

    Attributes:
        document_count: non-null cells in the relation.
        document_frequency: term → number of cells whose string contains it.
    """

    document_count: int
    document_frequency: Dict[str, int] = field(default_factory=dict)


def build_field_corpus(relation: Relation) -> FieldCorpusArtifact:
    """Reduce *relation*'s non-null cell strings to field-corpus statistics
    (:func:`~repro.matching.dumas.field_corpus_counts`, the cold path's own
    count)."""
    document_frequency, document_count = field_corpus_counts(relation)
    return FieldCorpusArtifact(document_count, document_frequency)


def build_token_postings(
    relation: Relation, strategy: TokenBlocking
) -> TokenPostingsArtifact:
    """Index every attribute of *relation* with *strategy*'s tokenisation,
    from each column's cached dictionary codes and tokens."""
    postings: Dict[str, Dict[str, List[int]]] = {}
    for column, data in zip(relation.schema, relation.store.columns):
        postings[column.name.lower()] = strategy.index_codes([(data.tokens, data.dictionary[2])])
    return TokenPostingsArtifact(
        row_count=len(relation),
        params=token_params_key(strategy),
        postings=postings,
    )


def build_seed_statistics(
    relation: Relation, sample_limit: Optional[int]
) -> SeedStatistics:
    """Whole-tuple TF-IDF statistics for DUMAS seeding (delegates to matching)."""
    return compute_seed_statistics(relation, sample_limit)
