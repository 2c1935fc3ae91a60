"""Prepared-source artifacts: build per-source indexes once, merge at query time.

HumMer's demo workload is an *online service*: sources are registered once
and then queried repeatedly.  Before this package existed, every
``fuse()``/``query()`` re-tokenised relations for blocking and re-fitted
TF-IDF from scratch for DUMAS seeding and field matching — all per-source
work whose result never changes while the source data does not.

This package is the preparation layer between the
:class:`~repro.engine.catalog.Catalog` and the pipeline.  Per registered
relation it builds three **artifacts**, each keyed on the relation's stable
content digest:

* :class:`TokenPostingsArtifact` — the per-attribute token inverted index
  that :class:`~repro.dedup.blocking.token.TokenBlocking` otherwise rebuilds
  from cell values;
* :class:`~repro.matching.duplicate_seed.SeedStatistics` — whole-tuple
  TF-IDF term statistics for DUMAS seed discovery;
* :class:`FieldCorpusArtifact` — term/document frequencies over every
  non-null cell string, the corpus DUMAS's SoftTFIDF field measure is
  otherwise refitted on per source pair.

At query time the artifacts of the participating sources are **merged** —
postings are unioned with row offsets, document frequencies add into a
cross-source IDF — reproducing the cold computations bit for bit without
touching a single cell value.  The :class:`~repro.prepare.store.ArtifactStore`
lives on the catalog (one per catalog, invalidated with the sources) and
optionally persists to disk, so a freshly started process can serve its
first query warm.

See ``docs/architecture.md`` for the register → prepare → match → dedup →
fuse flow.
"""

from repro.prepare.artifacts import (
    ARTIFACT_KINDS,
    FIELD_KIND,
    SEED_KIND,
    TOKEN_KIND,
    FieldCorpusArtifact,
    TokenPostingsArtifact,
    build_field_corpus,
    build_seed_statistics,
    build_token_postings,
)
from repro.prepare.preparer import (
    PreparedQueryView,
    PreparedSources,
    SourceArtifacts,
    SourcePreparer,
)
from repro.prepare.store import ArtifactCounters, ArtifactStore

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
    "ArtifactStore",
    "ArtifactCounters",
    "SourcePreparer",
    "PreparedSources",
    "PreparedQueryView",
    "SourceArtifacts",
]
