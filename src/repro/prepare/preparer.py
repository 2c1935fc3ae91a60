"""Building per-source artifacts and merging them at query time.

:class:`SourcePreparer` drives the build side: for each alias it fetches the
relation from the catalog and obtains the three artifact kinds from the
catalog's :class:`~repro.prepare.store.ArtifactStore` (reusing valid entries,
rebuilding stale ones).  The result is a :class:`PreparedSources` bundle.

The merge side is :class:`PreparedQueryView`, created per query once the
combined (outer-unioned) relation exists.  It knows the row offset of every
source inside the union and the column mapping schema matching induced, and
merges per-source artifacts into exactly the structure the cold code path
would compute over the combined relation: the blocking token index, whose
per-source per-attribute postings are unioned under the combined attributes
and shifted by the row offsets.

The merged index is *member-identical* to its cold counterpart (same sets,
same ascending orders), so preparing can change runtimes but never
results.  Cross-source seeding statistics merge inside
:meth:`DuplicateSeeder.find_seeds` itself; the bundle only resolves the
per-source halves.

Consumers receive the run's bundle or view as the call argument
``prepared`` (``DumasMatcher.match``, ``DuplicateSeeder.find_seeds``,
``DuplicateDetector.detect``, ``BlockingStrategy.pairs``) and build cold
wherever it returns ``None``; nothing is installed on the components a
:class:`~repro.hummer.HumMer` shares across its sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dedup.blocking.base import BlockingStrategy
from repro.dedup.blocking.token import TokenBlocking
from repro.dedup.blocking.union import UnionBlocking
from repro.engine.relation import Relation
from repro.matching.correspondences import CorrespondenceSet
from repro.matching.duplicate_seed import SeedStatistics
from repro.matching.transform import SOURCE_ID_COLUMN, apply_correspondences
from repro.prepare.artifacts import (
    FIELD_KIND,
    SEED_KIND,
    TOKEN_KIND,
    FieldCorpusArtifact,
    TokenPostingsArtifact,
    build_field_corpus,
    build_seed_statistics,
    build_token_postings,
    field_params_key,
    seed_params_key,
    token_params_key,
)
from repro.prepare.store import ArtifactCounters
from repro.similarity.tfidf import merge_counts

__all__ = [
    "SourceArtifacts",
    "SourcePreparer",
    "PreparedSources",
    "PreparedQueryView",
    "token_strategy_for",
]


def token_strategy_for(strategy: Optional[BlockingStrategy]) -> TokenBlocking:
    """The token strategy whose parameters artifact building should mirror.

    Walks the blocking graph: a :class:`TokenBlocking` is taken directly, a
    :class:`UnionBlocking` contributes its first token child.  Any other (or
    no) strategy yields a stock :class:`TokenBlocking` — artifacts are then
    still useful for default token blocking.
    """
    if isinstance(strategy, TokenBlocking):
        return strategy
    if isinstance(strategy, UnionBlocking):
        for child in strategy.children:
            if isinstance(child, (TokenBlocking, UnionBlocking)):
                return token_strategy_for(child)
    return TokenBlocking()


@dataclass
class SourceArtifacts:
    """The three prepared artifacts of one registered source."""

    alias: str
    relation: Relation
    digest: str
    token: TokenPostingsArtifact
    seeds: SeedStatistics
    field_corpus: FieldCorpusArtifact


class SourcePreparer:
    """Builds (or reuses) the artifacts of registered sources.

    All three :data:`~repro.prepare.artifacts.ARTIFACT_KINDS` are built
    regardless of the strategy the *current* query uses: artifacts are a
    per-source investment for an online service, and the next query may
    block differently (``--blocking token`` after ``snm``) or match a
    different source pair — gating on today's strategy would just turn
    those into cold starts.  Callers that
    know better can prepare a store directly via
    :meth:`ArtifactStore.get_or_build` with only the kinds they want.

    Args:
        catalog: the catalog whose :attr:`~repro.engine.catalog.Catalog.artifacts`
            store holds the artifacts.
        token_strategy: the :class:`TokenBlocking` whose tokenisation the
            index artifacts must mirror (default: a stock instance — the
            parameters every default pipeline uses).
        seed_sample_limit: the seeder's ``max_tuples_per_relation`` the
            seeding statistics are sampled with.
    """

    def __init__(
        self,
        catalog,
        token_strategy: Optional[TokenBlocking] = None,
        seed_sample_limit: Optional[int] = 500,
    ):
        self.catalog = catalog
        self.token_strategy = token_strategy or TokenBlocking()
        self.seed_sample_limit = seed_sample_limit

    def prepare(self, aliases: Sequence[str]) -> "PreparedSources":
        """Ensure all three artifacts exist and are current for every alias."""
        store = self.catalog.artifacts
        before = store.counters.snapshot()
        bundles: List[SourceArtifacts] = []
        for alias in aliases:
            relation = self.catalog.fetch(alias)
            digest = relation.content_digest()
            token = store.get_or_build(
                alias,
                TOKEN_KIND,
                token_params_key(self.token_strategy),
                relation,
                lambda relation=relation: build_token_postings(relation, self.token_strategy),
                digest=digest,
            )
            seeds = store.get_or_build(
                alias,
                SEED_KIND,
                seed_params_key(self.seed_sample_limit),
                relation,
                lambda relation=relation: build_seed_statistics(
                    relation, self.seed_sample_limit
                ),
                digest=digest,
            )
            field_corpus = store.get_or_build(
                alias,
                FIELD_KIND,
                field_params_key(),
                relation,
                lambda relation=relation: build_field_corpus(relation),
                digest=digest,
            )
            bundles.append(
                SourceArtifacts(
                    alias=alias,
                    relation=relation,
                    digest=digest,
                    token=token,
                    seeds=seeds,
                    field_corpus=field_corpus,
                )
            )
        return PreparedSources(bundles=bundles, counters=store.counters.diff(before))


@dataclass
class PreparedSources:
    """The artifacts of one query's sources, plus this prepare pass's counters."""

    bundles: List[SourceArtifacts]
    counters: ArtifactCounters
    _by_relation_id: Dict[int, SourceArtifacts] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_relation_id = {id(bundle.relation): bundle for bundle in self.bundles}

    def bundle_for(self, relation: Relation) -> Optional[SourceArtifacts]:
        """The bundle whose source relation is *relation* (object identity)."""
        return self._by_relation_id.get(id(relation))

    def report(self) -> Dict[str, Any]:
        """JSON-serialisable summary for the pipeline result and the CLI."""
        report = {"sources": [bundle.alias for bundle in self.bundles]}
        report.update(self.counters.as_dict())
        return report

    # -- seeding ------------------------------------------------------------------

    def seed_statistics(
        self, relation: Relation, sample_limit: Optional[int]
    ) -> Optional[SeedStatistics]:
        """Prebuilt seeding statistics for *relation*, when valid for *sample_limit*."""
        bundle = self.bundle_for(relation)
        if bundle is None or bundle.seeds.sample_limit != sample_limit:
            return None
        return bundle.seeds

    # -- field matching -----------------------------------------------------------

    def field_corpus(
        self, left: Relation, right: Relation
    ) -> Optional[Tuple[Dict[str, int], int]]:
        """Merged field-corpus statistics for a (*left*, *right*) match pair.

        Document frequencies add and corpus sizes add, so feeding the merge
        to :meth:`TfIdfVectorizer.fit_counts` reproduces bit for bit the
        model a fresh fit over both relations' concatenated cell strings
        would learn.  Returns ``None`` (→ the matcher builds cold) when
        either relation is not a prepared source of this bundle.
        """
        left_bundle = self.bundle_for(left)
        right_bundle = self.bundle_for(right)
        if left_bundle is None or right_bundle is None:
            return None
        left_corpus, right_corpus = left_bundle.field_corpus, right_bundle.field_corpus
        return merge_counts(
            (left_corpus.document_frequency, left_corpus.document_count),
            (right_corpus.document_frequency, right_corpus.document_count),
        )

    # -- the per-query merge view -------------------------------------------------

    def view(
        self,
        combined: Relation,
        correspondences: Optional[CorrespondenceSet] = None,
        preferred: Optional[str] = None,
    ) -> Optional["PreparedQueryView"]:
        """A merge view over *combined*, or ``None`` when rows do not line up.

        *combined* must be the outer union of the bundles' relations in
        bundle order (what :func:`~repro.matching.transform.transform_sources`
        produced for the same sources and *correspondences*).
        """
        if len(combined) != sum(len(bundle.relation) for bundle in self.bundles):
            return None
        return PreparedQueryView(
            prepared=self,
            combined=combined,
            correspondences=correspondences or CorrespondenceSet(),
            preferred=preferred
            or (self.bundles[0].relation.name if self.bundles else ""),
        )


class PreparedQueryView:
    """Merges per-source artifacts into combined-relation structures."""

    def __init__(
        self,
        prepared: PreparedSources,
        combined: Relation,
        correspondences: CorrespondenceSet,
        preferred: str,
    ):
        self.prepared = prepared
        self.combined = combined
        # row offset of each source inside the union, and the column mapping
        # schema matching induced: combined attribute → source attribute
        self._offsets: List[int] = []
        self._mappings: List[Dict[str, str]] = []
        offset = 0
        for bundle in prepared.bundles:
            self._offsets.append(offset)
            offset += len(bundle.relation)
            renamed = apply_correspondences(bundle.relation, correspondences, preferred)
            mapping = {
                renamed_name.lower(): original_name.lower()
                for renamed_name, original_name in zip(
                    renamed.schema.names, bundle.relation.schema.names
                )
            }
            self._mappings.append(mapping)

    # -- merged structures --------------------------------------------------------

    def token_index(
        self, relation: Relation, attributes: Sequence[str], cap: Optional[int] = None
    ) -> Optional[Dict[str, List[int]]]:
        """The combined token inverted index, merged from per-source postings.

        With *cap* (the block-size cap of :meth:`TokenBlocking.pairs`), a
        token whose merged block must exceed the cap is left out.  Sources
        occupy disjoint row ranges, and a source's rows for a token are the
        union of its attributes' postings, at least its longest posting; so
        the sum over sources of the longest posting is a lower bound on the
        merged block, and a token whose bound exceeds the cap is a block
        ``pairs()`` would drop.  Kept tokens keep their first-seen order
        (source, then attribute, then posting order), so the candidate
        sequence is unchanged; without *cap* the index is complete.

        Returns ``None`` (→ the caller builds cold) when the request is not
        for this view's combined relation or an attribute the artifacts
        cannot cover (the synthetic ``sourceID``) is requested.
        """
        plan = self._merge_plan(relation, attributes)
        if plan is None:
            return None
        # token → its (row offset, posting) in source, then attribute order
        found: Dict[str, List[Tuple[int, List[int]]]] = {}
        for bundle, offset, mapped_attributes in zip(self.prepared.bundles, self._offsets, plan):
            for mapped in mapped_attributes:
                postings = None if mapped is None else bundle.token.attribute_postings(mapped)
                for token, members in (postings or {}).items():
                    entry = found.get(token)
                    if entry is None:
                        found[token] = [(offset, members)]
                    else:
                        entry.append((offset, members))
        merged: Dict[str, List[int]] = {}
        for token, entries in found.items():
            if len(entries) == 1:
                offset, members = entries[0]
                if cap is None or len(members) <= cap:
                    merged[token] = [member + offset for member in members]
                continue
            # sources holding rows have distinct offsets
            by_source: Dict[int, List[List[int]]] = {}
            for offset, members in entries:
                by_source.setdefault(offset, []).append(members)
            if cap is not None and sum(max(map(len, lists)) for lists in by_source.values()) > cap:
                continue
            rows = merged[token] = []
            for offset, lists in by_source.items():
                members = lists[0] if len(lists) == 1 else sorted(set().union(*lists))
                rows.extend(member + offset for member in members)
        return merged

    def _merge_plan(
        self, relation: Relation, attributes: Sequence[str]
    ) -> Optional[List[List[Optional[str]]]]:
        """Per source, the mapped source attribute of every requested attribute.

        ``None`` signals "serve nothing, build cold": foreign relation or an
        unservable attribute.
        """
        if relation is not self.combined:
            return None
        requested = [attribute.lower() for attribute in attributes]
        if SOURCE_ID_COLUMN.lower() in requested:
            # sourceID is synthesised during transformation; the per-source
            # artifacts have never seen it, so the merge cannot serve it.
            return None
        return [
            [mapping.get(attribute) for attribute in requested]
            for mapping in self._mappings
        ]
