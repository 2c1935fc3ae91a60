"""Metadata repository (source catalog).

The paper: *"A metadata repository stores all registered sources of data
under an alias.  Sources can include tables in a database, flat files, XML
files, web services, etc.  Since we assume relational data within the system,
the metadata repository additionally stores instructions to transform data
into its relational form."*

:class:`Catalog` is that repository.  A source is anything implementing
:class:`repro.engine.io.base.DataSource`; registration associates it with an
alias plus optional transformation instructions (a callable applied to the
relational form after loading).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.engine.io.base import DataSource
from repro.engine.io.inline import InlineSource
from repro.engine.relation import Relation
from repro.exceptions import SourceExistsError, UnknownSourceError

__all__ = ["SourceEntry", "Catalog"]

Transformation = Callable[[Relation], Relation]


@dataclass
class SourceEntry:
    """One registered source: alias, the source object, and transformation steps."""

    alias: str
    source: DataSource
    transformations: List[Transformation] = field(default_factory=list)
    description: str = ""

    def load(self) -> Relation:
        """Load the relational form of the source and apply the transformations."""
        relation = self.source.load().renamed(self.alias)
        for transformation in self.transformations:
            relation = transformation(relation)
        return relation


class Catalog:
    """Registry of data sources addressable by alias.

    Loaded relations are cached; :meth:`invalidate` drops the cache for
    sources whose backing data changed.

    The catalog also owns the :class:`~repro.prepare.store.ArtifactStore`
    holding each source's prepared artifacts (token postings, seeding
    statistics, field corpora — see :mod:`repro.prepare`).  Artifacts
    share the sources' lifecycle: they are invalidated whenever the source
    is replaced, unregistered or its load cache is dropped, and are rebuilt
    incrementally (only the changed sources) on the next prepare pass.

    Args:
        artifact_dir: optional directory for on-disk artifact persistence,
            so a freshly started process can serve its first query warm.
    """

    def __init__(self, artifact_dir: Optional[str] = None) -> None:
        # deferred import: repro.prepare consumes matching/dedup modules,
        # several of which import this module for type use
        from repro.prepare.store import ArtifactStore

        self._entries: Dict[str, SourceEntry] = {}
        self._cache: Dict[str, Relation] = {}
        self.artifacts = ArtifactStore(artifact_dir)

    # -- registration -----------------------------------------------------------

    def register(
        self,
        alias: str,
        source: Union[DataSource, Relation, Iterable[dict]],
        transformations: Optional[Iterable[Transformation]] = None,
        description: str = "",
        replace: bool = False,
    ) -> SourceEntry:
        """Register *source* under *alias*.

        *source* may be a :class:`DataSource`, an already-built
        :class:`Relation`, or an iterable of dictionaries (convenience for
        tests and examples).

        Re-registering with ``replace=True`` keeps the alias's original
        position in :meth:`aliases` (dict insertion order preserves the old
        slot): a replaced source is the *same* logical source with new data,
        so queries that enumerate the catalog see a stable order.  The alias
        spelling is updated to the new call's casing, and the load cache and
        all prepared artifacts of the alias are invalidated.
        """
        key = alias.lower()
        replacing = key in self._entries
        if replacing and not replace:
            raise SourceExistsError(f"alias {alias!r} is already registered")
        if isinstance(source, Relation):
            source = InlineSource(source)
        elif not isinstance(source, DataSource):
            source = InlineSource(Relation.from_dicts(list(source), name=alias))
        entry = SourceEntry(alias, source, list(transformations or ()), description)
        self._entries[key] = entry
        self._cache.pop(key, None)
        if replacing:
            # only replacement signals "data changed" — a first registration
            # (e.g. a fresh process bootstrapping the same catalog) keeps any
            # persisted artifacts, which digest validation vets on lookup
            self.artifacts.invalidate(key)
        return entry

    def unregister(self, alias: str) -> None:
        """Remove a registered source."""
        key = alias.lower()
        if key not in self._entries:
            raise UnknownSourceError(f"alias {alias!r} is not registered")
        del self._entries[key]
        self._cache.pop(key, None)
        self.artifacts.invalidate(key)

    # -- lookup -------------------------------------------------------------------

    def aliases(self) -> List[str]:
        """All registered aliases, in first-registration order.

        The order is stable under ``register(replace=True)``: replacing a
        source updates its entry in place (including the alias spelling) but
        never moves it to the end — see :meth:`register`.
        """
        return [entry.alias for entry in self._entries.values()]

    def has(self, alias: str) -> bool:
        """Whether *alias* is registered."""
        return alias.lower() in self._entries

    def entry(self, alias: str) -> SourceEntry:
        """The :class:`SourceEntry` for *alias*."""
        try:
            return self._entries[alias.lower()]
        except KeyError:
            raise UnknownSourceError(
                f"unknown source alias {alias!r}; registered: {', '.join(self.aliases()) or '(none)'}"
            ) from None

    def fetch(self, alias: str) -> Relation:
        """Load (or return the cached) relational form of *alias*."""
        key = alias.lower()
        if key not in self._cache:
            self._cache[key] = self.entry(alias).load()
        return self._cache[key]

    def fetch_many(self, aliases: Iterable[str]) -> List[Relation]:
        """Load several aliases in order."""
        return [self.fetch(alias) for alias in aliases]

    def invalidate(self, alias: Optional[str] = None) -> None:
        """Drop the load cache and prepared artifacts for one alias (or all).

        Call this when a source's backing data changed; the next
        :meth:`fetch` reloads, and the next prepare pass rebuilds only the
        invalidated artifacts (a reload that yields identical content would
        still rebuild — invalidation is an explicit "data changed" signal).
        """
        if alias is None:
            self._cache.clear()
            self.artifacts.invalidate()
        else:
            self._cache.pop(alias.lower(), None)
            self.artifacts.invalidate(alias)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, alias: object) -> bool:
        return isinstance(alias, str) and self.has(alias)

    def __repr__(self) -> str:
        return f"<Catalog: {', '.join(self.aliases()) or 'empty'}>"
