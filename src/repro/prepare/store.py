"""Content-addressed artifact store, owned by the catalog.

One :class:`ArtifactStore` lives on each
:class:`~repro.engine.catalog.Catalog`.  Entries are keyed by
``(alias, kind, params)`` and validated against the registered relation's
stable content digest on every lookup, so a source whose data changed —
``register(replace=True)``, ``invalidate()`` followed by a reload that
returned different rows, or an entirely new source under the old alias —
can never be served a stale artifact: the digest mismatch forces a rebuild.

With an ``artifact_dir`` the store also persists artifacts as pickle files,
one per entry, so a freshly started process serves its first query warm.
Disk entries go through the same digest validation as in-memory ones.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.relation import Relation

__all__ = ["ArtifactCounters", "ArtifactStore"]


@dataclass
class ArtifactCounters:
    """How often artifacts were served from the store vs rebuilt, per kind."""

    reused: Dict[str, int] = field(default_factory=dict)
    rebuilt: Dict[str, int] = field(default_factory=dict)

    @property
    def total_reused(self) -> int:
        return sum(self.reused.values())

    @property
    def total_rebuilt(self) -> int:
        return sum(self.rebuilt.values())

    def record(self, kind: str, reused: bool) -> None:
        bucket = self.reused if reused else self.rebuilt
        bucket[kind] = bucket.get(kind, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reused": self.total_reused,
            "rebuilt": self.total_rebuilt,
            "reused_by_kind": dict(self.reused),
            "rebuilt_by_kind": dict(self.rebuilt),
        }

    def diff(self, earlier: "ArtifactCounters") -> "ArtifactCounters":
        """Counters accumulated since *earlier* (a snapshot of this object)."""
        result = ArtifactCounters()
        for kind, count in self.reused.items():
            delta = count - earlier.reused.get(kind, 0)
            if delta:
                result.reused[kind] = delta
        for kind, count in self.rebuilt.items():
            delta = count - earlier.rebuilt.get(kind, 0)
            if delta:
                result.rebuilt[kind] = delta
        return result

    def snapshot(self) -> "ArtifactCounters":
        return ArtifactCounters(reused=dict(self.reused), rebuilt=dict(self.rebuilt))


@dataclass
class _Entry:
    digest: str
    artifact: Any


class ArtifactStore:
    """Per-source derived structures, validated by content digest.

    Args:
        artifact_dir: optional directory for on-disk persistence.  Created
            on first write.  Files are pickles named
            ``{alias}__{kind}__{params digest}.pkl``; unreadable or
            mismatching files are treated as misses and overwritten.  Writing
            one removes the alias's files of the same kind under other
            parameter digests, so a key nothing builds any more (an earlier
            ``SEED_LAYOUT``, changed tokenisation knobs) leaves no file behind.
    """

    def __init__(self, artifact_dir: Optional[str] = None) -> None:
        self._entries: Dict[Tuple[str, str, str], _Entry] = {}
        self._directory = Path(artifact_dir) if artifact_dir else None
        self.counters = ArtifactCounters()

    @property
    def directory(self) -> Optional[Path]:
        """The on-disk persistence directory, if configured."""
        return self._directory

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / build -----------------------------------------------------------

    def get_or_build(
        self,
        alias: str,
        kind: str,
        params: Tuple,
        relation: "Relation",
        builder: Callable[[], Any],
        digest: Optional[str] = None,
    ) -> Any:
        """The artifact for ``(alias, kind, params)``, rebuilt if stale.

        *digest* may be passed when the caller already computed the
        relation's content digest (one digest validates all three artifact
        kinds of a source during a prepare pass).
        """
        key = self._key(alias, kind, params)
        digest = digest or relation.content_digest()
        entry = self._entries.get(key)
        if entry is not None and entry.digest == digest:
            self.counters.record(kind, reused=True)
            return entry.artifact
        entry = self._load(key, digest)
        if entry is not None:
            self._entries[key] = entry
            self.counters.record(kind, reused=True)
            return entry.artifact
        artifact = builder()
        entry = _Entry(digest=digest, artifact=artifact)
        self._entries[key] = entry
        self._dump(key, entry)
        self.counters.record(kind, reused=False)
        return artifact

    def peek(self, alias: str, kind: str, params: Tuple) -> Optional[Any]:
        """The stored artifact without validation or counting (tests, tooling)."""
        entry = self._entries.get(self._key(alias, kind, params))
        return entry.artifact if entry is not None else None

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, alias: Optional[str] = None) -> None:
        """Drop artifacts of one alias (or all).

        Digest validation already guarantees staleness safety; dropping
        eagerly additionally frees memory and removes persisted files whose
        source is gone.  Persisted files are matched by the alias's file
        prefix, not the in-memory entries, so a fresh process that replaces
        or unregisters a source before ever preparing it still cleans up the
        previous process's files.
        """
        if alias is None:
            keys = list(self._entries)
        else:
            lowered = alias.lower()
            keys = [key for key in self._entries if key[0] == lowered]
        for key in keys:
            del self._entries[key]
        if self._directory is not None and self._directory.exists():
            pattern = "*.pkl" if alias is None else f"{self._alias_prefix(alias.lower())}__*.pkl"
            for path in self._directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- persistence --------------------------------------------------------------

    @staticmethod
    def _key(alias: str, kind: str, params: Tuple) -> Tuple[str, str, str]:
        params_digest = hashlib.sha256(repr(params).encode("utf-8")).hexdigest()[:12]
        return (alias.lower(), kind, params_digest)

    @staticmethod
    def _alias_prefix(alias: str) -> str:
        # readable prefix + alias digest, so sanitised aliases cannot collide
        safe_alias = re.sub(r"[^a-z0-9_.-]", "_", alias)[:40]
        alias_digest = hashlib.sha256(alias.encode("utf-8")).hexdigest()[:8]
        return f"{safe_alias}-{alias_digest}"

    def _path(self, key: Tuple[str, str, str]) -> Optional[Path]:
        if self._directory is None:
            return None
        alias, kind, params_digest = key
        return self._directory / f"{self._alias_prefix(alias)}__{kind}__{params_digest}.pkl"

    def _load(self, key: Tuple[str, str, str], digest: str) -> Optional[_Entry]:
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
            if payload.get("digest") != digest:
                return None
            return _Entry(digest=digest, artifact=payload["artifact"])
        except Exception:
            return None

    def _dump(self, key: Tuple[str, str, str], entry: _Entry) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as handle:
                pickle.dump({"digest": entry.digest, "artifact": entry.artifact}, handle)
            alias, kind, _ = key
            for stale in self._directory.glob(f"{self._alias_prefix(alias)}__{kind}__*.pkl"):
                if stale != path:
                    stale.unlink(missing_ok=True)
        except OSError:
            # Persistence is an optimisation; an unwritable directory must
            # never fail the query.
            pass

