"""Per-tenant durability journal: append-only JSONL under ``--data-dir``.

Each tenant of a durable :class:`~repro.service.state.ServiceState` owns one
journal file::

    {data_dir}/tenants/{tenant-dirname}/journal.jsonl
    {data_dir}/tenants/{tenant-dirname}/artifacts/        (ArtifactStore)

The journal records everything needed to rebuild the tenant in a fresh
process without the client re-uploading anything — in arrival order:

* ``{"record": "tenant", "tenant": id, "config": {...}|null}`` — first line;
* ``{"record": "source", "body": {...}}`` — a successful source upload
  (the full request body, so replay goes through the same construction);
* ``{"record": "unregister", "alias": a}`` — a source removal;
* ``{"record": "prepare_mode", "mode": m}`` — preparation switched on;
* ``{"record": "session", "session": id, "snapshot": {...}}`` — a
  :meth:`FusionSession.to_dict` snapshot, appended at session creation and
  after every completed step / decision batch.  The *latest* snapshot per
  session id wins on recovery.

Appends are best-effort (an unwritable directory never fails the request,
mirroring :class:`~repro.prepare.store.ArtifactStore`).  Recovery tolerates
a truncated final line — the shape a kill mid-append leaves behind — but
stops at a corrupt record that has records after it, and cuts the journal
back to what it replayed (:meth:`TenantJournal.recover`).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.engine.relation import Relation
from repro.engine.io.csv_source import relation_from_csv_text
from repro.service.errors import ApiError

__all__ = ["TenantJournal", "relation_from_upload", "tenant_dirname"]


def tenant_dirname(tenant_id: str) -> str:
    """Filesystem-safe directory name for a tenant id.

    Readable prefix plus an id digest, so sanitised ids cannot collide
    (same scheme as the artifact store's alias prefixes).
    """
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", tenant_id)[:40]
    digest = hashlib.sha256(tenant_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


def relation_from_upload(body: Mapping[str, Any]) -> Relation:
    """Build the relation described by a source-upload request body.

    Shared by the upload handler and journal replay so a recovered source
    is constructed by exactly the code path that registered it.  It also
    validates the fields the handler reads (``alias``, ``replace``), so a
    malformed upload is a 400 naming the field before anything registers.
    """
    alias = body.get("alias")
    if alias is None:
        raise ApiError(400, "missing required field 'alias'", "MissingField")
    if not isinstance(alias, str):
        raise ApiError(400, f"'alias' must be a string, not {alias!r}", "InvalidField")
    data = body.get("data")
    if data is None:
        raise ApiError(400, "missing required field 'data'", "MissingField")
    for flag in ("has_header", "replace"):
        value = body.get(flag)
        if value is not None and not isinstance(value, bool):
            raise ApiError(
                400, f"{flag!r} must be a JSON boolean, not {value!r}", "InvalidField"
            )
    fmt = body.get("format", "json")
    if fmt == "csv":
        if not isinstance(data, str):
            raise ApiError(400, "csv uploads send the file text in 'data'")
        return relation_from_csv_text(
            data,
            name=alias,
            delimiter=body.get("delimiter", ","),
            has_header=bool(body.get("has_header", True)),
            column_names=body.get("column_names"),
        )
    if fmt == "json":
        if not isinstance(data, list) or not all(isinstance(row, dict) for row in data):
            raise ApiError(
                400, "json uploads send a list of row objects in 'data'", "InvalidField"
            )
        return Relation.from_dicts(data, name=alias)
    raise ApiError(400, f"unknown source format {fmt!r} (csv or json)")


class TenantJournal:
    """Append-only JSONL journal for one tenant."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record; best-effort (an unwritable path is ignored)."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                handle.flush()
        except (OSError, TypeError, ValueError):
            # durability is an add-on: a full disk or unserialisable payload
            # must never fail the request that produced the record
            pass

    def recover(self) -> Tuple[List[Dict[str, Any]], Optional[int]]:
        """The records to replay, in order, and the line replay stopped at.

        A line that does not decode to a record (a JSON object) is tolerated
        only at the end of the journal: the torn tail a kill mid-append
        leaves.  A corrupt line with a record after it ends the replay
        there, since replaying past it could rebuild a state that never
        existed (a lost ``unregister`` leaves its source registered); its
        1-based number is returned second, else ``None``.

        The journal is then cut back to the replayed records, and the lines
        cut off are appended to ``<journal>.rejected``: records appended
        after this recovery must follow the state it rebuilt, not run into a
        torn line or sit behind a corrupt one that stops the next replay.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return [], None
        records: List[Dict[str, Any]] = []
        replayed = 0  # bytes of the journal holding the replayed records
        offset = 0
        corrupt: Optional[int] = None
        stopped: Optional[int] = None
        for number, line in enumerate(data.splitlines(keepends=True), start=1):
            offset += len(line)
            if not line.strip():
                continue
            record = _decode(line)
            if record is None:
                if corrupt is None:
                    corrupt = number
                continue
            if corrupt is not None:
                stopped = corrupt
                break
            records.append(record)
            replayed = offset
        self._cut(data, replayed)
        return records, stopped

    def _cut(self, data: bytes, length: int) -> None:
        """Keep the journal's first *length* bytes, newline-terminated, and
        append the rest to the rejected file.  Best-effort, like appends."""
        rest = data[length:]
        newline = length > 0 and data[length - 1:length] != b"\n"
        if not rest and not newline:
            return
        try:
            if rest:
                with self.path.with_name(self.path.name + ".rejected").open("ab") as handle:
                    handle.write(rest)
            with self.path.open("r+b") as handle:
                handle.truncate(length)
                if newline:
                    handle.seek(length)
                    handle.write(b"\n")
        except OSError:
            pass


def _decode(line: bytes) -> Optional[Dict[str, Any]]:
    """One journal line as a record, or ``None`` when it is not one."""
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None
