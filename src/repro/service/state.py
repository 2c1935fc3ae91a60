"""Multi-tenant service state: tenants, sessions, admission control, durability.

Each tenant owns one :class:`~repro.hummer.HumMer` instance plus an
admission gate: requests against the same tenant serialize behind an
``asyncio.Lock``, but the queue behind that lock is *bounded* — a tenant
with ``max_queued`` requests already outstanding answers 429
``TenantBusy`` instead of queuing without limit, and a step that outlived
the request timeout keeps the tenant busy (409 ``TenantBusy``) until the
orphaned worker actually settles, so no new request can interleave with a
still-running step.  Blocking pipeline work runs on a shared thread pool;
event callbacks fired from those worker threads are forwarded onto the
event loop with ``call_soon_threadsafe`` so stream handlers can wait on
plain ``asyncio.Event`` objects.

With ``data_dir`` the state is durable: each tenant gets its own on-disk
artifact directory (wired through ``PrepareConfig(artifact_dir=...)``) and
an append-only journal (:mod:`repro.service.journal`) of source uploads
and per-step session snapshots.  :meth:`ServiceState.recover` rebuilds the
whole registry in a fresh process — re-registering sources and
replay-restoring sessions — without the client re-uploading anything.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.config import FusionConfig
from repro.core.session import FusionSession
from repro.hummer import HumMer
from repro.service.errors import ApiError
from repro.service.journal import TenantJournal, relation_from_upload, tenant_dirname

__all__ = ["SessionHandle", "ServiceState", "Tenant"]


class SessionHandle:
    """A tenant's fusion session plus its buffered wizard events.

    Events (both :class:`StageEvent` and :class:`ProgressEvent`) are
    appended as JSON-able dicts in arrival order; ``changed`` wakes any
    stream handler waiting for news.  Buffers are append-only so a late
    subscriber replays the full history before following live events.
    ``closed_reason`` is set when the session can no longer advance (its
    tenant was deleted) so event streams terminate instead of waiting
    forever.
    """

    def __init__(self, session_id: str, session: FusionSession, loop: asyncio.AbstractEventLoop):
        self.id = session_id
        self.session = session
        self.events: List[Dict[str, Any]] = []
        self.changed = asyncio.Event()
        self.closed_reason: Optional[str] = None
        self._loop = loop
        session.subscribe(lambda event: self._record("stage", event))
        session.subscribe_progress(lambda event: self._record("progress", event))

    def _record(self, kind: str, event) -> None:
        payload = dataclasses.asdict(event)
        payload["event"] = kind
        # Steps run on worker threads; the buffer append is thread-safe in
        # itself, but waking waiters must happen on the loop thread.
        self.events.append(payload)
        self._loop.call_soon_threadsafe(self.changed.set)

    def notify(self) -> None:
        """Wake stream handlers from the loop thread (e.g. on completion)."""
        self.changed.set()

    def close(self, reason: str) -> None:
        """Mark the session as unable to advance and wake stream handlers."""
        self.closed_reason = reason
        self.changed.set()

    def status(self) -> Dict[str, Any]:
        session = self.session
        return {
            "session": self.id,
            "current_step": session.current_step,
            "completed_steps": list(session.completed_steps),
            "is_done": session.is_done,
            "events_buffered": len(self.events),
            "step_reports": {
                step: dict(report)
                for step, report in session.step_reports.items()
            },
        }


class Tenant:
    """One tenant: an isolated HumMer instance, sessions, and admission.

    Args:
        max_queued: bound on requests queued behind the tenant lock; one
            more may be in flight.  Exceeding it is a 429 ``TenantBusy``.
        journal: the tenant's durability journal (``None`` = in-memory
            only).
    """

    def __init__(self, tenant_id: str, loop: asyncio.AbstractEventLoop,
                 config: Optional[FusionConfig] = None, max_queued: int = 4,
                 journal: Optional[TenantJournal] = None):
        self.id = tenant_id
        self.hummer = HumMer(config=config)
        self.lock = asyncio.Lock()
        self.sessions: Dict[str, SessionHandle] = {}
        self.max_queued = max_queued
        self.journal = journal
        self.orphan: Optional[asyncio.Future] = None
        self._loop = loop
        self._next_session_id = 1
        self._in_flight = 0
        self._queued = 0

    # -- admission -----------------------------------------------------------------

    @property
    def orphaned(self) -> bool:
        """Whether a timed-out step is still running on a worker thread."""
        orphan = self.orphan
        if orphan is not None and orphan.done():
            self.orphan = None
            orphan = None
        return orphan is not None

    def mark_orphan(self, future: asyncio.Future) -> None:
        """Keep the tenant busy until a timed-out step's *future* settles."""
        self.orphan = future
        future.add_done_callback(self._orphan_settled)

    def _orphan_settled(self, future: asyncio.Future) -> None:
        if self.orphan is future:
            self.orphan = None
        if not future.cancelled():
            # retrieve so a failed orphan never logs "never retrieved"
            future.exception()
        # the orphaned step kept emitting events; wake any stream handlers
        for handle in self.sessions.values():
            handle.notify()

    def admission_status(self) -> Dict[str, Any]:
        """Queue depth and busyness, for tenant status and ``GET /stats``."""
        return {
            "in_flight": self._in_flight,
            "queued": self._queued,
            "max_queued": self.max_queued,
            "orphaned": self.orphaned,
        }

    def cluster_diagnostics(self) -> Optional[Dict[str, Any]]:
        """Cluster shape of the newest completed dedup step, or ``None``.

        Surfaces over-merging live: operators watch ``largest_cluster``
        balloon (transitive chaining) or ``chains_split`` climb (a graph
        strategy actively cutting weak bridges).  Sessions are scanned in
        creation order, so the most recent dedup report wins.
        """
        newest: Optional[Dict[str, Any]] = None
        for session_id, handle in self.sessions.items():
            report = handle.session.step_reports.get(
                FusionSession.DUPLICATE_DETECTION
            )
            if not report:
                continue
            payload = report.get("payload", {})
            if "clusters" not in payload:
                continue
            newest = {
                "session": session_id,
                "clusters": payload.get("clusters"),
                "largest_cluster": payload.get("largest_cluster"),
                "chains_split": payload.get("chains_split"),
                "clustering": payload.get("clustering"),
            }
        return newest

    @contextlib.asynccontextmanager
    async def admit(self, bounded: bool = True):
        """Serialize a request behind the tenant lock, with admission control.

        Only *bounded* (mutating) requests face admission checks: a tenant
        wedged by an orphaned (timed-out, still-running) step answers 409
        immediately, and a full queue answers 429.  Reads still serialize
        behind the lock but are never bounced — status must stay
        observable while the tenant is busy.
        """
        if bounded:
            self._check_orphan()
            if self._in_flight + self._queued > self.max_queued:
                raise ApiError(
                    429,
                    f"tenant {self.id!r} has {self._queued} queued request(s) "
                    f"(max_queued={self.max_queued}); retry later",
                    "TenantBusy",
                )
        self._queued += 1
        try:
            await self.lock.acquire()
        finally:
            self._queued -= 1
        self._in_flight += 1
        try:
            # the previous holder may have timed out and orphaned its step
            if bounded:
                self._check_orphan()
            yield
        finally:
            self._in_flight -= 1
            self.lock.release()

    def _check_orphan(self) -> None:
        if self.orphaned:
            raise ApiError(
                409,
                f"tenant {self.id!r} is busy: a timed-out step is still "
                "running; retry once it settles",
                "TenantBusy",
            )

    # -- sessions ------------------------------------------------------------------

    def add_session(self, session: FusionSession,
                    session_id: Optional[str] = None) -> SessionHandle:
        if session_id is None:
            session_id = f"s{self._next_session_id}"
            self._next_session_id += 1
        else:
            # recovery re-installs journaled ids; keep new ids collision-free
            match = re.fullmatch(r"s(\d+)", session_id)
            if match:
                self._next_session_id = max(
                    self._next_session_id, int(match.group(1)) + 1
                )
        handle = SessionHandle(session_id, session, self._loop)
        self.sessions[session_id] = handle
        if self.journal is not None and session.can_snapshot:
            # journal the snapshot after every completed step, from within
            # the step's own (worker-thread) stage callback — so a kill
            # between requests never loses a finished step
            session.subscribe(lambda event: self.record_session(handle))
        return handle

    def get_session(self, session_id: str) -> SessionHandle:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise ApiError(
                404, f"unknown session {session_id!r} for tenant {self.id!r}",
                "UnknownSession",
            ) from None

    # -- journaling ----------------------------------------------------------------

    def record_source(self, body: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append({"record": "source", "body": dict(body)})

    def record_unregister(self, alias: str) -> None:
        if self.journal is not None:
            self.journal.append({"record": "unregister", "alias": alias})

    def record_prepare_mode(self, mode: str) -> None:
        if self.journal is not None:
            self.journal.append({"record": "prepare_mode", "mode": mode})

    def record_session(self, handle: SessionHandle) -> None:
        if self.journal is None:
            return
        session = handle.session
        if not session.can_snapshot:
            return
        try:
            snapshot = session.to_dict()
        except Exception:
            # journaling is best-effort; never fail the step that fired it
            return
        self.journal.append(
            {"record": "session", "session": handle.id, "snapshot": snapshot}
        )


class ServiceState:
    """The registry of tenants plus the shared worker pool.

    Args:
        step_timeout: per-request ceiling (seconds) on blocking pipeline
            work; a step that exceeds it yields a 504 without killing the
            tenant (the tenant stays busy until the worker settles).
        max_workers: worker threads shared by all tenants.
        max_queued: per-tenant bound on requests queued behind the tenant
            lock (one more may be in flight); exceeding it is a 429.
        data_dir: optional directory for durability — per-tenant artifact
            dirs and journals under ``{data_dir}/tenants/``.  A fresh
            process pointed at the same directory rebuilds every tenant
            and session via :meth:`recover`.
    """

    def __init__(self, step_timeout: float = 300.0, max_workers: int = 4,
                 max_queued: int = 4, data_dir: Optional[str] = None):
        self.tenants: Dict[str, Tenant] = {}
        self.step_timeout = step_timeout
        self.max_workers = max_workers
        self.max_queued = max_queued
        self.data_dir = Path(data_dir) if data_dir else None
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="hummer-service"
        )
        self.recovery: Dict[str, Any] = {
            "recovered": False, "tenants": 0, "sessions": 0, "errors": [],
        }
        self._tenant_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    # -- tenants -------------------------------------------------------------------

    def _tenant_dir(self, tenant_id: str) -> Optional[Path]:
        if self.data_dir is None:
            return None
        return self.data_dir / "tenants" / tenant_dirname(tenant_id)

    def create_tenant(self, tenant_id: Optional[str] = None,
                      config: Optional[FusionConfig] = None,
                      _journal: bool = True) -> Tenant:
        if tenant_id is None:
            tenant_id = f"t{next(self._tenant_ids)}"
            while tenant_id in self.tenants:
                tenant_id = f"t{next(self._tenant_ids)}"
        elif not isinstance(tenant_id, str) or not tenant_id or "/" in tenant_id:
            # Only a non-empty string without '/' is one path segment of
            # /tenants/{t}; anything else would be a tenant no route reaches.
            raise ApiError(
                400,
                f"tenant id must be a non-empty string without '/', not {tenant_id!r}",
                "InvalidField",
            )
        if tenant_id in self.tenants:
            raise ApiError(409, f"tenant {tenant_id!r} already exists", "TenantExists")
        effective = config if config is not None else FusionConfig()
        journal = None
        tenant_dir = self._tenant_dir(tenant_id)
        if tenant_dir is not None:
            if effective.prepare.artifact_dir is None:
                # wire the per-tenant artifact directory through the config
                # tree (PrepareConfig → HumMer → Catalog → ArtifactStore)
                effective = effective.merged(
                    {"prepare": {"artifact_dir": str(tenant_dir / "artifacts")}}
                )
            journal = TenantJournal(tenant_dir / "journal.jsonl")
        tenant = Tenant(
            tenant_id, self.loop, config=effective,
            max_queued=self.max_queued, journal=journal,
        )
        self.tenants[tenant_id] = tenant
        if journal is not None and _journal:
            journal.append({
                "record": "tenant",
                "tenant": tenant_id,
                "config": config.to_dict() if config is not None else None,
            })
        return tenant

    def get_tenant(self, tenant_id: str) -> Tenant:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise ApiError(
                404, f"unknown tenant {tenant_id!r}", "UnknownTenant"
            ) from None

    def drop_tenant(self, tenant_id: str) -> None:
        tenant = self.get_tenant(tenant_id)
        del self.tenants[tenant_id]
        # open /events streams for this tenant's sessions must terminate
        # instead of waiting forever on sessions that cannot advance
        for handle in tenant.sessions.values():
            handle.close("tenant_deleted")
        tenant_dir = self._tenant_dir(tenant_id)
        if tenant_dir is not None:
            shutil.rmtree(tenant_dir, ignore_errors=True)

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Rebuild tenants and sessions from the data directory's journals.

        Idempotent; a no-op without ``data_dir``.  Runs blocking pipeline
        work (session replay) synchronously — call before serving traffic.
        Per-tenant failures are collected in the returned report (also at
        ``GET /stats`` under ``recovery``) instead of failing the boot.
        """
        if self.recovery["recovered"] or self.data_dir is None:
            return self.recovery
        self.recovery["recovered"] = True
        root = self.data_dir / "tenants"
        if not root.is_dir():
            return self.recovery
        for tenant_dir in sorted(root.iterdir()):
            journal_path = tenant_dir / "journal.jsonl"
            if not journal_path.is_file():
                continue
            try:
                records, stopped = TenantJournal(journal_path).recover()
                if stopped is not None:
                    self.recovery["errors"].append(
                        f"tenant journal {journal_path.parent.name}: line {stopped} is not "
                        f"a journal record; replay stopped before it"
                    )
                self._recover_tenant(records)
            except Exception as exc:
                self.recovery["errors"].append(
                    f"tenant journal {journal_path.parent.name}: {exc}"
                )
        return self.recovery

    def _recover_tenant(self, records: List[Dict[str, Any]]) -> None:
        if not records or records[0].get("record") != "tenant":
            raise ApiError(500, "journal does not start with a tenant record")
        tenant_id = records[0]["tenant"]
        config_data = records[0].get("config")
        config = FusionConfig.from_dict(config_data) if config_data else None
        tenant = self.create_tenant(tenant_id, config=config, _journal=False)
        self.recovery["tenants"] += 1
        snapshots: Dict[str, Dict[str, Any]] = {}
        for record in records[1:]:
            kind = record.get("record")
            if kind == "source":
                body = record.get("body") or {}
                relation = relation_from_upload(body)
                tenant.hummer.register(
                    body["alias"],
                    relation,
                    description=body.get("description", ""),
                    replace=bool(body.get("replace", False)),
                    prepare=body.get("prepare"),
                )
            elif kind == "unregister":
                tenant.hummer.unregister(record["alias"])
            elif kind == "prepare_mode":
                tenant.hummer.enable_prepare(record["mode"])
            elif kind == "session":
                # latest snapshot per session id wins; dict keeps first-seen order
                snapshots[record["session"]] = record["snapshot"]
        for session_id, snapshot in snapshots.items():
            try:
                session = tenant.hummer.restore_session(snapshot)
            except Exception as exc:
                self.recovery["errors"].append(
                    f"tenant {tenant_id!r} session {session_id!r}: {exc}"
                )
                continue
            tenant.add_session(session, session_id=session_id)
            self.recovery["sessions"] += 1

    # -- shared worker pool --------------------------------------------------------

    async def run_blocking(self, tenant: Tenant, call: Callable[[], Any]) -> Any:
        """Run *call* on the worker pool with the per-request timeout.

        Raises:
            TimeoutError: when the step exceeds ``step_timeout`` (mapped to
                504 by the error layer).  The worker thread itself is not
                interruptible — it finishes in the background — so the
                future is kept as the tenant's *orphan*: the tenant answers
                409 ``TenantBusy`` until the step actually settles, instead
                of letting the next request interleave with it.
        """
        future = self.loop.run_in_executor(self.executor, call)
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=self.step_timeout
            )
        except (TimeoutError, asyncio.TimeoutError):
            tenant.mark_orphan(future)
            raise

    # -- introspection -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service-wide stats: per-tenant depth, pool sizing, recovery report."""
        return {
            "tenants": {
                tenant_id: {
                    "sources": len(tenant.hummer.sources()),
                    "sessions": len(tenant.sessions),
                    "admission": tenant.admission_status(),
                    "clusters": tenant.cluster_diagnostics(),
                }
                for tenant_id, tenant in sorted(self.tenants.items())
            },
            "step_timeout": self.step_timeout,
            "max_workers": self.max_workers,
            "max_queued": self.max_queued,
            "data_dir": str(self.data_dir) if self.data_dir is not None else None,
            "recovery": self.recovery,
        }

    def close(self) -> None:
        self.executor.shutdown(wait=False)
