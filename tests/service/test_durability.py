"""Durability + admission-control tests for the fusion service (ISSUE 8).

* A service with a data dir journals tenants, sources and per-step session
  snapshots; a fresh process pointed at the same directory recovers all of
  it with zero client re-upload, and a session resumed mid-wizard fuses
  bit-identically to the golden fixture.
* The same guarantee holds across a real ``SIGKILL`` of a ``hummer serve
  --data-dir`` subprocess (also exercised by the CI smoke job).
* A tenant whose bounded work queue is full answers 429 ``TenantBusy``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient, ServiceServer, ServiceState
from repro.service.client import ServiceError

from tests.service.conftest import GOLDEN_DIR, upload_golden

SRC_DIR = str(Path(__file__).parent.parent.parent / "src")
GOLDEN = json.loads((GOLDEN_DIR / "expected_fusion.json").read_text())


def golden_rounded(rows):
    """Row cells in the golden file's JSON-stable form (floats rounded)."""
    return [
        [round(value, 9) if isinstance(value, float) else value for value in row]
        for row in rows
    ]


class TestRestartRecovery:
    def test_fresh_process_recovers_tenants_sources_and_sessions(
        self, tmp_path, golden_csv
    ):
        data_dir = tmp_path / "state"

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("durable")
            aliases = upload_golden(client, golden_csv)
            session = client.create_session(aliases)["session"]
            client.advance(session, to="duplicate_detection")
            detection = client.session_status(session)["step_reports"][
                "duplicate_detection"
            ]["payload"]
        # `with` exit stopped the first process; only ids survive client-side

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="durable")
            # zero re-upload: registry, sources and session all recovered
            assert client.tenants() == ["durable"]
            assert client.sources() == ["crm", "shop"]
            status = client.session_status(session)
            assert status["completed_steps"] == [
                "choose_sources", "prepare", "schema_matching",
                "attribute_selection", "duplicate_detection",
            ]
            replayed = client.session_status(session)["step_reports"][
                "duplicate_detection"
            ]["payload"]
            assert replayed["clusters"] == detection["clusters"]
            client.run_to_completion(session)
            resumed = client.result(session)

        # the resumed run is bit-identical to the uninterrupted golden run
        assert resumed["columns"] == GOLDEN["columns"]
        assert golden_rounded(resumed["rows"]) == GOLDEN["rows"]

    def test_byte_order_mark_upload_replays_to_the_digest_it_was_snapshotted_at(
        self, tmp_path, golden_csv
    ):
        # The journal keeps the uploaded text, mark included; replay parses
        # it with the same loader, so the recovered source's digest matches
        # the session snapshot's and the session resumes.
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("marked")
            client.upload_csv("crm", "\ufeff" + golden_csv["crm"])
            client.upload_csv("shop", golden_csv["shop"])
            session = client.create_session(["crm", "shop"])["session"]
            client.advance(session, to="duplicate_detection")

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="marked")
            assert client.stats()["recovery"]["errors"] == []
            client.run_to_completion(session)
            resumed = client.result(session)

        assert resumed["columns"] == GOLDEN["columns"]
        assert golden_rounded(resumed["rows"]) == GOLDEN["rows"]

    def test_recovery_reports_in_stats(self, tmp_path, golden_csv):
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("observed")
            aliases = upload_golden(client, golden_csv)
            client.create_session(aliases)

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            stats = ServiceClient(second.base_url).stats()
            assert stats["recovery"]["recovered"] is True
            assert stats["recovery"]["tenants"] == 1
            assert stats["recovery"]["sessions"] == 1
            assert stats["recovery"]["errors"] == []
            assert stats["tenants"]["observed"]["sources"] == 2
            assert stats["tenants"]["observed"]["admission"]["queued"] == 0

    def test_deleted_tenant_stays_deleted_across_restart(
        self, tmp_path, golden_csv
    ):
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("ephemeral")
            upload_golden(client, golden_csv)
            client.delete_tenant()

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            assert ServiceClient(second.base_url).tenants() == []


#: A persisted artifact of the deleted ``profile`` kind: a pickle whose
#: artifact class no longer exists, so loading it would fail.
LEGACY_PROFILE_PICKLE = (
    b"(dp0\nVdigest\np1\nVstale\np2\nsVartifact\np3\n"
    b"crepro.prepare.artifacts\nSourceProfileArtifact\np4\ns."
)


class TestDataDirsWrittenBeforeThePlannerDeletion:
    """Data dirs from before the adaptive planner and its profile artifact."""

    def test_tenant_configured_with_adaptive_blocking_is_a_recovery_error(
        self, tmp_path, golden_csv
    ):
        from repro.service.journal import TenantJournal, tenant_dirname

        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("current")
            upload_golden(client, golden_csv)
        # a library caller created this tenant with the planner configured
        legacy_dir = data_dir / "tenants" / tenant_dirname("legacy")
        TenantJournal(legacy_dir / "journal.jsonl").append({
            "record": "tenant",
            "tenant": "legacy",
            "config": {"dedup": {"blocking": "adaptive"}},
        })

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="current")
            recovery = client.stats()["recovery"]
            assert recovery["tenants"] == 1
            assert len(recovery["errors"]) == 1
            assert "unknown blocking strategy 'adaptive'" in recovery["errors"][0]
            assert client.tenants() == ["current"]
            assert client.sources() == ["crm", "shop"]

    def test_stale_profile_pickle_is_never_read_and_goes_with_its_alias(
        self, tmp_path, golden_csv
    ):
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("warm")
            aliases = upload_golden(client, golden_csv)
            assert client.prepare(mode="lazy")["rebuilt"] == 3 * len(aliases)
        (artifact_dir,) = (data_dir / "tenants").glob("*/artifacts")
        crm_prefix = next(artifact_dir.glob("crm-*__token_index__*.pkl")).name.split("__")[0]
        legacy = artifact_dir / f"{crm_prefix}__profile__0123456789ab.pkl"
        legacy.write_bytes(LEGACY_PROFILE_PICKLE)

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="warm")
            assert client.stats()["recovery"]["errors"] == []
            report = client.prepare()
            assert report["rebuilt"] == 0
            assert report["reused"] == 3 * len(aliases)
            assert legacy.exists()
            # replacing the source invalidates its alias, stale kinds included
            client.upload_csv("crm", golden_csv["crm"], replace=True)
            assert not legacy.exists()


class TestCorruptJournals:
    """Recovery replays a journal's longest prefix of records, never a state
    that did not exist, and cuts the journal back to what it replayed."""

    @staticmethod
    def journal_of(data_dir):
        (path,) = (data_dir / "tenants").glob("*/journal.jsonl")
        return path

    def test_a_corrupt_middle_record_ends_the_replay(self, tmp_path, golden_csv):
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("audited")
            upload_golden(client, golden_csv)
        journal = self.journal_of(data_dir)
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["record"] for line in lines] == ["tenant", "source", "source"]
        extra = json.loads(lines[1])
        extra["body"]["alias"] = "extra"
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"record":"unregister","al\x00ias":"shop"}\n')  # garbled on disk
            handle.write(json.dumps(extra) + "\n")

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="audited")
            recovery = client.stats()["recovery"]
            assert recovery["tenants"] == 1
            (error,) = recovery["errors"]
            assert journal.parent.name in error and "line 4" in error
            # the state before the lost unregister: shop registered, no extra
            assert sorted(client.sources()) == ["crm", "shop"]
            client.upload_csv("later", golden_csv["crm"])
        rejected = journal.with_name("journal.jsonl.rejected").read_text(encoding="utf-8")
        assert rejected.splitlines()[1] == json.dumps(extra)

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as third:
            client = ServiceClient(third.base_url, tenant="audited")
            assert client.stats()["recovery"]["errors"] == []
            assert sorted(client.sources()) == ["crm", "later", "shop"]

    def test_a_torn_tail_still_recovers_every_complete_record(self, tmp_path, golden_csv):
        data_dir = tmp_path / "state"
        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as first:
            client = ServiceClient(first.base_url)
            client.create_tenant("torn")
            client.create_session(upload_golden(client, golden_csv))
        journal = self.journal_of(data_dir)
        complete = journal.read_text(encoding="utf-8")
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(complete.splitlines()[1][:40])  # an upload killed mid-append

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as second:
            client = ServiceClient(second.base_url, tenant="torn")
            recovery = client.stats()["recovery"]
            assert recovery["errors"] == []
            assert recovery["sessions"] == 1
            assert sorted(client.sources()) == ["crm", "shop"]
            client.upload_csv("later", golden_csv["crm"])
        # the torn line is gone; the upload after the restart follows the prefix
        assert journal.read_text(encoding="utf-8").startswith(complete + '{"record":"source"')

        with ServiceServer(state=ServiceState(data_dir=str(data_dir))) as third:
            client = ServiceClient(third.base_url, tenant="torn")
            recovery = client.stats()["recovery"]
            assert recovery["errors"] == []
            assert recovery["sessions"] == 1
            assert sorted(client.sources()) == ["crm", "later", "shop"]


class TestKillAndRestart:
    """The acceptance e2e: SIGKILL mid-wizard, restart, resume server-side."""

    @staticmethod
    def spawn(data_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--data-dir", str(data_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = process.stdout.readline()
        assert "listening on http://" in line, f"unexpected banner: {line!r}"
        port = int(line.rsplit(":", 1)[1])
        client = ServiceClient(f"http://127.0.0.1:{port}")
        deadline = time.monotonic() + 10
        while True:
            try:
                assert client.health()["status"] == "ok"
                return process, client
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)

    def test_sigkill_mid_wizard_then_restart_resumes_bit_identically(
        self, tmp_path, golden_csv
    ):
        data_dir = tmp_path / "state"

        process, client = self.spawn(data_dir)
        try:
            client.create_tenant("survivor")
            aliases = upload_golden(client, golden_csv)
            session = client.create_session(aliases)["session"]
            client.advance(session, to="duplicate_detection")
        finally:
            # hard kill: no atexit, no flush beyond the journal's own appends
            process.kill()
            process.wait(timeout=10)

        process, client = self.spawn(data_dir)
        try:
            client.tenant = "survivor"
            # zero client re-upload
            assert client.tenants() == ["survivor"]
            assert client.sources() == ["crm", "shop"]
            status = client.session_status(session)
            assert status["completed_steps"][-1] == "duplicate_detection"
            client.run_to_completion(session)
            resumed = client.result(session)
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

        assert resumed["columns"] == GOLDEN["columns"]
        assert golden_rounded(resumed["rows"]) == GOLDEN["rows"]


class TestBackpressure:
    def test_full_tenant_queue_answers_429(self, server, golden_csv):
        client = ServiceClient(server.base_url)
        client.create_tenant()
        try:
            aliases = upload_golden(client, golden_csv)
            session = client.create_session(aliases)["session"]

            tenant = server.state.tenants[client.tenant]
            catalog = tenant.sessions[session].session.pipeline.catalog
            started = threading.Event()
            release = threading.Event()
            original = catalog.fetch_many

            def gated_fetch(aliases):  # holds choose_sources until released
                started.set()
                release.wait(timeout=30)
                return original(aliases)

            catalog.fetch_many = gated_fetch
            tenant.max_queued = 0
            try:
                slow = threading.Thread(
                    target=lambda: ServiceClient(
                        server.base_url, tenant=client.tenant
                    ).advance(session),
                    daemon=True,
                )
                slow.start()
                # once the gated step runs, its request holds the tenant
                # lock and counts as the one in-flight slot
                assert started.wait(timeout=10), "step never started"
                assert tenant.admission_status()["in_flight"] == 1

                with pytest.raises(ServiceError) as caught:
                    client.advance(session)
                assert caught.value.status == 429
                assert caught.value.error_type == "TenantBusy"
                # the bounce happened at admission: nothing was queued
                assert tenant.admission_status()["queued"] == 0
            finally:
                tenant.max_queued = server.state.max_queued
                release.set()
                slow.join(timeout=30)
                del catalog.fetch_many
        finally:
            client.delete_tenant()

    def test_stats_exposes_pool_and_queue_settings(self, server):
        stats = ServiceClient(server.base_url).stats()
        assert stats["max_workers"] == server.state.max_workers
        assert stats["max_queued"] == server.state.max_queued
        assert stats["data_dir"] is None
        assert stats["recovery"]["recovered"] is False
