"""Endpoint-level tests for the HTTP fusion service (ISSUE 7 tentpole).

Each test drives the real server over a real socket through
:class:`ServiceClient`; nothing is mocked.
"""

import time

import pytest

from repro.datagen.scenarios import students_scenario
from repro.engine.io.csv_source import relation_to_csv_text
from repro.service import ServiceClient
from repro.service.client import ServiceError

from tests.service.conftest import upload_golden


def settle_tenant(client, timeout=30.0):
    """Wait until the tenant's orphaned (timed-out) step has settled."""
    deadline = time.monotonic() + timeout
    while client.tenant_status()["admission"]["orphaned"]:
        if time.monotonic() > deadline:
            raise AssertionError("orphaned step never settled")
        time.sleep(0.05)


class TestLifecycle:
    def test_health(self, server):
        client = ServiceClient(server.base_url)
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"]

    def test_tenant_create_list_delete(self, server):
        client = ServiceClient(server.base_url)
        tenant = client.create_tenant()
        assert tenant in client.tenants()
        client.delete_tenant()
        assert tenant not in client.tenants()

    def test_named_tenant_conflict(self, server):
        client = ServiceClient(server.base_url)
        client.create_tenant("alpha-team")
        try:
            with pytest.raises(ServiceError) as caught:
                ServiceClient(server.base_url).create_tenant("alpha-team")
            assert caught.value.status == 409
        finally:
            client.delete_tenant()

    def test_unknown_tenant_is_404(self, server):
        client = ServiceClient(server.base_url, tenant="ghost")
        with pytest.raises(ServiceError) as caught:
            client.sources()
        assert caught.value.status == 404
        assert caught.value.error_type == "UnknownTenant"


class TestSources:
    def test_csv_and_json_uploads(self, client):
        report = client.upload_csv("a", "name,age\nAnna,30\nBen,25\n")
        assert report == {"alias": "a", "rows": 2, "columns": ["name", "age"]}
        client.upload_rows("b", [{"name": "Anna", "age": 31}])
        assert client.sources() == ["a", "b"]

    def test_duplicate_alias_conflict_and_replace(self, client):
        client.upload_rows("a", [{"x": 1}])
        with pytest.raises(ServiceError) as caught:
            client.upload_rows("a", [{"x": 2}])
        assert caught.value.status == 409
        client.upload_rows("a", [{"x": 2}], replace=True)

    def test_missing_fields_are_400(self, client):
        with pytest.raises(ServiceError) as caught:
            client._request(
                "POST", client._tenant_path("/sources"), {"format": "csv"}
            )
        assert caught.value.status == 400
        assert caught.value.error_type == "MissingField"

    def test_unknown_format_is_400(self, client):
        with pytest.raises(ServiceError) as caught:
            client._request(
                "POST",
                client._tenant_path("/sources"),
                {"alias": "a", "format": "parquet", "data": "x"},
            )
        assert caught.value.status == 400

    def test_delete_source(self, client):
        client.upload_rows("a", [{"x": 1}])
        client._request("DELETE", client._tenant_path("/sources/a"))
        assert client.sources() == []


class TestSessions:
    def test_stepped_session_to_result(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]

        status = client.advance(session)
        assert status["completed_steps"] == ["choose_sources"]
        status = client.advance(session, to="duplicate_detection")
        assert status["current_step"] == "conflict_resolution"
        with pytest.raises(ServiceError) as caught:
            client.result(session)
        assert caught.value.status == 409
        assert caught.value.error_type == "SessionNotDone"

        status = client.run_to_completion(session)
        assert status["is_done"]
        result = client.result(session)
        assert result["row_count"] > 0
        assert "objectID" in result["columns"]
        assert result["summary"]["sources"] == 2

    def test_result_as_csv(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.run_to_completion(session)
        text = client.result_csv(session)
        header, *rows = text.strip().splitlines()
        assert header.startswith("objectID,")
        assert len(rows) == client.result(session)["row_count"]

    def test_step_reports_carry_dedup_counters(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.run_to_completion(session)
        payload = client.session_status(session)["step_reports"][
            "duplicate_detection"
        ]["payload"]
        assert payload["pairs_scored"] > 0

    def test_decisions_recluster(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.advance(session, to="duplicate_detection")
        before = client.session_status(session)["step_reports"][
            "duplicate_detection"
        ]["payload"]["clusters"]
        # reject a cross-source pair that scored as a sure duplicate
        snapshot = client.snapshot(session)
        sure = snapshot["classified_segments"]["sure_duplicates"]
        assert sure, "golden fixtures contain at least one sure duplicate"
        left, right = sure[0]
        report = client.apply_decisions(session, [[left, right, False]])
        assert report["decisions"] == 1
        assert report["clusters"] >= before
        client.run_to_completion(session)
        assert client.result(session)["row_count"] >= before

    def test_decisions_before_detection_conflict(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        with pytest.raises(ServiceError) as caught:
            client.apply_decisions(session, [[0, 1, True]])
        assert caught.value.status == 409

    def test_bad_advance_target_is_400(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        with pytest.raises(ServiceError) as caught:
            client.advance(session, to="teleport")
        assert caught.value.status == 400

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as caught:
            client.session_status("s999")
        assert caught.value.status == 404
        assert caught.value.error_type == "UnknownSession"

    def test_resolutions_reach_fusion(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(
            aliases, resolutions={"name": "coalesce", "age": "max"}
        )["session"]
        client.run_to_completion(session)
        result = client.result(session)
        name_at = result["columns"].index("name")
        age_at = result["columns"].index("age")
        rows = [row for row in result["rows"] if row[name_at] == "Anna Schmidt"]
        assert len(rows) == 1  # the crm/shop Annas merged into one record
        assert rows[0][age_at] == 35  # max of 34 (crm) and 35 (shop)


class TestClusterDiagnostics:
    def test_tenant_status_has_no_diagnostics_before_dedup(self, client):
        assert client.tenant_status()["clusters"] is None

    def test_tenant_status_and_stats_surface_cluster_shape(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.run_to_completion(session)

        diagnostics = client.tenant_status()["clusters"]
        assert diagnostics["session"] == session
        assert diagnostics["clusters"] >= 1
        assert diagnostics["largest_cluster"] >= 2  # golden data has duplicates
        assert diagnostics["chains_split"] == 0  # transitive baseline never splits
        assert diagnostics["clustering"] == "transitive"

        per_tenant = client.stats()["tenants"][client.tenant]
        assert per_tenant["clusters"] == diagnostics

    def test_newest_session_wins(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        first = client.create_session(aliases)["session"]
        client.run_to_completion(first)
        second = client.create_session(aliases)["session"]
        client.run_to_completion(second)
        assert client.tenant_status()["clusters"]["session"] == second


class TestQuery:
    def test_fuse_by_query(self, client):
        client.upload_rows("a", [{"Name": "Anna", "Age": 22}])
        client.upload_rows("b", [{"Name": "Anna", "Age": 23}])
        result = client.query(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM a, b FUSE BY (Name)"
        )
        assert result["row_count"] == 1
        assert result["rows"][0][1] == 23

    def test_query_error_is_400(self, client):
        client.upload_rows("a", [{"x": 1}])
        with pytest.raises(ServiceError) as caught:
            client.query("SELECT FROM nothing garbage")
        assert caught.value.status == 400


class TestEventStream:
    def test_stream_replays_and_terminates(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.run_to_completion(session)
        events = list(client.stream_events(session))
        assert events[-1]["event"] == "end"
        stage_steps = [e["step"] for e in events if e["event"] == "stage"]
        assert stage_steps == [
            "choose_sources", "prepare", "schema_matching",
            "attribute_selection", "duplicate_detection",
            "conflict_resolution", "fusion",
        ]
        progress_phases = {e["phase"] for e in events if e["event"] == "progress"}
        assert "pairs_scored" in progress_phases
        assert "seeds_scored" in progress_phases


class TestTimeouts:
    def test_slow_step_times_out_with_504(self, server):
        # a dedicated tenant whose requests run against a tiny ceiling.  The
        # input is large enough that running to completion (one blocking
        # step) lasts many thread switch intervals: the small golden input
        # could finish before the event loop ran the timeout callback, and
        # asyncio.wait_for then returns the result instead of timing out.
        client = ServiceClient(server.base_url)
        client.create_tenant()
        dataset = students_scenario(entity_count=80, seed=3)
        try:
            for alias, relation in dataset.sources.items():
                client.upload_csv(alias, relation_to_csv_text(relation))
            session = client.create_session(list(dataset.sources))["session"]
            old_timeout = server.state.step_timeout
            server.state.step_timeout = 0.000001
            try:
                with pytest.raises(ServiceError) as caught:
                    client.run_to_completion(session)
                assert caught.value.status == 504
                assert caught.value.error_type == "Timeout"
            finally:
                server.state.step_timeout = old_timeout
        finally:
            # the timed-out step keeps running in the background and the
            # tenant answers 409 until it settles — wait before cleanup
            settle_tenant(client)
            client.delete_tenant()
