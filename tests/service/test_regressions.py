"""Regression tests for service-layer bugs, each failing against the pre-fix service.

Routing, orphaned steps, batch decisions and event streams:

1. ``GET /tenants/{t}/sessions/{s}/foo/bar`` returned 200 session status
   (extra path segments collapsed to "no action") instead of 404.
2. After a step timeout (504) the worker thread kept mutating the session
   while the tenant lock was already released — the next request could
   interleave with the still-running step.
3. ``POST .../decisions`` applied items one by one; a malformed item
   mid-list left earlier items confirmed and mapped to a 500.
4. ``DELETE /tenants/{t}`` left open ``/events`` streams waiting forever
   on sessions that could no longer advance.

Snapshots and catalog errors:

5. ``POST /tenants/{t}/sessions`` with a malformed snapshot (not an object,
   or a spec / resolution / segment list of the wrong shape) answered
   ``500 AttributeError`` instead of 400.
6. Any catalog error whose message contained "registered" answered 409,
   including the unknown-alias messages, which are 404s.

Request bodies:

7. A JSON body that is not an object (``[]``, ``"x"``, ``1``, ``null``)
   answered ``500 AttributeError`` on every POST route.
8. A bare string ``aliases`` was split into characters: ``{"aliases": "ab"}``
   created (and journaled) a session over sources ``a`` and ``b``, and
   ``/prepare`` answered 404 for source ``'a'``.

Tenant ids and source uploads:

9. ``POST /tenants {"tenant": 5}`` (or ``true``) created a tenant that made
   ``GET /tenants`` and ``GET /stats`` answer 400 for every client until a
   restart; ``""`` and ``"a/b"`` created tenants no route reaches.
10. Upload fields of the wrong shape answered 500 (a non-string alias, JSON
    rows that are lists, non-mapping session resolutions) or were misread:
    a repeated CSV header dropped a column, a string ``column_names`` named
    one column per character, and ``"replace": "no"`` / ``"has_header":
    "false"`` counted as true.
11. A CSV upload starting with a byte-order mark named its first column
    ``"\ufeffname"``, so ``FUSE BY (name)`` missed it; a header-only CSV
    registered a source without columns.
"""

import http.client
import json
import threading
import time

import pytest

from repro.service import ServiceClient
from repro.service.client import ServiceError

from tests.service.conftest import upload_golden
from tests.service.test_service import settle_tenant


class TestSessionPathRouting:
    def test_extra_path_segments_are_404(self, server, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        # sanity: the plain status route still works
        assert client.session_status(session)["session"] == session
        with pytest.raises(ServiceError) as caught:
            client._request(
                "GET", client._tenant_path(f"/sessions/{session}/foo/bar")
            )
        assert caught.value.status == 404
        assert caught.value.error_type == "UnknownRoute"

    def test_unknown_action_is_404(self, server, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        with pytest.raises(ServiceError) as caught:
            client._request(
                "GET", client._tenant_path(f"/sessions/{session}/bogus")
            )
        assert caught.value.status == 404


class TestOrphanedSteps:
    def test_timed_out_step_keeps_tenant_busy_until_settled(
        self, server, client, golden_csv
    ):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]

        tenant = server.state.tenants[client.tenant]
        catalog = tenant.sessions[session].session.pipeline.catalog
        original = catalog.fetch_many

        def slow_fetch(aliases):  # makes choose_sources slow
            time.sleep(0.5)
            return original(aliases)

        catalog.fetch_many = slow_fetch
        old_timeout = server.state.step_timeout
        server.state.step_timeout = 0.05
        try:
            with pytest.raises(ServiceError) as timed_out:
                client.advance(session)
            assert timed_out.value.status == 504

            # the step is still running on a worker thread: the tenant
            # must refuse mutating requests instead of interleaving
            with pytest.raises(ServiceError) as busy:
                client.advance(session)
            assert busy.value.status == 409
            assert busy.value.error_type == "TenantBusy"
            assert client.tenant_status()["admission"]["orphaned"]
        finally:
            server.state.step_timeout = old_timeout
            del catalog.fetch_many

        settle_tenant(client)
        # the orphaned step completed exactly once in the background;
        # the tenant accepts work again and the session is consistent
        status = client.session_status(session)
        assert status["completed_steps"] == ["choose_sources"]
        client.advance(session)
        assert client.session_status(session)["completed_steps"] == [
            "choose_sources", "prepare",
        ]


class TestAtomicDecisions:
    def drive_to_detection(self, client, golden_csv):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        client.advance(session, to="duplicate_detection")
        return session

    def test_malformed_item_rejects_whole_batch(self, server, client, golden_csv):
        session = self.drive_to_detection(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client.apply_decisions(
                session, [[0, 1, True], ["not", "a", "pair?", "no"]], apply=False
            )
        assert caught.value.status == 400
        assert caught.value.error_type == "InvalidDecisions"
        # atomicity: the well-formed first item must NOT have been applied
        live = server.state.tenants[client.tenant].sessions[session].session
        assert live.detection.classified.decisions == {}

    def test_non_integer_ids_reject_whole_batch(self, server, client, golden_csv):
        session = self.drive_to_detection(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client.apply_decisions(
                session, [[2, 3, True], ["x", "y", True]], apply=False
            )
        assert caught.value.status == 400
        assert caught.value.error_type == "InvalidDecisions"
        live = server.state.tenants[client.tenant].sessions[session].session
        assert live.detection.classified.decisions == {}


class TestTenantDeleteEndsStreams:
    def test_open_event_stream_terminates_on_tenant_delete(
        self, server, golden_csv
    ):
        client = ServiceClient(server.base_url)
        client.create_tenant()
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]

        events = []
        streamer = threading.Thread(
            target=lambda: events.extend(client.stream_events(session)),
            daemon=True,
        )
        streamer.start()
        time.sleep(0.2)  # let the stream attach and drain the empty buffer
        client.delete_tenant()
        streamer.join(timeout=10)

        assert not streamer.is_alive(), "stream never terminated after delete"
        assert events, "stream ended without an end event"
        assert events[-1]["event"] == "end"
        assert events[-1]["reason"] == "tenant_deleted"
        assert events[-1]["is_done"] is False


def golden_snapshot(client, golden_csv):
    """A valid snapshot of a session paused after duplicate detection."""
    aliases = upload_golden(client, golden_csv)
    session = client.create_session(aliases)["session"]
    client.advance(session, to="duplicate_detection")
    return client.snapshot(session)


class TestMalformedSnapshots:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda snapshot: [1, 2],
            lambda snapshot: "x",
            lambda snapshot: {**snapshot, "spec": "x"},
            lambda snapshot: {**snapshot, "spec": {"resolutions": [5]}},
            lambda snapshot: {**snapshot, "classified_segments": ["a"]},
        ],
        ids=["list", "string", "spec", "resolution", "segments"],
    )
    def test_malformed_snapshot_is_400(self, server, client, golden_csv, corrupt):
        snapshot = golden_snapshot(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client.restore_session(corrupt(snapshot))
        assert caught.value.status == 400
        assert caught.value.error_type == "SnapshotError"
        # the valid snapshot still restores
        assert client.restore_session(snapshot)["completed_steps"] == (
            snapshot["completed_steps"]
        )


class TestCatalogErrorStatus:
    def test_advancing_over_an_unknown_alias_is_404(self, server, client, golden_csv):
        upload_golden(client, golden_csv)
        session = client.create_session(["crm", "zz"])["session"]
        with pytest.raises(ServiceError) as caught:
            client.advance(session)
        assert caught.value.status == 404
        assert "unknown source alias 'zz'; registered: crm, shop" in caught.value.message

    def test_querying_an_unknown_alias_is_404(self, server, client, golden_csv):
        upload_golden(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client.query("SELECT * FUSE FROM crm, zz")
        assert caught.value.status == 404

    def test_deleting_an_unknown_source_is_404(self, server, client):
        with pytest.raises(ServiceError) as caught:
            client._request("DELETE", client._tenant_path("/sources/zz"))
        assert caught.value.status == 404
        assert "is not registered" in caught.value.message

    def test_duplicate_upload_is_still_409(self, server, client, golden_csv):
        upload_golden(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client.upload_csv("crm", golden_csv["crm"])
        assert caught.value.status == 409
        assert "already registered" in caught.value.message


def post_raw(client, path, body: bytes):
    """POST *body* verbatim; returns the status and the decoded JSON payload."""
    connection = http.client.HTTPConnection(client.host, client.port, timeout=client.timeout)
    try:
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


POST_ROUTES = [
    "/tenants",
    "/sources",
    "/prepare",
    "/query",
    "/sessions",
    "/sessions/{session}/advance",
    "/sessions/{session}/decisions",
]


class TestNonObjectBodies:
    @pytest.mark.parametrize("route", POST_ROUTES)
    def test_non_object_body_is_400(self, server, client, golden_csv, route):
        aliases = upload_golden(client, golden_csv)
        session = client.create_session(aliases)["session"]
        path = route.format(session=session)
        if route != "/tenants":
            path = client._tenant_path(path)
        for body in (b"[]", b'"x"', b"1", b"null"):
            status, payload = post_raw(client, path, body)
            assert (status, payload["error"]["type"]) == (400, "InvalidBody"), body
        # the session is untouched and still advances
        assert client.advance(session)["completed_steps"] == ["choose_sources"]

    def test_empty_body_still_reads_as_empty_object(self, server, client):
        status, payload = post_raw(client, "/tenants", b"")
        assert status == 201
        client.delete_tenant(payload["tenant"])


class TestStringAliases:
    def test_string_aliases_create_no_session(self, server, client, golden_csv):
        upload_golden(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client._request("POST", client._tenant_path("/sessions"), {"aliases": "ab"})
        assert caught.value.status == 400
        assert caught.value.error_type == "TypeError"
        assert "aliases" in caught.value.message
        assert client.tenant_status()["sessions"] == []

    def test_string_aliases_prepare_is_400(self, server, client, golden_csv):
        upload_golden(client, golden_csv)
        client.prepare(mode="lazy")
        with pytest.raises(ServiceError) as caught:
            client._request("POST", client._tenant_path("/prepare"), {"aliases": "crm"})
        assert caught.value.status == 400
        assert caught.value.error_type == "TypeError"
        assert "aliases" in caught.value.message


class TestTenantIds:
    @pytest.mark.parametrize("tenant", [5, "", True, "a/b"])
    def test_unreachable_tenant_id_is_400(self, server, client, tenant):
        with pytest.raises(ServiceError) as caught:
            client._request("POST", "/tenants", {"tenant": tenant})
        assert caught.value.status == 400
        assert caught.value.error_type == "InvalidField"
        assert "tenant" in caught.value.message
        # the listing and the stats still answer for every client
        assert client.tenant in client.tenants()
        assert client.tenant in client.stats()["tenants"]


def upload_error(client, body):
    """POST a source upload that must fail; returns the ServiceError."""
    with pytest.raises(ServiceError) as caught:
        client._request("POST", client._tenant_path("/sources"), body)
    return caught.value


class TestUploadFields:
    @pytest.mark.parametrize("alias", [5, ["l"]])
    @pytest.mark.parametrize("fmt, data", [("json", [{"a": 1}]), ("csv", "a\n1\n")])
    def test_non_string_alias_is_400(self, server, client, alias, fmt, data):
        error = upload_error(client, {"alias": alias, "format": fmt, "data": data})
        assert (error.status, error.error_type) == (400, "InvalidField")
        assert "alias" in error.message
        assert client.sources() == []

    def test_list_rows_are_400(self, server, client):
        error = upload_error(client, {"alias": "x", "data": [["x", "y"]]})
        assert (error.status, error.error_type) == (400, "InvalidField")
        assert "data" in error.message
        assert client.sources() == []

    @pytest.mark.parametrize("header", ["name,name", "Name,name"])
    def test_repeated_csv_header_is_400(self, server, client, header):
        error = upload_error(
            client, {"alias": "x", "format": "csv", "data": f"{header}\nAnna,Berlin\n"}
        )
        assert (error.status, error.error_type) == (400, "DuplicateColumnError")
        assert "'name'" in error.message
        assert client.sources() == []

    def test_string_column_names_is_400(self, server, client):
        error = upload_error(client, {
            "alias": "x", "format": "csv", "data": "1,2\n",
            "has_header": False, "column_names": "ab",
        })
        assert (error.status, error.error_type) == (400, "TypeError")
        assert "column_names" in error.message
        assert client.sources() == []

    def test_string_has_header_is_400(self, server, client):
        error = upload_error(
            client, {"alias": "x", "format": "csv", "data": "a,b\n1,2\n", "has_header": "false"}
        )
        assert (error.status, error.error_type) == (400, "InvalidField")
        assert "has_header" in error.message
        assert client.sources() == []

    def test_string_replace_is_400_and_keeps_the_source(self, server, client):
        client.upload_rows("x", [{"a": 1}])
        error = upload_error(client, {"alias": "x", "data": [{"a": 2}], "replace": "no"})
        assert (error.status, error.error_type) == (400, "InvalidField")
        assert "replace" in error.message
        assert client.query("SELECT a FROM x")["rows"] == [[1]]

    @pytest.mark.parametrize("resolutions", [["x"], "x"])
    def test_non_mapping_resolutions_is_400(self, server, client, golden_csv, resolutions):
        aliases = upload_golden(client, golden_csv)
        with pytest.raises(ServiceError) as caught:
            client._request(
                "POST", client._tenant_path("/sessions"),
                {"aliases": aliases, "resolutions": resolutions},
            )
        assert (caught.value.status, caught.value.error_type) == (400, "TypeError")
        assert "resolutions" in caught.value.message
        assert client.tenant_status()["sessions"] == []


class TestCsvUploadShape:
    def test_byte_order_mark_is_not_part_of_the_first_name(self, server, client):
        reply = client.upload_csv("x", "\ufeffname,age\nAnna,3\nAnna,4\n")
        assert reply["columns"] == ["name", "age"]
        result = client.query("SELECT name, RESOLVE(age, max) FUSE FROM x FUSE BY (name)")
        assert result["rows"] == [["Anna", 4]]

    def test_header_only_csv_keeps_its_columns(self, server, client):
        reply = client.upload_csv("x", "name,age\n")
        assert (reply["columns"], reply["rows"]) == (["name", "age"], 0)
        assert client.query("SELECT name FROM x")["rows"] == []
