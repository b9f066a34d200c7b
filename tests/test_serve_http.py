"""HTTP transport tests: server + client round-trips over localhost,
error statuses, and the `serve` / `client-query` CLI wiring."""

from __future__ import annotations

import json
from urllib import error as urlerror
from urllib import request as urlrequest

import pytest

from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.cli import _build_parser, build_server, main
from repro.database.persistence import save_database
from repro.errors import CodecError, QueryError, ServeError, SessionError
from repro.serve import codec
from repro.serve.app import ServiceApp
from repro.serve.http import ReproClient, ReproServer

_PARAMS = {"scheme": "identical", "max_iterations": 25, "seed": 5}


@pytest.fixture(scope="module")
def server(tiny_scene_db):
    service = RetrievalService(tiny_scene_db)
    with ReproServer(ServiceApp(service), port=0) as running:
        yield running


@pytest.fixture(scope="module")
def client(server) -> ReproClient:
    return ReproClient(server.url)


def _query(tiny_scene_db, **kwargs) -> Query:
    ids = tiny_scene_db.ids_in_category("waterfall")
    negs = tiny_scene_db.ids_in_category("field")
    defaults = dict(
        positive_ids=ids[:2],
        negative_ids=negs[:2],
        learner="dd",
        params=dict(_PARAMS),
        top_k=5,
    )
    defaults.update(kwargs)
    return Query(**defaults)


class TestHttpRoundTrip:
    def test_query_over_localhost_matches_in_process(self, client, tiny_scene_db):
        query = _query(tiny_scene_db)
        reference = RetrievalService(tiny_scene_db).query(query)
        result = client.query(query)
        assert result.ranking.image_ids == reference.ranking.image_ids
        assert result.concept is not None
        assert result.training is not None

    def test_batch_query_order_preserved(self, client, tiny_scene_db):
        queries = [
            _query(tiny_scene_db, query_id="a"),
            _query(tiny_scene_db, learner="random", params={"seed": 3},
                   query_id="b"),
        ]
        results = client.batch_query(queries, workers=2)
        assert [r.query.query_id for r in results] == ["a", "b"]

    def test_feedback_loop_over_http(self, client, tiny_scene_db):
        ids = tiny_scene_db.ids_in_category("waterfall")
        round1 = client.feedback(
            params=dict(_PARAMS), add_positive_ids=ids[:2], top_k=5
        )
        token = round1["session"]
        assert round1["ranking"] is not None
        bad = round1["ranking"].image_ids[0]
        round2 = client.feedback(token, false_positive_ids=[bad], top_k=5)
        assert round2["session"] == token
        assert bad in round2["negative_ids"]
        assert bad not in round2["ranking"].image_ids
        ranking = client.rank(session=token, top_k=3)
        assert len(ranking) == 3

    def test_rank_honours_exclude_on_session_path(self, client, tiny_scene_db):
        ids = tiny_scene_db.ids_in_category("waterfall")
        created = client.feedback(
            params=dict(_PARAMS), add_positive_ids=ids[:2], top_k=5
        )
        top = created["ranking"].image_ids[0]
        ranking = client.rank(session=created["session"], exclude=[top], top_k=5)
        assert top not in ranking.image_ids

    def test_keep_alive_survives_an_unknown_route(self, server):
        """A 404 must drain the request body, not desync the connection."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST", "/bad", body=json.dumps({"kind": "query"}),
                headers={"Content-Type": "application/json"},
            )
            first = connection.getresponse()
            assert first.status == 404
            first.read()
            # Same connection: the next request must parse cleanly.
            connection.request("GET", "/v1/health")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()

    def test_rank_with_wire_concept(self, client, tiny_scene_db):
        query = _query(tiny_scene_db)
        concept = RetrievalService(tiny_scene_db).query(query).concept
        ranking = client.rank(
            concept=concept, exclude=query.example_ids, top_k=4
        )
        assert len(ranking) == 4

    def test_compact_json_round_trips_to_an_equal_object(
        self, server, client, tiny_scene_db, monkeypatch
    ):
        # Replies and the client's request bodies carry no separator
        # spaces, and each decodes to the object its sender encoded.
        import http.client

        import numpy as np

        from repro.core.concept import LearnedConcept
        from repro.serve import http as serve_http

        def compact(raw: bytes) -> bool:
            return raw == json.dumps(
                json.loads(raw), separators=(",", ":")
            ).encode("utf-8")

        service = RetrievalService(tiny_scene_db)
        packed = service.packed_database()
        concept = LearnedConcept(
            t=packed.instances[0], w=np.ones(packed.n_dims), nll=0.0
        )
        sent = []
        real_request = serve_http.urlrequest.Request

        def recording(url, data=None, **kwargs):
            sent.append(data)
            return real_request(url, data=data, **kwargs)

        monkeypatch.setattr(serve_http.urlrequest, "Request", recording)
        ranking = client.rank(concept=concept, top_k=50)
        monkeypatch.undo()
        (request_body,) = sent
        assert compact(request_body)
        assert json.loads(request_body)["concept"] == json.loads(
            json.dumps(codec.encode_concept(concept))
        )

        payload = codec.envelope(
            "rank", {"concept": codec.encode_concept(concept), "top_k": 50}
        )
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/v1/rank", body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            reply = response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert int(response.getheader("Content-Length")) == len(reply)
        assert compact(reply)
        in_process = ServiceApp(service).dispatch("rank", payload)
        assert json.loads(reply) == json.loads(json.dumps(in_process))
        decoded = codec.decode_ranking(json.loads(reply)["ranking"])
        assert decoded.image_ids == ranking.image_ids
        np.testing.assert_array_equal(decoded.distances, ranking.distances)

    def test_health_and_stats(self, client, tiny_scene_db):
        health = client.health()
        assert health["status"] == "ok"
        assert health["n_images"] == len(tiny_scene_db)
        stats = client.stats()
        assert stats["service"]["n_queries"] >= 1
        assert "max_history" in stats["service"]


class TestHttpErrors:
    def test_bad_query_is_a_400_typed_error(self, client):
        with pytest.raises(CodecError, match="missing field"):
            client._call("query", {"kind": "query", "version": codec.WIRE_VERSION})

    def test_unknown_session_is_a_404_session_error(self, client):
        with pytest.raises(SessionError, match="unknown or expired"):
            client.rank(session="bogus")

    def test_unknown_route_404(self, server):
        with pytest.raises(urlerror.HTTPError) as excinfo:
            urlrequest.urlopen(f"{server.url}/v1/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_non_json_body_400(self, server):
        request = urlrequest.Request(
            f"{server.url}/v1/query", data=b"not json", method="POST"
        )
        with pytest.raises(urlerror.HTTPError) as excinfo:
            urlrequest.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"] == "CodecError"

    def test_malformed_content_length_400_and_connection_closed(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/query")
            connection.putheader("Content-Length", "12abc")
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            connection.send(b'{"kind": "q"}')
            response = connection.getresponse()
            assert response.status == 400
            body = json.loads(response.read())
            assert "Content-Length" in body["message"]
            # The server cannot resync an unknown-length body, so it closes.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_oversized_body_rejected_with_413(self, server):
        import http.client

        from repro.serve.http import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/query")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            # The server must reply without waiting for the body.
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_unknown_endpoint_post_400(self, client):
        with pytest.raises(QueryError, match="unknown endpoint"):
            client._call("query2", {"kind": "query"})

    def test_unreachable_server(self):
        dead = ReproClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServeError, match="cannot reach"):
            dead.health()

    def test_double_start_rejected(self, server):
        with pytest.raises(ServeError, match="already running"):
            server.start()


class TestStdlibErrorReplies:
    """Replies ``http.server`` generates itself carry wire envelopes."""

    def _raw_reply(self, server, request: bytes):
        import http.client
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(request)
            response = http.client.HTTPResponse(raw)
            response.begin()
            return response, response.read()

    @pytest.mark.parametrize(
        "raw_request, status, fragment",
        [
            (
                b"PUT /v1/rank HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
                501,
                "Unsupported method ('PUT')",
            ),
            (
                b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                + b"".join(b"X-%d: y\r\n" % i for i in range(120))
                + b"\r\n",
                431,
                "got more than 100 headers",
            ),
            (
                b"GET /v1/health extra HTTP/1.1\r\nHost: x\r\n\r\n",
                400,
                "Bad request syntax",
            ),
        ],
        ids=["unsupported-method", "too-many-headers", "malformed-request-line"],
    )
    def test_parser_error_is_an_envelope(self, server, raw_request, status, fragment):
        response, body = self._raw_reply(server, raw_request)
        assert response.status == status
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Connection") == "close"
        assert response.getheader("Server") is not None
        payload = json.loads(body)
        assert payload["kind"] == "error"
        assert payload["error"] == "ServeError"
        assert fragment in payload["message"]

    def test_head_error_reply_has_no_body(self, server):
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(b"HEAD /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            chunks = []
            while chunk := raw.recv(65536):
                chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply.startswith(b"HTTP/1.1 501")
        assert b"Content-Length: " in reply
        assert reply.endswith(b"\r\n\r\n")

    def test_http09_reply_is_a_bare_body(self, server):
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            # http.server reads a (here empty) header block even for 0.9.
            raw.sendall(b"GET /v1/health\r\n\r\n")
            chunks = []
            while chunk := raw.recv(65536):
                chunks.append(chunk)
        assert json.loads(b"".join(chunks))["status"] == "ok"

    def test_client_surfaces_a_typed_serve_error(self, client, monkeypatch):
        # urllib only speaks GET/POST; force the method to reach the 501.
        monkeypatch.setattr(urlrequest.Request, "get_method", lambda self: "PUT")
        with pytest.raises(ServeError, match="Unsupported method"):
            client.health()


class TestStallFreeReplies:
    """A reply leaves in one send on a TCP_NODELAY socket, so a kept-alive
    client never waits out its own delayed ACK."""

    @pytest.fixture()
    def fresh_server(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db)
        with ReproServer(ServiceApp(service), port=0) as running:
            yield running

    def test_accepted_connection_has_tcp_nodelay(self, fresh_server):
        import http.client
        import socket

        httpd = fresh_server._httpd
        accepted = []
        get_request = httpd.get_request

        def recording_get_request():
            conn, address = get_request()
            accepted.append(conn)
            return conn, address

        httpd.get_request = recording_get_request
        connection = http.client.HTTPConnection(
            fresh_server.host, fresh_server.port, timeout=10
        )
        try:
            connection.request("GET", "/v1/health")
            connection.getresponse().read()
            # Kept alive: the server side of the connection is still open.
            (conn,) = accepted
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            connection.close()

    def test_rank_reply_is_one_write(self, fresh_server, tiny_scene_db):
        import numpy as np

        from repro.core.concept import LearnedConcept

        writes: list[bytes] = []

        class CountingWriter:
            def __init__(self, inner) -> None:
                self._inner = inner

            def write(self, data) -> int:
                writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        httpd = fresh_server._httpd
        handler = httpd.RequestHandlerClass

        class CountingHandler(handler):
            def setup(self) -> None:
                super().setup()
                self.wfile = CountingWriter(self.wfile)

        httpd.RequestHandlerClass = CountingHandler
        packed = RetrievalService(tiny_scene_db).packed_database()
        concept = LearnedConcept(
            t=packed.instances[0], w=np.ones(packed.n_dims), nll=0.0
        )
        ranking = ReproClient(fresh_server.url).rank(concept=concept, top_k=3)
        assert len(ranking) == 3
        (reply,) = writes
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["kind"] == "rank_result"

    def test_keep_alive_round_trips_do_not_stall(self, fresh_server):
        import http.client
        import statistics
        import time as time_module

        connection = http.client.HTTPConnection(
            fresh_server.host, fresh_server.port, timeout=10
        )
        try:
            elapsed = []
            for _ in range(30):
                start = time_module.perf_counter()
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                elapsed.append(time_module.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        # A delayed-ACK stall costs ~40 ms per round trip; without it a
        # health check takes well under a millisecond.
        assert statistics.median(elapsed) < 0.020


class TestSlowClients:
    """Slow-client (slowloris) protection: a dribbling or stalled client
    costs one bounded read timeout, never a wedged handler thread."""

    @pytest.fixture()
    def impatient_server(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db)
        server = ReproServer(
            ServiceApp(service), port=0, read_timeout=0.4
        ).start()
        yield server
        server.stop()

    def test_stalled_body_gets_a_408_and_the_connection_closes(
        self, impatient_server
    ):
        import http.client

        connection = http.client.HTTPConnection(
            impatient_server.host, impatient_server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/v1/query")
            connection.putheader("Content-Length", "100")
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            connection.send(b'{"kind": ')  # dribble a prefix, then stall
            response = connection.getresponse()
            assert response.status == 408
            body = json.loads(response.read())
            assert body["error"] == "DeadlineError"
            assert "9 of 100 bytes" in body["message"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_stalled_headers_get_the_connection_dropped(self, impatient_server):
        import socket

        with socket.create_connection(
            (impatient_server.host, impatient_server.port), timeout=10
        ) as raw:
            raw.sendall(b"POST /v1/query HTTP/1.1\r\nHost: x\r\nConte")
            raw.settimeout(5.0)
            # The server times the header read out and closes; a patient
            # recv sees EOF, not a hang.
            assert raw.recv(1024) == b""

    def test_prompt_body_is_unaffected_by_the_read_timeout(
        self, impatient_server, tiny_scene_db
    ):
        client = ReproClient(impatient_server.url)
        assert client.health()["status"] == "ok"
        query = _query(tiny_scene_db)
        result = client.query(query)
        assert len(result.ranking) == 5

    def test_invalid_read_timeout_rejected(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db)
        with pytest.raises(ServeError, match="read_timeout"):
            ReproServer(ServiceApp(service), port=0, read_timeout=0.0)


class TestClientDeadlines:
    def test_deadline_ms_is_stamped_and_enforced(self, server, tiny_scene_db):
        from repro.errors import DeadlineError

        client = ReproClient(server.url, deadline_ms=0.01)
        with pytest.raises(DeadlineError):
            client.rank(session="any")  # expires in transit -> 504

    def test_per_call_deadline_overrides_the_client_default(
        self, client, tiny_scene_db
    ):
        query = _query(tiny_scene_db)
        result = client.query(query, deadline_ms=60_000.0)
        assert len(result.ranking) == 5


class TestRestartOnSamePort:
    def test_allow_reuse_address_is_set(self, server):
        assert server._httpd.allow_reuse_address is True

    def test_restart_on_same_port(self, tiny_scene_db):
        """A fast restart must rebind the port the old server just left.

        Without SO_REUSEADDR the old socket lingers in TIME_WAIT (a client
        connection ensures there was traffic) and the rebind fails with
        EADDRINUSE.
        """
        service = RetrievalService(tiny_scene_db)
        first = ReproServer(ServiceApp(service), port=0).start()
        port = first.port
        assert ReproClient(first.url).health()["status"] == "ok"
        first.stop()
        second = ReproServer(ServiceApp(service), port=port).start()
        try:
            assert second.port == port
            assert ReproClient(second.url).health()["status"] == "ok"
        finally:
            second.stop()


class TestGracefulDrain:
    def test_stop_drains_in_flight_requests(self, tiny_scene_db):
        """stop() lets a request that is already being handled finish."""
        import threading
        import time as time_module

        release = threading.Event()

        class SlowApp(ServiceApp):
            def health(self) -> dict:
                release.set()
                time_module.sleep(0.5)
                return super().health()

        app = SlowApp(RetrievalService(tiny_scene_db))
        server = ReproServer(app, port=0).start()
        outcome: dict = {}

        def slow_call() -> None:
            try:
                outcome["health"] = ReproClient(server.url, timeout=10).health()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                outcome["error"] = exc

        caller = threading.Thread(target=slow_call)
        caller.start()
        assert release.wait(5.0), "request never reached the app"
        server.stop(drain_timeout=5.0)
        caller.join(10.0)
        assert "error" not in outcome, f"request died mid-drain: {outcome.get('error')}"
        assert outcome["health"]["status"] == "ok"

    def test_stop_without_drain_does_not_hang(self, tiny_scene_db):
        server = ReproServer(ServiceApp(RetrievalService(tiny_scene_db)), port=0)
        server.start()
        server.stop(drain_timeout=0)  # nothing in flight; returns at once


class TestConcurrentLoad:
    N_CLIENTS = 8

    def test_no_cross_tenant_leakage_under_concurrency(self, tiny_scene_db):
        """Many threads hammering /v1/query + /v1/feedback on one server:
        every session only ever sees its own examples, tokens stay unique,
        and the store's session counters match the number of tenants."""
        from concurrent.futures import ThreadPoolExecutor

        service = RetrievalService(tiny_scene_db)
        app = ServiceApp(service)
        ids = tiny_scene_db.ids_in_category("waterfall")
        negs = tiny_scene_db.ids_in_category("field")
        n_clients = min(self.N_CLIENTS, len(ids))
        with ReproServer(app, port=0) as running:
            def tenant(i: int) -> dict:
                client = ReproClient(running.url, timeout=30)
                # Unique positive per tenant: any cross-tenant bleed is
                # visible as a foreign id in the echoed example lists.
                mine_pos = ids[i]
                mine_negs = [negs[(i + r) % len(negs)] for r in range(3)]
                created = client.feedback(
                    params=dict(_PARAMS), add_positive_ids=[mine_pos],
                    rank=False,
                )
                token = created["session"]
                rounds = [created]
                for neg in mine_negs:
                    rounds.append(
                        client.feedback(token, add_negative_ids=[neg], rank=False)
                    )
                result = client.query(
                    _query(tiny_scene_db, learner="random", params={"seed": i})
                )
                return {
                    "token": token,
                    "rounds": rounds,
                    "positive": mine_pos,
                    "negatives": mine_negs,
                    "n_ranked": len(result.ranking),
                }

            with ThreadPoolExecutor(max_workers=n_clients) as executor:
                tenants = list(executor.map(tenant, range(n_clients)))

            tokens = [t["token"] for t in tenants]
            assert len(set(tokens)) == n_clients, "session tokens collided"
            for t in tenants:
                for entry in t["rounds"]:
                    assert entry["session"] == t["token"]
                    # No other tenant's examples may ever appear here.
                    assert set(entry["positive_ids"]) == {t["positive"]}
                    assert set(entry["negative_ids"]) <= set(t["negatives"])
                final = t["rounds"][-1]
                assert list(final["negative_ids"]) == t["negatives"]
                assert t["n_ranked"] > 0
            stats = app.sessions.stats()
            assert stats["active"] == n_clients
            assert stats["created"] == n_clients


class TestCli:
    def test_build_server_from_db_snapshot(self, tiny_scene_db, tmp_path):
        path = save_database(tiny_scene_db, tmp_path / "db.npz")
        args = _build_parser().parse_args(
            ["serve", "--db", str(path), "--port", "0", "--warm", ""]
        )
        server = build_server(args)
        try:
            server.start()
            client = ReproClient(server.url)
            assert client.health()["n_images"] == len(tiny_scene_db)
        finally:
            server.stop()

    def test_client_query_command(self, tiny_scene_db, capsys):
        service = RetrievalService(tiny_scene_db)
        ids = tiny_scene_db.ids_in_category("waterfall")
        negs = tiny_scene_db.ids_in_category("field")
        with ReproServer(ServiceApp(service), port=0) as running:
            code = main(
                [
                    "client-query",
                    "--url", running.url,
                    "--positive", ",".join(ids[:2]),
                    "--negative", ",".join(negs[:2]),
                    "--scheme", "identical",
                    "--top-k", "5",
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "top 5 matches" in out
        assert "ranked" in out

    def test_client_query_reports_server_errors(self, tiny_scene_db, capsys):
        service = RetrievalService(tiny_scene_db)
        with ReproServer(ServiceApp(service), port=0) as running:
            code = main(
                [
                    "client-query",
                    "--url", running.url,
                    "--positive", "does-not-exist",
                    "--scheme", "identical",
                ]
            )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve"])
