"""Stdlib HTTP transport for the serving layer.

:class:`ReproServer` binds a :class:`~repro.serve.app.ServiceApp` to a
threaded ``http.server`` — no third-party web framework, so any box with a
Python interpreter can serve the retrieval API.  :class:`ReproClient` is
the matching thin client: it speaks the same versioned wire format and
hands back *decoded* package objects (:class:`~repro.api.query.QueryResult`,
:class:`~repro.core.retrieval.RetrievalResult`, ...), so remote and
in-process retrieval are interchangeable at the call site.

Routes (all JSON, wire-enveloped)::

    POST /v1/query         POST /v1/batch_query
    POST /v1/feedback      POST /v1/rank
    GET  /v1/health        GET  /v1/stats

Errors come back as enveloped ``error`` payloads with an HTTP status (400
bad request, 404 unknown session, 500 bug); the client re-raises them as
the matching :class:`~repro.errors.ReproError` subclass.  That includes
the replies ``http.server`` itself generates while parsing a request (a
malformed request line, 414, 431, 501 for an unsupported method): they
carry a :class:`~repro.errors.ServeError` envelope, not an HTML page, and
close the connection.

Every reply leaves in one socket write (status line, headers and body
together) on a connection with ``TCP_NODELAY`` set.  Written separately
on a Nagle socket, the body of a kept-alive reply would wait for the
client to ACK the headers, and clients delay that ACK by ~40 ms.

The server is intentionally a *worker*, not a load balancer: run one per
core/host behind whatever fronting tier the deployment has, and start them
hot from a snapshot (:mod:`repro.serve.snapshot`).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Sequence
from urllib import error as urlerror
from urllib import request as urlrequest

from repro.api.query import Query, QueryResult
from repro.core.concept import LearnedConcept
from repro.core.retrieval import RetrievalResult
from repro.errors import CodecError, DeadlineError, ServeError
from repro.serve import codec
from repro.serve.app import (
    ServiceApp,
    error_payload,
    handle_safely,
    raise_error_payload,
)

_API_PREFIX = "/v1/"

#: Largest request body a worker will buffer.  Generous for real payloads
#: (a 1000-query batch is well under 1 MiB) while bounding what a single
#: connection can make the process hold in memory.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default per-connection read timeout (seconds).  Applied to header
#: reads via the handler's socket timeout and to body reads as a wall
#: clock over the whole body — a slowloris client dribbling one byte per
#: poll cannot pin a server thread forever.
DEFAULT_READ_TIMEOUT = 30.0

#: Body reads buffer in chunks of this size so the wall clock is checked
#: between chunks even while bytes keep trickling in.
_BODY_CHUNK_BYTES = 65536

#: JSON separators for every body this module writes: no spaces after
#: ``,`` and ``:`` (a 50-entry ranking shrinks by ~8%), same decoded object.
_COMPACT = (",", ":")


class _ReproHTTPServer(ThreadingHTTPServer):
    """The threaded server plus what graceful shutdown needs.

    ``allow_reuse_address`` is pinned explicitly (SO_REUSEADDR): a worker
    restarting on the port it just released must not fail with
    ``EADDRINUSE`` because the old socket lingers in TIME_WAIT.

    The server also counts in-flight requests so :meth:`wait_idle` can
    drain them: ``shutdown()`` only stops *accepting* connections — handler
    threads already parsing or answering a request keep running, and with
    ``daemon_threads`` they would be killed mid-response at interpreter
    exit.  Handlers bracket each request with :meth:`begin_request` /
    :meth:`end_request` (per request, not per connection — a keep-alive
    connection idling between requests must not block the drain forever).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._idle = threading.Condition()

    def begin_request(self) -> None:
        with self._idle:
            self._inflight += 1

    def end_request(self) -> None:
        with self._idle:
            self._inflight = max(0, self._inflight - 1)
            if self._inflight == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float | None) -> bool:
        """Block until no request is in flight; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True


class _Handler(BaseHTTPRequestHandler):
    """One request: parse JSON, dispatch to the app, write the wire reply."""

    app: ServiceApp  # injected by ReproServer via a subclass attribute
    protocol_version = "HTTP/1.1"
    # Per-connection socket timeout (StreamRequestHandler applies it in
    # setup()): a client stalling mid-request-line or mid-headers gets its
    # connection closed instead of pinning this thread.  ReproServer
    # overrides the value per instance via the bound subclass.
    timeout = DEFAULT_READ_TIMEOUT
    # TCP_NODELAY on every accepted socket (StreamRequestHandler sets it in
    # setup()).  With Nagle on, a reply that follows a write the client has
    # not yet ACKed waits out the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; a serving worker
    # should stay quiet unless asked.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _endpoint(self) -> str | None:
        if not self.path.startswith(_API_PREFIX):
            return None
        return self.path[len(_API_PREFIX):].strip("/")

    def _reply(self, status: int, payload: Mapping) -> None:
        body = json.dumps(payload, separators=_COMPACT).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell the client explicitly; set when the connection cannot be
            # kept in sync (e.g. an undrainable request body).
            self.send_header("Connection", "close")
        # end_headers() would flush the head in a write of its own; join it
        # with the body instead so the reply is one send.  An HTTP/0.9
        # reply has no head (the stdlib never buffers one for it).
        head = b""
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            head = b"".join(self._headers_buffer)
            self._headers_buffer = []
        if self.command == "HEAD":
            # Only send_error answers HEAD (501); it keeps Content-Length
            # but, like the stdlib reply, omits the body.
            body = b""
        self.wfile.write(head + body)

    def send_error(self, code: int, message=None, explain=None) -> None:
        """The stdlib parser's own error replies, as wire ``error`` envelopes.

        ``http.server`` calls this for a malformed request line (400), an
        overlong one (414), too many or too long headers (431) and a method
        without a ``do_*`` handler (501).  Like the stdlib reply it closes
        the connection: the rest of the request was never read.
        """
        short, _ = self.responses.get(code, ("???", "???"))
        text = short if message is None else message
        if explain is not None:
            text = f"{text}: {explain}"
        self.log_error("code %d, message %s", code, text)
        self.close_connection = True
        self._reply(code, error_payload(ServeError(text)))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # The begin/end bracket feeds the server's drain accounting.  It
        # wraps only the dispatch-and-reply span (keep-alive connections
        # idle *between* requests inside handle_one_request's readline,
        # which must not count as in flight).
        self.server.begin_request()
        try:
            self._do_get()
        finally:
            self.server.end_request()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.server.begin_request()
        try:
            self._do_post()
        finally:
            self.server.end_request()

    def _do_get(self) -> None:
        endpoint = self._endpoint()
        if endpoint not in ("health", "stats"):
            self._reply(404, error_payload(ServeError(f"no GET route {self.path!r}")))
            return
        status, payload = handle_safely(self.app, endpoint, None)
        self._reply(status, payload)

    def _read_body(self, length: int) -> bytes | None:
        """Read the body against a wall clock; ``None`` when it timed out.

        The socket timeout alone cannot stop a dribbling client (every
        byte received resets it), so the whole body shares one read
        budget of :attr:`timeout` seconds.  On expiry the client gets a
        408 and the connection closes (the unread bytes make it
        unsyncable).
        """
        deadline = time.monotonic() + self.timeout
        chunks: list[bytes] = []
        received = 0
        while received < length:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                chunk = b""
            else:
                try:
                    self.connection.settimeout(remaining)
                    # read1, not read: read(n) would block until all n
                    # bytes arrive, so a dribbling client's partial bytes
                    # would be lost to the timeout instead of counted.
                    chunk = self.rfile.read1(
                        min(length - received, _BODY_CHUNK_BYTES)
                    )
                except TimeoutError:
                    chunk = b""
                except OSError:
                    # The peer vanished mid-body; nothing to reply to.
                    self.close_connection = True
                    return None
            if not chunk:
                self.close_connection = True
                try:
                    self._reply(
                        408,
                        error_payload(
                            DeadlineError(
                                f"request body not received within "
                                f"{self.timeout:.1f}s ({received} of {length} "
                                f"bytes arrived)"
                            )
                        ),
                    )
                except OSError:  # the peer is already gone
                    pass
                return None
            chunks.append(chunk)
            received += len(chunk)
        # Restore the per-connection timeout for the next keep-alive
        # request's header reads.
        self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def _do_post(self) -> None:
        arrived = time.monotonic()
        # Always drain the body first: replying without reading it would
        # desync a keep-alive connection (the unread bytes get parsed as
        # the next request line).
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # The body length is unknowable, so the connection cannot be
            # resynchronised — reply and close it.
            self.close_connection = True
            self._reply(
                400, error_payload(CodecError("malformed Content-Length header"))
            )
            return
        if length > MAX_BODY_BYTES:
            # Refuse to buffer it; draining would be as expensive as
            # reading, so close the connection instead.
            self.close_connection = True
            self._reply(
                413,
                error_payload(
                    CodecError(
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                ),
            )
            return
        if length > 0:
            raw = self._read_body(length)
            if raw is None:
                return
        else:
            raw = b""
        endpoint = self._endpoint()
        if endpoint is None:
            self._reply(404, error_payload(ServeError(f"no POST route {self.path!r}")))
            return
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, error_payload(CodecError(f"request body is not JSON: {exc}")))
            return
        # The wire deadline_ms was stamped when the client *sent* the
        # request; the time spent receiving it counts against the budget,
        # so re-stamp what is left (and answer the 504 here if a slow body
        # ate it all) before the app starts its own countdown.
        if isinstance(payload, Mapping):
            budget = payload.get("deadline_ms")
            if isinstance(budget, (int, float)) and not isinstance(budget, bool):
                elapsed_ms = (time.monotonic() - arrived) * 1000.0
                remaining = float(budget) - elapsed_ms
                if remaining <= 0:
                    self._reply(
                        504,
                        error_payload(
                            DeadlineError(
                                "request deadline expired while the request "
                                "was being received"
                            )
                        ),
                    )
                    return
                payload = {**payload, "deadline_ms": remaining}
        status, reply = handle_safely(self.app, endpoint, payload)
        self._reply(status, reply)


class ReproServer:
    """A threaded HTTP worker serving one :class:`ServiceApp`.

    Args:
        app: the serving facade (or build one from a service via
            ``ReproServer(ServiceApp(service))``).
        host: bind address.
        port: bind port; ``0`` picks a free one (see :attr:`port`).
        read_timeout: per-connection read budget in seconds — for header
            reads (socket timeout) and for each request body (wall clock;
            408 on expiry) — so a stalled or dribbling client cannot pin
            a handler thread forever.

    Usage::

        with ReproServer(ServiceApp(service), port=0) as server:
            client = ReproClient(server.url)
            result = client.query(query)
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 8000,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
    ) -> None:
        if not read_timeout > 0:
            raise ServeError(
                f"read_timeout must be positive, got {read_timeout!r}"
            )
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"app": app, "timeout": float(read_timeout)},
        )
        self._app = app
        self._httpd = _ReproHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def app(self):
        """The serving facade behind this server (a :class:`ServiceApp` or
        any object :func:`~repro.serve.app.handle_safely` accepts, e.g. the
        worker pool's dispatch app)."""
        return self._app

    @property
    def host(self) -> str:
        """The bound address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve on a background thread; returns ``self``."""
        if self._thread is not None:
            raise ServeError("server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (CLI path)."""
        self._httpd.serve_forever()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, release the socket.

        Args:
            drain_timeout: how long to wait for requests already being
                handled to finish writing their responses (``0`` stops
                immediately, ``None`` waits indefinitely).
        """
        self._httpd.shutdown()
        if drain_timeout is None or drain_timeout > 0:
            self._httpd.wait_idle(drain_timeout)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ReproClient:
    """Thin wire client for a :class:`ReproServer`.

    Args:
        base_url: e.g. ``http://127.0.0.1:8000`` (with or without ``/v1``).
        timeout: per-request socket timeout in seconds.
        deadline_ms: default request budget stamped onto every POST
            payload as the wire ``deadline_ms`` field — the server (and
            every hop behind it: workers, scatter fragments) abandons the
            work and answers a typed 504
            :class:`~repro.errors.DeadlineError` once it expires, and the
            client's own socket timeout is tightened to match so a call
            never outwaits its budget.  ``None`` (the default) sends no
            deadline; per-call ``deadline_ms`` arguments override.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        deadline_ms: float | None = None,
    ) -> None:
        self._base = base_url.rstrip("/")
        if self._base.endswith("/v1"):
            self._base = self._base[:-3]
        self._timeout = timeout
        self._deadline_ms = deadline_ms

    def _call(
        self,
        endpoint: str,
        payload: Mapping | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        url = f"{self._base}/v1/{endpoint}"
        budget = self._deadline_ms if deadline_ms is None else deadline_ms
        timeout = self._timeout
        if payload is not None and budget is not None:
            payload = {**payload, "deadline_ms": float(budget)}
            # The server answers its 504 within the budget; the socket
            # timeout is a backstop (with a grace second for the reply to
            # travel), not the deadline mechanism itself.
            timeout = min(timeout, float(budget) / 1000.0 + 1.0)
        if payload is None:
            req = urlrequest.Request(url, method="GET")
        else:
            req = urlrequest.Request(
                url,
                data=json.dumps(payload, separators=_COMPACT).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
        try:
            with urlrequest.urlopen(req, timeout=timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urlerror.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = None
            raise_error_payload(body, exc.code)
        except urlerror.URLError as exc:
            raise ServeError(f"cannot reach {url}: {exc.reason}") from exc
        return body

    # ------------------------------------------------------------------ #
    # Endpoints                                                           #
    # ------------------------------------------------------------------ #

    def query(
        self, query: Query, *, deadline_ms: float | None = None
    ) -> QueryResult:
        """Run one query remotely; returns the decoded result."""
        return codec.decode_query_result(
            self._call("query", codec.encode_query(query), deadline_ms)
        )

    def batch_query(
        self,
        queries: Sequence[Query],
        workers: int | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> list[QueryResult]:
        """Run many queries remotely (request order preserved)."""
        payload = codec.envelope(
            "batch_query",
            {
                "queries": [codec.encode_query(query) for query in queries],
                "workers": workers,
            },
        )
        body = codec.open_envelope(
            self._call("batch_query", payload, deadline_ms),
            "batch_query_result",
        )
        return [codec.decode_query_result(entry) for entry in body["results"]]

    def feedback(
        self,
        session: str | None = None,
        *,
        learner: str = "dd",
        params: Mapping[str, object] | None = None,
        add_positive_ids: Sequence[str] = (),
        add_negative_ids: Sequence[str] = (),
        false_positive_ids: Sequence[str] = (),
        rank: bool = True,
        top_k: int | None = None,
        category_filter: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """One feedback round; creates a session when ``session`` is None.

        Returns a dict with the ``"session"`` token, the example id lists,
        and (when ranking ran) a decoded ``"ranking"``
        :class:`RetrievalResult` and ``"concept"``
        :class:`LearnedConcept`.
        """
        payload = codec.envelope(
            "feedback",
            {
                "session": session,
                "learner": learner,
                "params": None if params is None else dict(params),
                "add_positive_ids": list(add_positive_ids),
                "add_negative_ids": list(add_negative_ids),
                "false_positive_ids": list(false_positive_ids),
                "rank": rank,
                "top_k": top_k,
                "category_filter": category_filter,
            },
        )
        body = codec.open_envelope(
            self._call("feedback", payload, deadline_ms), "feedback_result"
        )
        ranking = body.get("ranking")
        concept = body.get("concept")
        return {
            "session": body["session"],
            "positive_ids": tuple(body.get("positive_ids", ())),
            "negative_ids": tuple(body.get("negative_ids", ())),
            "ranking": None if ranking is None else codec.decode_ranking(ranking),
            "concept": None if concept is None else codec.decode_concept(concept),
        }

    def rank(
        self,
        *,
        session: str | None = None,
        concept: LearnedConcept | None = None,
        candidate_ids: Sequence[str] | None = None,
        exclude: Sequence[str] = (),
        top_k: int | None = None,
        category_filter: str | None = None,
        deadline_ms: float | None = None,
    ) -> RetrievalResult:
        """Re-rank remotely with a session's model or an explicit concept."""
        payload = codec.envelope(
            "rank",
            {
                "session": session,
                "concept": None if concept is None else codec.encode_concept(concept),
                "candidate_ids": (
                    None if candidate_ids is None else list(candidate_ids)
                ),
                "exclude": list(exclude),
                "top_k": top_k,
                "category_filter": category_filter,
            },
        )
        body = codec.open_envelope(
            self._call("rank", payload, deadline_ms), "rank_result"
        )
        return codec.decode_ranking(body["ranking"])

    def health(self) -> dict:
        """The server's health envelope (validated)."""
        return codec.open_envelope(self._call("health"), "health")

    def stats(self) -> dict:
        """The server's stats envelope (validated)."""
        return codec.open_envelope(self._call("stats"), "stats")
