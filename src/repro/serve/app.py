"""The transport-agnostic serving facade.

:class:`ServiceApp` exposes the retrieval system as plain dict-in/dict-out
endpoints — ``query``, ``batch_query``, ``feedback``, ``rank``,
``rank_fragment``, ``health`` and ``stats`` — over one shared
:class:`~repro.api.service.RetrievalService` and one multi-tenant
:class:`~repro.serve.sessions.SessionStore`.  Payloads are the versioned
wire envelopes of :mod:`repro.serve.codec`; the app never touches a socket,
so the same instance serves the stdlib HTTP transport
(:mod:`repro.serve.http`), an in-process test driver, or any transport a
deployment prefers (WSGI, gRPC, a queue) without change.

Endpoints are stateless with one deliberate exception: ``feedback`` (and
session-addressed ``rank``) resolve their token through the session store,
which is exactly the state a relevance-feedback loop needs to survive
stateless requests.

Request/response shapes (all enveloped, version-checked)::

    query        <- {"kind": "query", ...}                      -> query_result
    batch_query  <- {"kind": "batch_query", "queries": [...]}   -> batch_query_result
    feedback     <- {"kind": "feedback", "session": tok|None,   -> feedback_result
                     "add_positive_ids": [...], ...}
    rank         <- {"kind": "rank", "session": tok             -> rank_result
                     | "concept": {...}, "top_k": ...}
    rank_fragment<- {"kind": "rank_fragment", "concept": {...}, -> rank_fragment_result
                     "top_k": ..., "start": ..., "stop": ...}
    health       <- (no payload)                                -> health
    stats        <- (no payload)                                -> stats

``rank_fragment`` is the internal scatter/gather half of a distributed
rank: it evaluates one contiguous bag range and returns the compact
``(positions, distances)`` candidate fragment the coordinator merges
(:mod:`repro.serve.scatter`).  It is a public endpoint like the others —
a fragment request over plain HTTP gets the same answer a pooled worker
computes over its pipe.

Errors raise the package's typed exceptions (:class:`CodecError`,
:class:`QueryError`, :class:`SessionError`, ...); transports map them to
their native failure shape (:func:`error_payload` builds the wire form).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.learners import available_learners
from repro.api.service import RetrievalService
from repro.core.retrieval import Ranker
from repro.core.sharding import ShardedRanker
from repro.serve import codec
from repro.serve.sessions import SessionStore
from repro import errors as errors_module
from repro.errors import (
    CodecError,
    DeadlineError,
    QueryError,
    ReproError,
    ServeError,
    SessionError,
)
from repro.version import __version__


def error_payload(exc: BaseException) -> dict:
    """The wire form of a failure (an enveloped ``error`` payload).

    Retryable failures (a worker restart, a deadline expiry) carry a
    ``"retryable": true`` field so clients can retry without parsing
    messages; the flag is omitted otherwise (add-only wire evolution).
    """
    fields: dict = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "retryable", False):
        fields["retryable"] = True
    return codec.envelope("error", fields)


class ServiceApp:
    """Dict-in/dict-out serving endpoints over one retrieval service.

    Args:
        service: the warmed retrieval service to serve.
        sessions: an existing session store to use; one is created over
            ``service`` by default.
        name: service name reported by ``health``.
    """

    #: Endpoint names accepted by :meth:`dispatch`.
    ENDPOINTS = (
        "query",
        "batch_query",
        "feedback",
        "rank",
        "rank_fragment",
        "health",
        "stats",
    )

    #: Server-side ceiling on the wire-requested ``batch_query`` worker
    #: count — the request may ask, but it does not size our thread pool.
    MAX_BATCH_WORKERS = 16

    def __init__(
        self,
        service: RetrievalService,
        sessions: SessionStore | None = None,
        name: str = "repro",
    ) -> None:
        if sessions is not None and sessions.service is not service:
            raise SessionError("the session store must wrap the served service")
        self._service = service
        # `is not None`, not truthiness: a freshly built store is empty and
        # __len__-falsy, but its TTL/capacity configuration must be kept.
        self._sessions = sessions if sessions is not None else SessionStore(service)
        self._name = name

    @property
    def service(self) -> RetrievalService:
        """The underlying retrieval service."""
        return self._service

    @property
    def sessions(self) -> SessionStore:
        """The multi-tenant session store."""
        return self._sessions

    def dispatch(self, endpoint: str, payload: Mapping | None = None) -> dict:
        """Route one request by endpoint name.

        Raises:
            QueryError: unknown endpoint.
            CodecError / ReproError subclasses: whatever the endpoint raises.
        """
        name = endpoint.replace("-", "_")
        if name not in self.ENDPOINTS:
            raise QueryError(
                f"unknown endpoint {endpoint!r} "
                f"(known: {', '.join(self.ENDPOINTS)})"
            )
        # Validate any riding deadline and refuse work whose budget is
        # already gone — the caller stopped waiting, so computing the
        # answer would only burn the worker for nobody.
        from repro.serve.resilience import deadline_from_payload

        deadline = deadline_from_payload(payload)
        if deadline is not None and deadline.expired:
            raise DeadlineError(
                f"{name} request arrived with its deadline already expired"
            )
        if name in ("health", "stats"):
            return getattr(self, name)()
        return getattr(self, name)(payload)

    # ------------------------------------------------------------------ #
    # Stateless retrieval                                                 #
    # ------------------------------------------------------------------ #

    def query(self, payload: Mapping) -> dict:
        """Execute one wire query; returns the wire result.

        The result is exactly what an in-process
        :meth:`RetrievalService.query` returns, encoded — served and
        embedded rankings are interchangeable.
        """
        query = codec.decode_query(payload)
        return codec.encode_query_result(self._service.query(query))

    def batch_query(self, payload: Mapping) -> dict:
        """Execute a batch of wire queries (optionally multi-worker)."""
        data = codec.open_envelope(payload, "batch_query")
        queries_field = data.get("queries")
        if not isinstance(queries_field, (list, tuple)):
            raise CodecError("batch_query payload needs a 'queries' list")
        queries = [codec.decode_query(entry) for entry in queries_field]
        workers = data.get("workers")
        if workers is not None:
            workers = min(int(workers), self.MAX_BATCH_WORKERS)
        results = self._service.batch_query(queries, workers=workers)
        return codec.envelope(
            "batch_query_result",
            {"results": [codec.encode_query_result(result) for result in results]},
        )

    def rank(self, payload: Mapping) -> dict:
        """Rank the database with a session's model or an explicit concept.

        With ``"session"``, re-ranks using that tenant's current trained
        model (examples excluded, no retraining).  With ``"concept"``, ranks
        the region corpus against a concept shipped over the wire — the
        train-once / rank-anywhere path.  Every ranking is exact; unknown
        payload fields (such as a rank-mode field older clients send) are
        ignored.
        """
        data = codec.open_envelope(payload, "rank")
        fields = codec.rank_fields(data)
        token = data.get("session")
        if token is not None:
            session = self._sessions.get(str(token))
            ranking = session.rank(
                fields.candidate_ids,
                top_k=fields.top_k,
                category_filter=fields.category_filter,
                exclude=fields.exclude,
            )
        elif data.get("concept") is not None:
            concept = codec.decode_concept(data["concept"])
            # Subset views arrive non-routable (no throwaway shard index).
            packed = self._service.packed_database(fields.candidate_ids)
            ranking = Ranker().rank(
                concept,
                packed,
                top_k=fields.top_k,
                exclude=fields.exclude,
                category_filter=fields.category_filter,
            )
        else:
            raise CodecError("rank payload needs a 'session' token or a 'concept'")
        return codec.envelope("rank_result", {"ranking": codec.encode_ranking(ranking)})

    def rank_fragment(self, payload: Mapping) -> dict:
        """Evaluate one contiguous bag range of a scattered rank query.

        The worker half of the cross-process scatter path
        (:mod:`repro.serve.scatter`): runs the bound pass + chunked
        survivor evaluation over bags ``[start, stop)`` of the database's
        packed view and returns the compact candidate fragment — bag
        *positions* plus exact distances (the coordinator owns the
        position → id/category mapping, so ids never cross the wire
        twice) and the bound-pass survivor count for ``stats()``.  An
        optional ``threshold`` pre-seeds pruning; the coordinator sends
        the :func:`~repro.core.sharding.seed_threshold` sample's kth-best
        so every fragment prunes against an already tight cutoff.
        """
        data = codec.open_envelope(payload, "rank_fragment")
        if data.get("concept") is None:
            raise CodecError("rank_fragment payload needs a 'concept'")
        concept = codec.decode_concept(data["concept"])
        for field in ("top_k", "start", "stop"):
            value = data.get(field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise CodecError(
                    f"rank_fragment payload needs an integer {field!r}, "
                    f"got {value!r}"
                )
        fields = codec.rank_fields(data, "rank_fragment")
        positions, distances, n_evaluated = ShardedRanker().fragment_candidates(
            concept,
            self._service.packed_database(),
            top_k=int(data["top_k"]),
            start=int(data["start"]),
            stop=int(data["stop"]),
            exclude=fields.exclude,
            category_filter=fields.category_filter,
            initial_threshold=codec.number_field(
                data, "rank_fragment", "threshold", default=float("inf")
            ),
        )
        return codec.envelope(
            "rank_fragment_result",
            {
                "positions": [int(position) for position in positions],
                "distances": [float(distance) for distance in distances],
                "n_evaluated": int(n_evaluated),
            },
        )

    # ------------------------------------------------------------------ #
    # Stateful feedback                                                   #
    # ------------------------------------------------------------------ #

    def feedback(self, payload: Mapping) -> dict:
        """One relevance-feedback round for a (possibly new) session.

        Without a ``"session"`` token a session is created (honouring
        ``"learner"`` / ``"params"``) — the response always echoes the token
        so the client can continue the loop.
        """
        data = codec.open_envelope(payload, "feedback")
        id_lists = {
            name: codec.id_list_field(data, "feedback", name)
            for name in (
                "add_positive_ids", "add_negative_ids", "false_positive_ids"
            )
        }
        top_k = codec.top_k_field(data, "feedback")
        category_filter = codec.optional_str_field(
            data, "feedback", "category_filter"
        )
        learner = codec.optional_str_field(data, "feedback", "learner")
        params = codec.mapping_field(data, "feedback", "params")
        token = data.get("session")
        created = token is None
        if created:
            token = self._sessions.create(
                learner="dd" if learner is None else learner,
                params=params,
            )
        try:
            round_result = self._sessions.feedback_round(
                str(token),
                **id_lists,
                rank=bool(data.get("rank", True)),
                top_k=top_k,
                category_filter=category_filter,
            )
        except Exception:
            # A round that never succeeded should not leave an orphaned
            # session behind: the client has no token to continue with, and
            # retry storms would otherwise fill max_sessions with orphans.
            if created:
                self._sessions.drop(str(token))
            raise
        concept = round_result.concept
        return codec.envelope(
            "feedback_result",
            {
                "session": round_result.token,
                "positive_ids": list(round_result.positive_ids),
                "negative_ids": list(round_result.negative_ids),
                "ranking": (
                    None
                    if round_result.ranking is None
                    else codec.encode_ranking(round_result.ranking)
                ),
                "concept": None if concept is None else codec.encode_concept(concept),
            },
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        """Liveness + identity (cheap enough for load-balancer probes)."""
        return codec.envelope(
            "health",
            {
                "status": "ok",
                "service": self._name,
                "package_version": __version__,
                "wire_version": codec.WIRE_VERSION,
                "database": getattr(self._service.database, "name", ""),
                "n_images": len(self._service.database),
                "learners": list(available_learners()),
            },
        )

    def stats(self) -> dict:
        """Serving counters: service (incl. concept cache) and sessions."""
        return codec.envelope(
            "stats",
            {
                "service": self._service.stats(),
                "sessions": self._sessions.stats(),
            },
        )


def handle_safely(app, endpoint: str, payload: Mapping | None) -> tuple[int, dict]:
    """Dispatch and map failures to ``(status, wire payload)``.

    The shared transport glue: 200 on success, 404 for unknown sessions,
    504 for expired request deadlines, 400 for every other deliberate
    package error, 500 for genuine bugs.
    Transports that have status codes (HTTP) use the integer directly;
    others can key off the payload's ``kind``.

    Apps that already produce ``(status, payload)`` pairs — the worker
    pool's :class:`~repro.serve.workers.WorkerDispatchApp`, whose statuses
    were assigned by this very function inside a worker process — expose a
    ``handle`` method instead, and their statuses pass through verbatim (a
    worker's 500 must not be downgraded to the parent's 400).
    """
    handle = getattr(app, "handle", None)
    if callable(handle):
        try:
            return handle(endpoint, payload)
        except Exception as exc:  # noqa: BLE001 - transport glue must not die
            return 500, error_payload(exc)
    try:
        return 200, app.dispatch(endpoint, payload)
    except DeadlineError as exc:
        return 504, error_payload(exc)
    except SessionError as exc:
        return 404, error_payload(exc)
    except ReproError as exc:
        return 400, error_payload(exc)
    except Exception as exc:  # noqa: BLE001 - the server must not die mid-request
        return 500, error_payload(exc)


def raise_error_payload(payload: Any, status: int | None = None) -> None:
    """Re-raise a wire ``error`` payload as its typed package exception.

    The inverse of :func:`error_payload`, shared by the HTTP client and the
    worker pool's dispatch: a failure that crossed a process or network
    boundary surfaces to the caller as the same exception type the far side
    raised.  Unknown or missing exception names degrade to
    :class:`~repro.errors.ServeError` — this function *always* raises.
    """
    message = f"request failed with status {status}" if status else "request failed"
    if isinstance(payload, Mapping):
        name = payload.get("error")
        message = str(payload.get("message", message))
        cls = getattr(errors_module, str(name), None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            exc = cls(message)
            if payload.get("retryable"):
                exc.retryable = True
            raise exc
    raise ServeError(message)
