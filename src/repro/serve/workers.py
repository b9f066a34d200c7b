"""Pre-fork worker pool: N processes ranking one shared-memory corpus.

One serving process is GIL-bound — the exact ranking kernels never use
more than ~1 core.  :class:`WorkerPool` spawns N worker processes, each
running its own :class:`~repro.serve.app.ServiceApp` over a
:class:`~repro.api.service.RetrievalService`, all ranking against **one**
:class:`~repro.serve.shm.SharedPackedCorpus` mapping (zero per-worker
copies of the instance matrix, squares cache, or shard-index envelopes).
Requests travel over per-worker ``multiprocessing`` pipes carrying the
PR 4 wire payloads; replies come back as the ``(status, payload)`` pairs
:func:`~repro.serve.app.handle_safely` produced *inside* the worker, so
typed errors cross the process boundary with their HTTP status intact.

:class:`WorkerDispatchApp` adapts the pool to the transport layer: it
quacks like a :class:`~repro.serve.app.ServiceApp` as far as
:class:`~repro.serve.http.ReproServer` is concerned (``repro serve
--workers N`` is the same HTTP server, dispatching into the pool instead
of a local service).

Session state lives *inside* each worker's
:class:`~repro.serve.sessions.SessionStore`; the pool keeps a bounded
token → worker affinity map so every round of a feedback session lands on
the worker that holds it.  Stateless endpoints round-robin.

Workers are spawn-started (fork-safety with threads in the parent),
warm-started from the parent service — the trained-concept cache entries
travel through the same codec the snapshot layer uses — health-checked by
ping, and restarted automatically when one crashes (its sessions are
lost, which the restart reports; everything stateless continues).

Every dispatch honours a per-request :class:`~repro.serve.resilience.Deadline`
when the payload carries one (``deadline_ms``): the parent waits on the
worker pipe with ``poll(remaining)`` instead of a blocking ``recv``, so a
hung-but-alive worker is detected at expiry, terminated and replaced (a
late reply would desynchronise the pipe), and the request answers a typed
504 :class:`~repro.errors.DeadlineError` — it never hangs past its budget.
A per-worker-slot :class:`~repro.serve.resilience.CircuitBreaker` routes
round-robin traffic around a flapping worker until a cooldown re-probe,
sessions lost to a restart surface as a retryable 404
:class:`~repro.errors.SessionError`, and every recovery action is counted
in ``stats()["resilience"]``.  A seeded
:class:`~repro.testing.faults.FaultPlan` can ride the knobs to exercise
all of it deterministically.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping, Sequence

from repro.core.retrieval import AUTO_SHARD_MIN_BAGS, packed_view
from repro.errors import (
    CodecError,
    DeadlineError,
    ServeError,
    SessionError,
    WorkerProtocolError,
    WorkerUnresponsiveError,
)
from repro.serve.app import ServiceApp, handle_safely, raise_error_payload
from repro.serve.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceStats,
    deadline_from_payload,
    stamp_deadline,
)
from repro.serve.scatter import ScatterRanker
from repro.serve.shm import SharedPackedCorpus

#: The database corpus key (mirrors ``repro.serve.snapshot``).
_DATABASE_KEY = "region-bags"
#: Control verbs on the worker pipe (never valid endpoint names).
_PING = "__ping__"
_READY = "__ready__"
#: Endpoints whose payload may address a session.
_SESSION_ENDPOINTS = ("feedback", "rank")
#: Affinity-map bound — tokens beyond this drop oldest-first (the worker
#: still holds the session; a dropped route just falls back to round-robin
#: and surfaces as an unknown session only if it lands elsewhere).
MAX_ROUTES = 65536
#: How long to wait for a spawned worker to report ready.
READY_TIMEOUT = 60.0
#: Sessions lost to worker restarts, remembered so their next request can
#: answer a precise retryable 404 instead of a generic transport error.
MAX_LOST_SESSIONS = 65536
#: Default pipe wait for payload-less control traffic (ping / broadcast):
#: even without a request deadline, a wedged worker must not wedge a
#: health check or a ``stats`` aggregation forever.
CONTROL_TIMEOUT = 30.0


def _worker_main(conn, specs: dict, knobs: dict) -> None:
    """Worker process entry point (module-level: spawn must import it).

    Attaches every shared corpus in ``specs``, rebuilds a warm
    :class:`RetrievalService` + :class:`ServiceApp`, then answers
    ``(endpoint, payload)`` requests until the ``None`` sentinel.
    """
    # The pool owns worker lifetime: a Ctrl+C aimed at the parent must not
    # kill workers mid-drain (the parent stops them after the HTTP drain).
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Imports deferred so their cost lands in the worker, and so a spawn
    # re-import of this module stays cheap.
    from repro.api.service import RetrievalService
    from repro.serve.sessions import SessionStore
    from repro.serve.snapshot import decode_cache_entry

    attachments = []
    injector = None
    try:
        plan_wire = knobs.get("fault_plan")
        if plan_wire is not None:
            from repro.testing.faults import FaultInjector, FaultPlan

            injector = FaultInjector(
                FaultPlan.from_wire(plan_wire),
                worker_id=int(knobs.get("worker_id", 0)),
                incarnation=int(knobs.get("incarnation", 0)),
            )
        shared = SharedPackedCorpus.attach(specs["database"])
        attachments.append(shared)
        database = shared.corpus()
        service = RetrievalService(
            database,
            cache_size=knobs.get("cache_size", 128),
            max_history=knobs.get("max_history", 1000),
            # Any bag reordering already happened parent-side (the shared
            # segment carries the reordered corpus), so reorder_bags stays
            # off in workers.
        )
        for key, spec in specs.get("corpora", {}).items():
            extra = SharedPackedCorpus.attach(spec)
            attachments.append(extra)
            service.adopt_corpus(key, extra.corpus())
        cache = service.concept_cache
        if cache is not None:
            restored = []
            for entry in knobs.get("cache_entries", ()):
                try:
                    decoded = decode_cache_entry(entry)
                except Exception:  # noqa: BLE001 - a bad entry costs a slot
                    decoded = None
                if decoded is not None:
                    restored.append(decoded)
            cache.import_entries(restored)
        sessions = SessionStore(
            service,
            ttl_seconds=knobs.get("session_ttl", 1800.0),
            max_sessions=knobs.get("max_sessions", 1024),
        )
        app = ServiceApp(service, sessions, name=knobs.get("name", "repro"))
    except BaseException as exc:  # noqa: BLE001 - report, don't vanish
        try:
            conn.send((_READY, {"error": f"{type(exc).__name__}: {exc}"}))
        finally:
            conn.close()
        return

    info = {
        "pid": mp.current_process().pid,
        # False proves the ranking arrays are views into the shared
        # segment, not private copies (the bench asserts on this).
        "owns_instances": bool(database.instances.flags["OWNDATA"]),
        "n_bags": database.n_bags,
    }
    if injector is not None:
        injector.sleep_on_start()
    conn.send((_READY, info))
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            if request is None:
                break
            endpoint, payload = request
            if endpoint == _PING:
                conn.send((200, {"kind": "pong", **info,
                                 "sessions": sessions.stats()}))
                continue
            # The fault-injection boundary: exactly where real crashes,
            # stalls and corruption strike — after the request is framed,
            # before (or instead of) the app seeing it.
            fault = None
            if injector is not None:
                fault = injector.before_dispatch(endpoint)
            if fault is not None:
                if fault.kind == "crash":
                    os._exit(32)
                if fault.kind == "stall":
                    time.sleep(fault.seconds)
                elif fault.kind == "error":
                    failure = ServeError(
                        f"injected error-status fault on worker "
                        f"{knobs.get('worker_id', 0)}"
                    )
                    failure.retryable = True
                    from repro.serve.app import error_payload

                    conn.send((500, error_payload(failure)))
                    continue
            reply = handle_safely(app, endpoint, payload)
            if fault is not None and fault.kind == "corrupt":
                conn.send(["corrupt-reply", knobs.get("worker_id", 0)])
                continue
            conn.send(reply)
    finally:
        try:
            conn.close()
        finally:
            for attachment in attachments:
                attachment.close()


class _Worker:
    """Parent-side handle: process + pipe + a lock serialising the pipe."""

    def __init__(
        self,
        context,
        worker_id: int,
        specs: dict,
        knobs: dict,
        incarnation: int = 0,
    ) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.lock = threading.Lock()
        self.process = context.Process(
            target=_worker_main,
            # worker_id/incarnation identify this process generation to
            # the fault injector (faults target one incarnation, so a
            # restarted worker comes back clean).
            args=(
                child_conn,
                specs,
                {**knobs, "worker_id": worker_id, "incarnation": incarnation},
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        if not parent_conn.poll(READY_TIMEOUT):
            self.terminate()
            raise ServeError(
                f"worker {worker_id} did not report ready within "
                f"{READY_TIMEOUT:.0f}s"
            )
        verb, info = parent_conn.recv()
        if verb != _READY or "error" in info:
            detail = info.get("error", f"unexpected {verb!r} message")
            self.terminate()
            raise ServeError(f"worker {worker_id} failed to start: {detail}")
        self.info = info

    def request(
        self,
        endpoint: str,
        payload: Mapping | None,
        timeout: float | None = None,
    ) -> tuple[int, dict]:
        """One request/reply round trip (raises on a dead or hung worker).

        Args:
            endpoint: the wire endpoint name (or a control verb).
            payload: the request payload.
            timeout: seconds to wait for the reply; ``None`` blocks.

        Raises:
            WorkerUnresponsiveError: no reply within ``timeout``.  The
                caller **must** restart this worker: a late reply left in
                the pipe would answer the *next* request.
            WorkerProtocolError: the reply is not a ``(status, payload)``
                pair — the worker can no longer be trusted.
            ServeError: the worker died mid-request.
        """
        with self.lock:
            try:
                self.conn.send((endpoint, payload))
                if timeout is not None and not self.conn.poll(max(timeout, 0.0)):
                    raise WorkerUnresponsiveError(
                        f"worker {self.worker_id} (pid {self.process.pid}) "
                        f"did not answer {endpoint!r} within {timeout:.3f}s"
                    )
                reply = self.conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise ServeError(
                    f"worker {self.worker_id} (pid {self.process.pid}) "
                    f"died mid-request: {type(exc).__name__}"
                ) from exc
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or isinstance(reply[0], bool)
            or not isinstance(reply[0], int)
            or not isinstance(reply[1], Mapping)
        ):
            raise WorkerProtocolError(
                f"worker {self.worker_id} (pid {self.process.pid}) sent a "
                f"malformed reply of type {type(reply).__name__} instead of "
                f"a (status, payload) pair"
            )
        return reply

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful: sentinel, then join, then escalate to terminate.

        A worker wedged inside a request holds the pipe lock on its
        dispatcher thread, so the sentinel send must not block behind it
        — a bounded lock acquire decides between the graceful path and
        going straight to :meth:`terminate` (no orphan processes either
        way).
        """
        sent = False
        if self.lock.acquire(timeout=0.5):
            try:
                self.conn.send(None)
                sent = True
            except (BrokenPipeError, OSError):
                pass
            finally:
                self.lock.release()
        self.process.join(timeout if sent else 0.5)
        if self.process.is_alive():
            self.terminate()
        try:
            self.conn.close()
        except OSError:
            pass

    def terminate(self) -> None:
        """Forceful stop, escalating SIGTERM → SIGKILL; never leaks."""
        try:
            self.process.terminate()
            self.process.join(5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(5.0)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass


class WorkerPool:
    """N spawn-started serving workers over one shared-memory corpus.

    Build with :meth:`from_service` (shares the parent service's packed
    corpora and trained-concept cache) or :meth:`from_snapshot` /
    :meth:`from_corpus_dir` (load, then share).  Use as a context manager
    or call :meth:`stop` — the pool owns the shared segments and unlinks
    them on stop.
    """

    def __init__(
        self,
        shared: dict[str, SharedPackedCorpus],
        n_workers: int,
        knobs: dict | None = None,
        *,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        if n_workers < 1:
            raise ServeError(f"n_workers must be >= 1, got {n_workers}")
        if _DATABASE_KEY not in shared:
            raise ServeError(
                f"the pool needs a {_DATABASE_KEY!r} shared corpus"
            )
        self._shared = shared
        self._knobs = dict(knobs or {})
        self._specs = {
            "database": shared[_DATABASE_KEY].spec,
            "corpora": {
                key: corpus.spec
                for key, corpus in shared.items()
                if key != _DATABASE_KEY
            },
        }
        self._context = mp.get_context("spawn")
        self._lock = threading.Lock()
        self._restart_lock = threading.Lock()
        self._routes: OrderedDict[str, int] = OrderedDict()
        # Tokens whose owning worker was restarted: their next request
        # answers a precise retryable 404 ("lost to worker restart")
        # instead of whatever worker round-robin happens to pick.
        self._lost_sessions: OrderedDict[str, bool] = OrderedDict()
        self._rr = itertools.count()
        self._n_restarts = 0
        self._incarnations = [0] * n_workers
        self._stopped = False
        # One single-thread fragment queue per worker slot (see scatter).
        self._fan_out: list[ThreadPoolExecutor] | None = None
        self.resilience = ResilienceStats()
        self.breaker = CircuitBreaker(
            n_workers,
            threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
        )
        self._workers: list[_Worker] = []
        try:
            for worker_id in range(n_workers):
                self._workers.append(
                    _Worker(self._context, worker_id, self._specs, self._knobs)
                )
        except BaseException:
            self.stop()
            raise

    # ------------------------------------------------------------------ #
    # Constructors                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_service(
        cls,
        service,
        n_workers: int,
        *,
        share_squares: bool = True,
        session_ttl: float = 1800.0,
        max_sessions: int = 1024,
        name: str = "repro",
        fault_plan=None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> "WorkerPool":
        """Share a warmed service's corpora + concept cache with N workers.

        The database's packed view (built on demand), its rank index when
        one exists, every extra packed corpus, and the codec-serialisable
        concept-cache entries all travel to the workers — a pool answers a
        repeated query with zero retrains, exactly like a snapshot restore.

        Args:
            fault_plan: a :class:`~repro.testing.faults.FaultPlan` (or its
                wire form) to install into the workers for deterministic
                fault injection; ``None`` (the default) serves faithfully.
            breaker_threshold / breaker_cooldown: per-worker circuit
                breaker tuning (consecutive failures to open; seconds
                before a re-probe).
        """
        from repro.serve.snapshot import encode_cache_entry

        shared: dict[str, SharedPackedCorpus] = {}
        try:
            packed = packed_view(service.database)
            if (
                packed.rank_index_enabled
                and packed.n_bags >= AUTO_SHARD_MIN_BAGS
                and packed.cached_shard_index is None
            ):
                # Build the rank index once, parent-side, so its envelopes
                # (including the derived group envelopes) ride the shared
                # segment — N workers adopt zero-copy views instead of
                # each paying an O(n_bags x d) rebuild on first query.
                packed.shard_index()
            shared[_DATABASE_KEY] = SharedPackedCorpus.create(
                packed, share_squares=share_squares
            )
            for key in service.corpus_keys:
                if key == _DATABASE_KEY:
                    continue
                try:
                    extra = packed_view(service.get_corpus(key))
                except Exception:  # noqa: BLE001 - unpackable corpora rebuild cold
                    continue
                shared[key] = SharedPackedCorpus.create(
                    extra, share_squares=share_squares
                )
            cache_entries = []
            cache = service.concept_cache
            if cache is not None:
                for key, value in cache.export_entries():
                    encoded = encode_cache_entry(key, value)
                    if encoded is not None:
                        cache_entries.append(encoded)
            knobs = {
                "cache_size": service.cache_stats.max_entries or None,
                "max_history": service.max_history,
                "cache_entries": cache_entries,
                "session_ttl": session_ttl,
                "max_sessions": max_sessions,
                "name": name,
            }
            if fault_plan is not None:
                knobs["fault_plan"] = (
                    fault_plan.to_wire()
                    if hasattr(fault_plan, "to_wire")
                    else dict(fault_plan)
                )
            return cls(
                shared,
                n_workers,
                knobs,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
            )
        except BaseException:
            for corpus in shared.values():
                corpus.unlink()
            raise

    @classmethod
    def from_snapshot(cls, path, n_workers: int, **kwargs) -> "WorkerPool":
        """Load a serve snapshot once, then share it with N workers."""
        from repro.serve.snapshot import load_service

        service, _ = load_service(path)
        return cls.from_service(service, n_workers, **kwargs)

    @classmethod
    def from_corpus_dir(cls, path, n_workers: int, **kwargs) -> "WorkerPool":
        """Open a generated corpus directory once, then share it."""
        from repro.serve.snapshot import load_corpus_service

        service, _ = load_corpus_service(path)
        return cls.from_service(service, n_workers, **kwargs)

    # ------------------------------------------------------------------ #
    # Dispatch                                                            #
    # ------------------------------------------------------------------ #

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def n_restarts(self) -> int:
        """How many crashed workers the pool has replaced."""
        return self._n_restarts

    @property
    def shared(self) -> dict:
        """The shared-memory corpora by key (read-only view)."""
        return dict(self._shared)

    def worker_pids(self) -> tuple[int, ...]:
        return tuple(worker.process.pid for worker in self._workers)

    def _session_token(self, endpoint: str, payload: Mapping | None) -> str | None:
        if endpoint not in _SESSION_ENDPOINTS or not isinstance(payload, Mapping):
            return None
        token = payload.get("session")
        return None if token is None else str(token)

    def _pick(self, endpoint: str, payload: Mapping | None) -> tuple[int, bool]:
        """Choose a worker; returns ``(index, routed_by_affinity)``.

        Affinity routes bypass the circuit breaker (the session lives on
        exactly one worker — routing around it would only trade a slow
        answer for a guaranteed 404).  Round-robin skips open slots; with
        every slot open, plain round-robin resumes (refusing all traffic
        would turn a flapping pool into a dead one).
        """
        token = self._session_token(endpoint, payload)
        if token is not None:
            with self._lock:
                index = self._routes.get(token)
                if index is not None and index < len(self._workers):
                    self._routes.move_to_end(token)
                    return index, True
        # Round-robin; a session-addressed request with no route falls
        # through here and gets the far worker's authoritative 404.
        n = len(self._workers)
        start = next(self._rr)
        for offset in range(n):
            index = (start + offset) % n
            if self.breaker.available(index):
                return index, False
        return start % n, False

    def _lost_session_reply(self, token: str) -> tuple[int, dict]:
        exc = SessionError(
            f"session {token!r} was lost to a worker restart; start a new "
            f"session and replay the feedback round"
        )
        exc.retryable = True
        from repro.serve.app import error_payload

        return 404, error_payload(exc)

    def _remember(self, index: int, status: int, payload: Mapping) -> None:
        """Record the token → worker route a successful reply implies."""
        if status != 200 or not isinstance(payload, Mapping):
            return
        token = payload.get("session")
        if payload.get("kind") != "feedback_result" or token is None:
            return
        with self._lock:
            self._routes[str(token)] = index
            self._routes.move_to_end(str(token))
            while len(self._routes) > MAX_ROUTES:
                self._routes.popitem(last=False)

    def handle(
        self,
        endpoint: str,
        payload: Mapping | None,
        deadline: Deadline | None = None,
    ) -> tuple[int, dict]:
        """Route one request to a worker; returns its ``(status, payload)``.

        A worker that dies mid-request is restarted (its routes dropped,
        its sessions lost) and the in-flight request fails with a
        retryable 500.  With a ``deadline``, the reply wait is bounded by
        the remaining budget: a worker that misses it is declared
        unresponsive, terminated and replaced asynchronously, and the
        request answers a typed 504 *immediately* — it never waits out
        the replacement spawn.  Session requests whose owner was lost to
        a restart answer a retryable 404
        (:meth:`_lost_session_reply`).
        """
        from repro.serve.app import error_payload

        if self._stopped:
            raise ServeError("worker pool is stopped")
        if deadline is None:
            deadline = deadline_from_payload(payload)
        if deadline is not None and deadline.expired:
            self.resilience.incr("deadline_expiries")
            return 504, error_payload(
                DeadlineError(
                    f"deadline expired before {endpoint!r} was dispatched"
                )
            )
        token = self._session_token(endpoint, payload)
        if token is not None:
            with self._lock:
                lost = token in self._lost_sessions
            if lost:
                return self._lost_session_reply(token)
        index, routed = self._pick(endpoint, payload)
        worker = self._workers[index]
        send_payload = stamp_deadline(payload, deadline)
        try:
            status, reply = worker.request(
                endpoint,
                send_payload,
                timeout=None if deadline is None else deadline.remaining(),
            )
        except WorkerUnresponsiveError as exc:
            # The worker is alive but wedged (or just too slow).  Its
            # pipe now owes a reply we will never read, so the process
            # must go; the replacement spawns on a background thread so
            # this request answers its 504 at the deadline, not after a
            # worker warm-up.
            self.resilience.incr("deadline_expiries")
            self.resilience.incr("unresponsive_restarts")
            self.breaker.record_failure(index)
            self._restart_async(index, failed=worker)
            if routed and token is not None:
                with self._lock:
                    self._remember_lost(token)
            expiry = DeadlineError(str(exc))
            return 504, error_payload(expiry)
        except WorkerProtocolError as exc:
            self.resilience.incr("corrupt_replies")
            self.breaker.record_failure(index)
            self._restart(index, failed=worker)
            if routed and token is not None:
                return self._lost_session_reply(token)
            failure = ServeError(str(exc))
            failure.retryable = True
            return 500, error_payload(failure)
        except ServeError as exc:
            self.resilience.incr("crash_restarts")
            self.breaker.record_failure(index)
            self._restart(index, failed=worker)
            if routed and token is not None:
                return self._lost_session_reply(token)
            failure = ServeError(str(exc))
            failure.retryable = True
            return 500, error_payload(failure)
        if status >= 500:
            self.breaker.record_failure(index)
        else:
            self.breaker.record_success(index)
        self._remember(index, status, reply)
        return status, reply

    def broadcast(self, endpoint: str) -> list[tuple[int, dict]]:
        """Send a payload-less request to every worker, in worker order.

        A worker that died since the last health check — or that sits
        wedged past :data:`CONTROL_TIMEOUT` (a hung worker must not hang
        a ``stats`` aggregation) — is restarted and the request retried
        once on the replacement (mirroring :meth:`ping`), so an
        aggregation never surfaces a transport error for a crash the
        pool can absorb.  The retry is allowed to raise: a replacement
        dying instantly means something systemic, not a race.
        """
        replies = []
        for index in range(len(self._workers)):
            worker = self._workers[index]
            try:
                replies.append(
                    worker.request(endpoint, None, timeout=CONTROL_TIMEOUT)
                )
            except WorkerUnresponsiveError:
                self.resilience.incr("unresponsive_restarts")
                self._restart(index, failed=worker)
                replies.append(
                    self._workers[index].request(
                        endpoint, None, timeout=CONTROL_TIMEOUT
                    )
                )
            except ServeError:
                self._restart(index, failed=worker)
                replies.append(
                    self._workers[index].request(
                        endpoint, None, timeout=CONTROL_TIMEOUT
                    )
                )
        return replies

    def scatter(
        self,
        endpoint: str,
        payloads: Sequence[Mapping | None],
        *,
        workers: Sequence[int] | None = None,
        deadline: Deadline | None = None,
    ) -> list[tuple[int, dict]]:
        """Send ``payloads[i]`` to a worker each, concurrently; gather replies.

        The transport primitive under the scatter/gather rank path
        (:class:`~repro.serve.scatter.ScatterRanker`): at most one payload
        per worker, all in flight at once, replies in payload order.  A
        worker that dies mid-fragment is restarted (route cleanup
        included) and the scatter fails with :class:`ServeError` — the
        coordinator falls back to single-worker dispatch rather than
        merging a partial gather.

        Args:
            endpoint: the endpoint every payload targets.
            payloads: one request per targeted worker.
            workers: explicit distinct worker indices (``payloads[i]`` →
                ``workers[i]``); ``None`` targets workers ``0..n-1``
                positionally.  Lets the coordinator route around
                breaker-opened slots.
            deadline: bounds every fragment's reply wait; a fragment that
                misses it marks its worker unresponsive (restarted
                asynchronously) and fails the scatter with
                :class:`~repro.errors.WorkerUnresponsiveError`.

        Raises:
            ServeError: stopped pool, bad targets, a worker dying or
                hanging mid-scatter (after its restart is arranged), or
                an already-expired deadline.
        """
        if self._stopped:
            raise ServeError("worker pool is stopped")
        if workers is None:
            targets = list(range(len(payloads)))
        else:
            targets = [int(worker) for worker in workers]
        if len(targets) != len(payloads):
            raise ServeError(
                f"scatter got {len(payloads)} payloads for "
                f"{len(targets)} workers"
            )
        if len(set(targets)) != len(targets):
            raise ServeError(f"scatter workers must be distinct, got {targets}")
        for target in targets:
            if not 0 <= target < len(self._workers):
                raise ServeError(
                    f"scatter worker {target} out of range "
                    f"[0, {len(self._workers)})"
                )
        if deadline is not None and deadline.expired:
            self.resilience.incr("deadline_expiries")
            raise DeadlineError(
                f"deadline expired before the {endpoint!r} scatter started"
            )

        def one(index: int, payload: Mapping | None) -> tuple[int, dict]:
            worker = self._workers[index]
            try:
                status, reply = worker.request(
                    endpoint,
                    stamp_deadline(payload, deadline),
                    timeout=None if deadline is None else deadline.remaining(),
                )
            except WorkerUnresponsiveError:
                self.resilience.incr("deadline_expiries")
                self.resilience.incr("unresponsive_restarts")
                self.breaker.record_failure(index)
                self._restart_async(index, failed=worker)
                raise
            except WorkerProtocolError:
                self.resilience.incr("corrupt_replies")
                self.breaker.record_failure(index)
                self._restart(index, failed=worker)
                raise
            except ServeError:
                self.resilience.incr("crash_restarts")
                self.breaker.record_failure(index)
                self._restart(index, failed=worker)
                raise
            if status >= 500:
                self.breaker.record_failure(index)
            else:
                self.breaker.record_success(index)
            return status, reply

        # Each worker slot has its own FIFO fragment queue, and a scatter
        # enqueues all its fragments under the pool lock.  So a fragment
        # never waits behind another worker's busy pipe while its own
        # worker idles, and concurrent scatters reach every worker in the
        # same order: the first one is answered after one fragment time,
        # not after two.
        with self._lock:
            if self._fan_out is None:
                self._fan_out = [
                    ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix=f"repro-scatter-{slot}",
                    )
                    for slot in range(len(self._workers))
                ]
            futures = [
                self._fan_out[target].submit(one, target, payload)
                for target, payload in zip(targets, payloads)
            ]
        replies, failure = [], None
        for future in futures:
            try:
                replies.append(future.result())
            except ServeError as exc:
                # Drain every future before raising so no fragment is
                # left racing a future scatter for its worker's pipe.
                failure = exc
        if failure is not None:
            raise failure
        return replies

    def request(self, endpoint: str, payload: Mapping | None = None) -> dict:
        """Dispatch and return the wire payload, raising typed errors.

        The programmatic twin of :meth:`handle`: a non-200 reply re-raises
        as the package exception the worker raised.
        """
        status, payload_out = self.handle(endpoint, payload)
        if status != 200:
            raise_error_payload(payload_out, status)
        return payload_out

    # ------------------------------------------------------------------ #
    # Health                                                              #
    # ------------------------------------------------------------------ #

    def ping(self) -> list[dict]:
        """One pong per worker (restarting any found dead or wedged)."""
        pongs = []
        for index in range(len(self._workers)):
            worker = self._workers[index]
            try:
                status, pong = worker.request(
                    _PING, None, timeout=CONTROL_TIMEOUT
                )
            except WorkerUnresponsiveError:
                self.resilience.incr("unresponsive_restarts")
                self._restart(index, failed=worker)
                status, pong = self._workers[index].request(
                    _PING, None, timeout=CONTROL_TIMEOUT
                )
            except ServeError:
                self._restart(index, failed=worker)
                status, pong = self._workers[index].request(
                    _PING, None, timeout=CONTROL_TIMEOUT
                )
            pong = dict(pong)
            pong["worker_id"] = index
            pongs.append(pong)
        return pongs

    def ensure_healthy(self) -> int:
        """Restart workers whose processes have died; returns how many."""
        restarted = 0
        for index, worker in enumerate(self._workers):
            if not worker.alive():
                self._restart(index, failed=worker)
                restarted += 1
        return restarted

    def _remember_lost(self, token: str) -> None:
        """Mark a session token lost to a restart (caller holds ``_lock``)."""
        self._routes.pop(token, None)
        if token not in self._lost_sessions:
            self.resilience.incr("lost_sessions")
        self._lost_sessions[token] = True
        self._lost_sessions.move_to_end(token)
        while len(self._lost_sessions) > MAX_LOST_SESSIONS:
            self._lost_sessions.popitem(last=False)

    def _restart(self, index: int, *, failed: "_Worker | None" = None) -> None:
        with self._restart_lock:
            if self._stopped:
                return
            old = self._workers[index]
            if failed is not None and old is not failed:
                # Another thread already replaced this worker; don't kill
                # the healthy replacement.
                return
            old.terminate()
            self._incarnations[index] += 1
            self._workers[index] = _Worker(
                self._context,
                index,
                self._specs,
                self._knobs,
                incarnation=self._incarnations[index],
            )
            self._n_restarts += 1
        with self._lock:
            stale = [
                token for token, owner in self._routes.items() if owner == index
            ]
            for token in stale:
                self._remember_lost(token)

    def _restart_async(
        self, index: int, *, failed: "_Worker | None" = None
    ) -> None:
        """Replace a worker on a background thread.

        The unresponsive path uses this so the triggering request can
        answer its 504 at the deadline instead of eating the replacement
        spawn.  Requests racing the replacement hit the dead worker, fail
        fast, and their own ``_restart`` call blocks on the restart lock
        until the replacement exists (then no-ops via the identity
        guard).
        """

        def replace() -> None:
            try:
                self._restart(index, failed=failed)
            except Exception:  # noqa: BLE001 - a failed respawn surfaces on
                # the next request for this slot, which restarts it inline.
                pass

        threading.Thread(
            target=replace, name=f"repro-restart-{index}", daemon=True
        ).start()

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """Stop every worker and release the shared segments (idempotent).

        Setting the stopped flag under the restart lock serialises
        shutdown with any in-flight (possibly asynchronous) restart: a
        replacement spawned before the flag lands in the worker list and
        is stopped below; one racing after it sees the flag and never
        spawns — no orphan processes either way.
        """
        with self._restart_lock:
            if self._stopped:
                return
            self._stopped = True
        for queue in self._fan_out or ():
            queue.shutdown(wait=True)
        self._fan_out = None
        for worker in self._workers:
            worker.stop()
        self._workers = []
        for corpus in self._shared.values():
            try:
                corpus.unlink()
            except ServeError:  # pragma: no cover - non-owner handles
                corpus.close()
        with self._lock:
            self._routes.clear()
            self._lost_sessions.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else f"{len(self._workers)} workers"
        return f"WorkerPool({state}, {self._n_restarts} restarts)"


class WorkerDispatchApp:
    """The pool dressed as a :class:`~repro.serve.app.ServiceApp`.

    :class:`~repro.serve.http.ReproServer` (and anything else that calls
    :func:`~repro.serve.app.handle_safely`) dispatches into the pool
    through :meth:`handle`, preserving the worker-assigned status codes.
    ``health`` and ``stats`` aggregate across workers — ``stats`` sums the
    per-worker session and query counters and reports pool shape.

    Given the parent-side ``service`` the pool was built from, stateless
    wire-concept ``rank`` requests over a large enough corpus scatter
    their shard ranges across *all* workers and gather one merged,
    bit-identical ranking (:class:`~repro.serve.scatter.ScatterRanker`)
    instead of running the whole scan inside a single worker.

    Args:
        pool: the worker pool to dispatch into.
        service: the service the pool was built from
            (``WorkerPool.from_service``'s argument); enables the scatter
            path.  ``None`` (the default) keeps pure per-request
            dispatch.
        min_scatter_bags: corpus size at which rank requests scatter
            (``None`` = the auto-shard threshold; ``0`` disables the
            scatter path entirely).
    """

    ENDPOINTS = ServiceApp.ENDPOINTS

    def __init__(
        self,
        pool: WorkerPool,
        *,
        service=None,
        min_scatter_bags: int | None = None,
    ) -> None:
        self._pool = pool
        self._scatter: ScatterRanker | None = None
        if service is not None and min_scatter_bags != 0:
            self._scatter = ScatterRanker(
                pool, service, min_scatter_bags=min_scatter_bags
            )

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def scatter(self) -> ScatterRanker | None:
        """The scatter coordinator (``None`` when disabled)."""
        return self._scatter

    def handle(self, endpoint: str, payload: Mapping | None) -> tuple[int, dict]:
        """Transport glue entry point (statuses pass through verbatim)."""
        from repro.serve.app import error_payload

        name = endpoint.replace("-", "_")
        try:
            deadline = deadline_from_payload(payload)
        except CodecError as exc:
            return 400, error_payload(exc)
        if deadline is not None and deadline.expired:
            self._pool.resilience.incr("deadline_expiries")
            return 504, error_payload(
                DeadlineError(
                    f"{name} request arrived with its deadline already expired"
                )
            )
        if name == "health":
            return 200, self.health()
        if name == "stats":
            return 200, self.stats()
        if (
            name == "rank"
            and self._scatter is not None
            and self._scatter.eligible(payload)
        ):
            return self._scatter.handle(payload, deadline=deadline)
        return self._pool.handle(name, payload, deadline=deadline)

    def dispatch(self, endpoint: str, payload: Mapping | None = None) -> dict:
        """Programmatic dispatch: non-200 replies raise typed errors."""
        status, reply = self.handle(endpoint, payload)
        if status != 200:
            raise_error_payload(reply, status)
        return reply

    def health(self) -> dict:
        """Worker 0's health envelope plus pool shape."""
        payload = self._pool.request("health")
        payload["workers"] = self._pool.n_workers
        payload["worker_restarts"] = self._pool.n_restarts
        return payload

    def stats(self) -> dict:
        """Aggregated stats: summed counters, pool shape, per-worker pids."""
        totals: dict[str, Any] = {}
        sessions: dict[str, Any] = {}
        per_worker = []
        for index, (status, payload) in enumerate(self._pool.broadcast("stats")):
            if status != 200:
                raise_error_payload(payload, status)
            service_stats = payload.get("service", {})
            session_stats = payload.get("sessions", {})
            per_worker.append(
                {
                    "worker_id": index,
                    "n_queries": service_stats.get("n_queries", 0),
                    "active_sessions": session_stats.get("active", 0),
                }
            )
            for key in ("n_queries", "history_len"):
                totals[key] = totals.get(key, 0) + service_stats.get(key, 0)
            for key in ("n_images", "database_name", "corpus_keys", "cache"):
                totals.setdefault(key, service_stats.get(key))
            for key in ("active", "created", "expired", "evicted"):
                sessions[key] = sessions.get(key, 0) + session_stats.get(key, 0)
            for key in ("ttl_seconds", "max_sessions"):
                sessions.setdefault(key, session_stats.get(key))
        from repro.serve import codec

        return codec.envelope(
            "stats",
            {
                "service": totals,
                "sessions": sessions,
                "workers": {
                    "n_workers": self._pool.n_workers,
                    "restarts": self._pool.n_restarts,
                    "per_worker": per_worker,
                },
                "scatter": (
                    None if self._scatter is None else self._scatter.stats()
                ),
                "resilience": {
                    **self._pool.resilience.snapshot(),
                    "restarts": self._pool.n_restarts,
                    "breaker": self._pool.breaker.snapshot(),
                },
            },
        )

    def close(self) -> None:
        """Stop the pool (the HTTP layer calls this after its own drain)."""
        self._pool.stop()
