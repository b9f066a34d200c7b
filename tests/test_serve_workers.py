"""Multi-process serving tests: WorkerPool / WorkerDispatchApp over one
shared-memory corpus, including the bit-identical-ranking property test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.core.concept import LearnedConcept
from repro.core.retrieval import Ranker, rank_by_loop
from repro.datasets.synth import corpus_from_config
from repro.datasets.synth.config import ScenarioConfig
from repro.errors import CodecError, ReproError, ServeError, SessionError
from repro.serve import codec
from repro.serve.app import handle_safely
from repro.serve.workers import WorkerDispatchApp, WorkerPool

_PARAMS = {"scheme": "identical", "max_iterations": 25, "seed": 5}
_CONFIG = ScenarioConfig(
    name="worker-test",
    mode="feature",
    categories=tuple(f"cat{i}" for i in range(6)),
    feature_dims=6,
    instances_per_bag=3,
    cluster_spread=0.2,
).with_total_bags(48)


@pytest.fixture(scope="module")
def packed():
    return corpus_from_config(_CONFIG)


@pytest.fixture(scope="module")
def local_service(packed):
    return RetrievalService(packed)


@pytest.fixture(scope="module")
def pool(local_service):
    with WorkerPool.from_service(local_service, 2) as pool:
        yield pool


@pytest.fixture(scope="module")
def app(pool):
    return WorkerDispatchApp(pool)


def _concept(packed, bag: int = 0, weight: float = 1.0) -> LearnedConcept:
    return LearnedConcept(
        t=packed.instances[bag], w=np.full(packed.n_dims, weight), nll=0.0
    )


def _rank_payload(concept, **extra) -> dict:
    return codec.envelope(
        "rank", {"concept": codec.encode_concept(concept), **extra}
    )


class TestSharedMapping:
    def test_workers_attach_not_copy(self, pool):
        """Every worker's instance matrix is a view into the shared segment."""
        for pong in pool.ping():
            assert pong["owns_instances"] is False
            assert pong["n_bags"] == 48

    def test_worker_pids_are_distinct_processes(self, pool):
        import os

        pids = pool.worker_pids()
        assert len(set(pids)) == 2
        assert os.getpid() not in pids


class TestBitIdenticalRankings:
    def test_rank_matches_single_process(self, app, packed):
        concept = _concept(packed, bag=3, weight=0.8)
        status, reply = app.handle("rank", _rank_payload(concept))
        assert status == 200, reply
        remote = codec.decode_ranking(reply["ranking"])
        local = Ranker().rank(concept, packed)
        loop = rank_by_loop(concept, packed.candidates())
        assert remote.image_ids == local.image_ids == loop.image_ids
        # Bit-identical to the single-process Ranker (same kernel, same
        # data, different process); the loop reference uses a different
        # floating-point formula, so its distances agree to ulps only.
        np.testing.assert_array_equal(remote.distances, local.distances)
        np.testing.assert_allclose(
            remote.distances, loop.distances, rtol=1e-9, atol=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(
        bag=st.integers(min_value=0, max_value=47),
        weight=st.floats(min_value=0.05, max_value=4.0,
                         allow_nan=False, allow_infinity=False),
        top_k=st.sampled_from([1, 3, 48, None]),
    )
    def test_property_pool_rankings_bit_identical(
        self, app, packed, bag, weight, top_k
    ):
        """Worker rankings == Ranker == rank_by_loop, ids *and* distances."""
        concept = _concept(packed, bag=bag, weight=weight)
        status, reply = app.handle("rank", _rank_payload(concept, top_k=top_k))
        assert status == 200, reply
        remote = codec.decode_ranking(reply["ranking"])
        local = Ranker().rank(concept, packed, top_k=top_k)
        assert remote.image_ids == local.image_ids
        np.testing.assert_array_equal(remote.distances, local.distances)
        loop = rank_by_loop(concept, packed.candidates())
        kept = len(remote)
        assert remote.image_ids == loop.image_ids[:kept]
        np.testing.assert_allclose(
            remote.distances, np.asarray(loop.distances[:kept]),
            rtol=1e-9, atol=1e-12
        )

    def test_query_matches_single_process(self, app, local_service, packed):
        query = Query(
            positive_ids=packed.image_ids[:2],
            negative_ids=packed.image_ids[10:12],
            learner="dd",
            params=dict(_PARAMS),
            top_k=5,
        )
        status, reply = app.handle("query", codec.encode_query(query))
        assert status == 200, reply
        remote = codec.decode_query_result(reply)
        reference = local_service.query(query)
        assert remote.ranking.image_ids == reference.ranking.image_ids
        np.testing.assert_array_equal(
            remote.ranking.distances, reference.ranking.distances
        )


class TestSessionAffinity:
    def test_feedback_rounds_route_to_owning_worker(self, app, packed):
        status, first = app.handle(
            "feedback",
            codec.envelope(
                "feedback",
                {
                    "add_positive_ids": [packed.image_ids[0]],
                    "learner": "dd",
                    "params": dict(_PARAMS),
                    "rank": True,
                    "top_k": 3,
                },
            ),
        )
        assert status == 200, first
        token = first["session"]
        # Several follow-up rounds: without affinity, ~half would land on
        # the worker that never saw the session and 404.
        for i in range(4):
            status, reply = app.handle(
                "feedback",
                codec.envelope(
                    "feedback",
                    {
                        "session": token,
                        "add_negative_ids": [packed.image_ids[20 + i]],
                        "rank": False,
                    },
                ),
            )
            assert status == 200, reply
            assert reply["session"] == token
        assert len(reply["negative_ids"]) == 4

    def test_session_rank_follows_affinity(self, app, packed):
        status, created = app.handle(
            "feedback",
            codec.envelope(
                "feedback",
                {
                    "add_positive_ids": [packed.image_ids[5]],
                    "params": dict(_PARAMS),
                    "rank": True,  # trains the model session-rank reuses
                    "top_k": 3,
                },
            ),
        )
        assert status == 200, created
        token = created["session"]
        for _ in range(3):
            status, reply = app.handle(
                "rank", codec.envelope("rank", {"session": token, "top_k": 4})
            )
            assert status == 200, reply

    def test_sessions_stay_isolated_across_workers(self, app, packed):
        tokens = []
        for i in range(6):
            status, reply = app.handle(
                "feedback",
                codec.envelope(
                    "feedback",
                    {
                        "add_positive_ids": [packed.image_ids[i]],
                        "params": dict(_PARAMS),
                        "rank": False,
                    },
                ),
            )
            assert status == 200, reply
            tokens.append(reply["session"])
            assert reply["positive_ids"] == [packed.image_ids[i]]
        assert len(set(tokens)) == 6


class TestErrorsAndAggregation:
    def test_unknown_session_propagates_as_404(self, app):
        status, reply = app.handle(
            "rank", codec.envelope("rank", {"session": "no-such-token"})
        )
        assert status == 404
        assert reply["error"] == "SessionError"
        with pytest.raises(SessionError):
            app.dispatch("rank", codec.envelope("rank", {"session": "nope"}))

    def test_codec_error_propagates_as_400(self, app):
        status, reply = app.handle("rank", codec.envelope("rank", {}))
        assert status == 400
        assert reply["error"] == "CodecError"
        with pytest.raises(CodecError):
            app.dispatch("rank", codec.envelope("rank", {}))

    def test_malformed_ranks_never_open_a_breaker(self, local_service):
        # One client's bad input is a 400 in the worker, not a failure:
        # twelve of them must leave every worker in rotation.
        with WorkerPool.from_service(local_service, 2) as pool:
            app = WorkerDispatchApp(pool)
            concept = codec.encode_concept(_concept(local_service.database))
            bad_fields = [
                {"top_k": "abc"}, {"top_k": 2.7}, {"top_k": True},
                {"top_k": 3, "exclude": 5},
                {"top_k": 3, "candidate_ids": 5},
                {"top_k": 3, "category_filter": ["x"]},
            ]
            for fields in bad_fields * 2:
                status, reply = handle_safely(
                    app, "rank",
                    codec.envelope("rank", {"concept": concept, **fields}),
                )
                assert status == 400, (fields, reply)
                assert reply["error"] == "CodecError"
            breaker = pool.breaker.snapshot()
            assert breaker["opens"] == 0, breaker
            assert breaker["open_workers"] == [], breaker

    def test_unknown_endpoint_rejected(self, app):
        status, reply = app.handle("no_such_endpoint", {})
        assert status == 400
        assert reply["error"] == "QueryError"

    def test_handle_safely_passes_worker_statuses_through(self, app):
        status, reply = handle_safely(
            app, "rank", codec.envelope("rank", {"session": "missing"})
        )
        assert status == 404  # not downgraded by re-classification

    def test_health_reports_pool_shape(self, app):
        payload = app.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["n_images"] == 48

    def test_stats_aggregates_across_workers(self, app):
        payload = app.stats()
        assert payload["workers"]["n_workers"] == 2
        assert len(payload["workers"]["per_worker"]) == 2
        summed = sum(w["n_queries"] for w in payload["workers"]["per_worker"])
        assert payload["service"]["n_queries"] == summed
        assert payload["sessions"]["created"] >= 6


class TestCrashRecovery:
    def test_crashed_worker_restarts_automatically(self, local_service):
        with WorkerPool.from_service(local_service, 1) as pool:
            app = WorkerDispatchApp(pool)
            first_pid = pool.worker_pids()[0]
            pool._workers[0].process.kill()
            pool._workers[0].process.join(10.0)
            # The in-flight request fails once (a 500 through the transport
            # glue), then the replacement worker serves.
            status, reply = handle_safely(app, "health", None)
            assert status in (200, 500)
            status, reply = handle_safely(app, "health", None)
            assert status == 200, reply
            assert pool.n_restarts == 1
            assert pool.worker_pids()[0] != first_pid

    def test_ensure_healthy_counts_restarts(self, local_service):
        with WorkerPool.from_service(local_service, 1) as pool:
            assert pool.ensure_healthy() == 0
            pool._workers[0].process.kill()
            pool._workers[0].process.join(10.0)
            assert pool.ensure_healthy() == 1
            assert pool.ping()[0]["owns_instances"] is False


class TestLostSessions:
    def test_feedback_after_owner_crash_is_a_typed_404(self, local_service, packed):
        """A session whose owning worker crashed and restarted answers a
        retryable 404 SessionError, not a silent new-session 200."""
        with WorkerPool.from_service(local_service, 2) as pool:
            app = WorkerDispatchApp(pool)
            status, created = app.handle(
                "feedback",
                codec.envelope(
                    "feedback",
                    {
                        "add_positive_ids": [packed.image_ids[0]],
                        "params": dict(_PARAMS),
                        "rank": False,
                    },
                ),
            )
            assert status == 200, created
            token = created["session"]
            owner = pool._routes[token]
            pool._workers[owner].process.kill()
            pool._workers[owner].process.join(10.0)
            status, reply = app.handle(
                "feedback",
                codec.envelope(
                    "feedback",
                    {"session": token, "add_negative_ids": [packed.image_ids[9]]},
                ),
            )
            assert status == 404
            assert reply["error"] == "SessionError"
            assert "lost to a worker restart" in reply["message"]
            assert reply["retryable"] is True
            assert pool.resilience.get("lost_sessions") >= 1
            # The loss is remembered: replays stay 404 instead of hitting
            # whichever worker now owns the slot.
            status, reply = app.handle(
                "rank", codec.envelope("rank", {"session": token})
            )
            assert status == 404
            assert "lost to a worker restart" in reply["message"]
            # A fresh session on the recovered pool works.
            status, fresh = app.handle(
                "feedback",
                codec.envelope(
                    "feedback",
                    {
                        "add_positive_ids": [packed.image_ids[1]],
                        "params": dict(_PARAMS),
                        "rank": False,
                    },
                ),
            )
            assert status == 200, fresh
            assert fresh["session"] != token


class TestLifecycle:
    def test_stop_is_idempotent_and_rejects_requests(self, local_service):
        pool = WorkerPool.from_service(local_service, 1)
        pool.stop()
        pool.stop()
        with pytest.raises(ServeError, match="stopped"):
            pool.handle("health", None)

    def test_invalid_worker_count_rejected(self, local_service):
        with pytest.raises(ServeError, match="n_workers"):
            WorkerPool.from_service(local_service, 0)

    def test_request_raises_typed_errors(self, pool):
        with pytest.raises(ReproError):
            pool.request("rank", codec.envelope("rank", {}))
        payload = pool.request("health")
        assert payload["status"] == "ok"

    def test_stop_escalates_on_a_wedged_worker_and_leaves_no_orphans(
        self, local_service, packed
    ):
        """stop() must terminate a worker that sits wedged mid-request
        (the stop sentinel cannot be delivered past the in-flight stall)
        instead of hanging, and every worker process must be dead after."""
        import threading
        import time

        from repro.testing.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec(kind="stall", worker=0, after_requests=1,
                              seconds=120.0),),
        )
        pool = WorkerPool.from_service(local_service, 1, fault_plan=plan)
        processes = [worker.process for worker in pool._workers]

        concept = _concept(packed)

        def wedge() -> None:
            # No deadline: this request blocks on the stalled worker until
            # stop() tears the pipe down under it.
            try:
                pool.handle("rank", _rank_payload(concept))
            except ReproError:
                pass

        wedger = threading.Thread(target=wedge, daemon=True)
        wedger.start()
        time.sleep(0.3)  # let the request reach the stall
        started = time.monotonic()
        pool.stop()
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"stop() hung for {elapsed:.1f}s on a wedged worker"
        wedger.join(10.0)
        for process in processes:
            process.join(5.0)
            assert not process.is_alive(), f"orphan worker pid {process.pid}"
