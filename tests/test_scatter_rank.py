"""Scatter/gather ranking tests: ScatterRanker / fragment_candidates /
seed_threshold / WorkerPool.scatter, including the bit-identity property
across pool widths and a crash-and-restart mid-sequence."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.service import RetrievalService
from repro.core.concept import LearnedConcept
from repro.core.retrieval import Ranker, build_result, keep_mask, rank_by_loop, top_order
from repro.core.sharding import (
    SEED_SAMPLE_BAGS,
    ShardedRanker,
    ShardIndex,
    seed_threshold,
)
from repro.datasets.synth import corpus_from_config
from repro.datasets.synth.config import ScenarioConfig
from repro.errors import DatabaseError, ServeError
from repro.serve import codec
from repro.serve.app import ServiceApp, handle_safely
from repro.serve.scatter import ScatterRanker
from repro.serve.workers import WorkerDispatchApp, WorkerPool

_CONFIG = ScenarioConfig(
    name="scatter-test",
    mode="feature",
    categories=tuple(f"cat{i}" for i in range(6)),
    feature_dims=6,
    instances_per_bag=3,
    cluster_spread=0.2,
).with_total_bags(48)


@pytest.fixture(scope="module")
def packed():
    corpus = corpus_from_config(_CONFIG)
    # 48 bags partition into one shard automatically; four shards give
    # every pool width below something to scatter.
    corpus.adopt_shard_index(ShardIndex.build(corpus, n_shards=4))
    return corpus


@pytest.fixture(scope="module")
def local_service(packed):
    return RetrievalService(packed)


@pytest.fixture(scope="module")
def apps(local_service):
    """Scatter-enabled dispatch apps over pools of width 1, 2, and odd 3."""
    pools = {}
    built = {}
    try:
        for width in (1, 2, 3):
            pool = WorkerPool.from_service(local_service, width)
            pools[width] = pool
            built[width] = WorkerDispatchApp(
                pool, service=local_service, min_scatter_bags=1
            )
        yield built
    finally:
        for pool in pools.values():
            pool.stop()


def _concept(packed, bag: int = 0, weight: float = 1.0) -> LearnedConcept:
    return LearnedConcept(
        t=packed.instances[bag], w=np.full(packed.n_dims, weight), nll=0.0
    )


def _rank_payload(concept, **extra) -> dict:
    return codec.envelope(
        "rank", {"concept": codec.encode_concept(concept), **extra}
    )


class TestSharedPools:
    """Repeated in-process scans over the scatter corpus stay exact."""

    def test_explicit_width_rank_still_exact(self, packed):
        concept = _concept(packed, bag=7, weight=0.6)
        exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=9)
        for _ in range(3):  # repeated queries reuse the cached index
            sharded = ShardedRanker().rank(concept, packed, top_k=9)
            assert sharded.image_ids == exhaustive.image_ids
            np.testing.assert_array_equal(
                sharded.distances, exhaustive.distances
            )


class TestSeedThreshold:
    def test_seed_is_safe_overestimate_of_kth_best(self, packed):
        index = ShardIndex.build(packed, n_shards=4)
        keep = keep_mask(packed, (), None)
        exact = np.sort(packed.min_distances(_concept(packed)))
        for top_k in (1, 3, 10):
            seed = seed_threshold(packed, index, _concept(packed), keep, top_k)
            assert np.isfinite(seed)
            assert seed >= exact[top_k - 1]

    def test_seed_respects_keep_mask(self, packed):
        index = ShardIndex.build(packed, n_shards=4)
        concept = _concept(packed, bag=2)
        keep = keep_mask(packed, (), "cat0")
        kept = int(np.count_nonzero(keep))
        exact = np.sort(packed.min_distances(concept)[keep])
        seed = seed_threshold(packed, index, concept, keep, 2)
        assert kept > 2 and seed >= exact[1]

    def test_inf_when_sample_cannot_fill_top_k(self, packed):
        index = ShardIndex.build(packed, n_shards=4)
        keep = keep_mask(packed, (), None)
        assert seed_threshold(
            packed, index, _concept(packed), keep, packed.n_bags
        ) == float("inf")
        # A sparse stride sample smaller than top_k must also refuse to
        # guess: the max of a partial sample is not a bound on the kth.
        assert seed_threshold(
            packed, index, _concept(packed), keep, 8, sample_bags=4
        ) == float("inf") or seed_threshold(
            packed, index, _concept(packed), keep, 8, sample_bags=4
        ) >= np.sort(packed.min_distances(_concept(packed)))[7]

    def test_validation(self, packed):
        index = ShardIndex.build(packed, n_shards=4)
        keep = keep_mask(packed, (), None)
        with pytest.raises(DatabaseError):
            seed_threshold(packed, index, _concept(packed), keep, 0)
        with pytest.raises(DatabaseError):
            seed_threshold(
                packed, index, _concept(packed), keep, 5, sample_bags=0
            )
        other = corpus_from_config(_CONFIG)
        with pytest.raises(DatabaseError):
            seed_threshold(other, index, _concept(packed), keep, 5)

    def test_default_sample_budget_is_bounded(self):
        assert SEED_SAMPLE_BAGS == 4096


class TestFragmentCandidates:
    def _merge(self, packed, frags, top_k, total):
        pos = np.concatenate([f[0] for f in frags])
        dist = np.concatenate([f[1] for f in frags])
        ids = packed.id_array[pos]
        categories = packed.category_array[pos]
        order = top_order(ids, dist, top_k)
        return build_result(ids, categories, dist, order, total)

    @pytest.mark.parametrize("cuts", [(0, 48), (0, 20, 48), (0, 5, 11, 30, 48)])
    def test_fragment_union_merges_bit_identical(self, packed, cuts):
        concept = _concept(packed, bag=11, weight=0.8)
        top_k = 5
        ranker = ShardedRanker()
        frags = [
            ranker.fragment_candidates(
                concept, packed, top_k=top_k, start=a, stop=b
            )
            for a, b in zip(cuts, cuts[1:])
        ]
        merged = self._merge(packed, frags, top_k, packed.n_bags)
        exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=top_k)
        assert merged.image_ids == exhaustive.image_ids
        np.testing.assert_array_equal(merged.distances, exhaustive.distances)

    def test_seeded_threshold_does_not_change_result(self, packed):
        concept = _concept(packed, bag=3)
        index = packed.shard_index()
        keep = keep_mask(packed, (), None)
        seed = seed_threshold(packed, index, concept, keep, 4)
        ranker = ShardedRanker()
        frags = [
            ranker.fragment_candidates(
                concept, packed, top_k=4, start=a, stop=b,
                initial_threshold=seed,
            )
            for a, b in ((0, 24), (24, 48))
        ]
        merged = self._merge(packed, frags, 4, packed.n_bags)
        exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=4)
        assert merged.image_ids == exhaustive.image_ids
        np.testing.assert_array_equal(merged.distances, exhaustive.distances)

    def test_filters_apply_inside_fragment(self, packed):
        concept = _concept(packed, bag=9)
        exclude = tuple(packed.image_ids[:3])
        frags = [
            ShardedRanker().fragment_candidates(
                concept, packed, top_k=3, start=a, stop=b,
                exclude=exclude, category_filter="cat1",
            )
            for a, b in ((0, 30), (30, 48))
        ]
        keep = keep_mask(packed, exclude, "cat1")
        merged = self._merge(packed, frags, 3, int(np.count_nonzero(keep)))
        reference = Ranker(auto_shard=False).rank(
            concept, packed, top_k=3, exclude=exclude, category_filter="cat1"
        )
        assert merged.image_ids == reference.image_ids
        np.testing.assert_array_equal(merged.distances, reference.distances)

    def test_empty_range_is_empty(self, packed):
        idx, dist, evaluated = ShardedRanker().fragment_candidates(
            _concept(packed), packed, top_k=5, start=17, stop=17
        )
        assert idx.size == 0 and dist.size == 0 and evaluated == 0

    def test_n_evaluated_counts_bound_pass_survivors(self, packed):
        idx, dist, evaluated = ShardedRanker().fragment_candidates(
            _concept(packed, bag=5), packed, top_k=2, start=0, stop=48
        )
        assert idx.size >= 2
        assert evaluated >= idx.size
        assert evaluated <= packed.n_bags

    def test_validation(self, packed):
        with pytest.raises(DatabaseError):
            ShardedRanker().fragment_candidates(
                _concept(packed), packed, top_k=0, start=0, stop=48
            )
        with pytest.raises(DatabaseError):
            ShardedRanker().fragment_candidates(
                _concept(packed), packed, top_k=5, start=10, stop=9
            )
        with pytest.raises(DatabaseError):
            ShardedRanker().fragment_candidates(
                _concept(packed), packed, top_k=5, start=0, stop=49
            )


class TestRankFragmentEndpoint:
    def test_round_trip(self, local_service, packed):
        app = ServiceApp(local_service)
        status, reply = handle_safely(
            app,
            "rank_fragment",
            codec.envelope(
                "rank_fragment",
                {
                    "concept": codec.encode_concept(_concept(packed)),
                    "top_k": 5,
                    "start": 0,
                    "stop": 48,
                },
            ),
        )
        assert status == 200, reply
        assert reply["kind"] == "rank_fragment_result"
        assert len(reply["positions"]) == len(reply["distances"]) >= 5
        assert reply["n_evaluated"] >= len(reply["positions"])

    def test_missing_concept_is_400(self, local_service):
        app = ServiceApp(local_service)
        status, reply = handle_safely(
            app,
            "rank_fragment",
            codec.envelope(
                "rank_fragment", {"top_k": 5, "start": 0, "stop": 48}
            ),
        )
        assert status == 400 and reply["error"] == "CodecError"

    def test_non_integer_bounds_are_400(self, local_service, packed):
        app = ServiceApp(local_service)
        status, reply = handle_safely(
            app,
            "rank_fragment",
            codec.envelope(
                "rank_fragment",
                {
                    "concept": codec.encode_concept(_concept(packed)),
                    "top_k": 5,
                    "start": "0",
                    "stop": 48,
                },
            ),
        )
        assert status == 400 and reply["error"] == "CodecError"


class TestWorkerPoolScatter:
    def test_replies_in_payload_order(self, apps, packed):
        pool = apps[2].pool
        concept = codec.encode_concept(_concept(packed))
        payloads = [
            codec.envelope(
                "rank_fragment",
                {"concept": concept, "top_k": 3, "start": a, "stop": b},
            )
            for a, b in ((0, 24), (24, 48))
        ]
        replies = pool.scatter("rank_fragment", payloads)
        assert len(replies) == 2
        seen = set()
        for status, reply in replies:
            assert status == 200, reply
            seen.update(int(p) for p in reply["positions"])
        assert seen  # both halves contributed disjoint positions

    def test_fragment_does_not_wait_behind_a_busy_worker(self, apps, packed):
        """An idle worker's fragment is answered while another worker's
        pipe is busy with fragments queued behind it."""
        pool = apps[2].pool
        payload = codec.envelope(
            "rank_fragment",
            {
                "concept": codec.encode_concept(_concept(packed)),
                "top_k": 3,
                "start": 0,
                "stop": 48,
            },
        )
        busy = pool._workers[0].lock
        with ThreadPoolExecutor(max_workers=3) as callers:
            busy.acquire()
            try:
                queued = [
                    callers.submit(
                        pool.scatter, "rank_fragment", [payload], workers=[0]
                    )
                    for _ in range(2)
                ]
                time.sleep(0.2)
                idle = callers.submit(
                    pool.scatter, "rank_fragment", [payload], workers=[1]
                )
                [(status, _)] = idle.result(timeout=10.0)
                assert status == 200
                assert not any(future.done() for future in queued)
            finally:
                busy.release()
            for future in queued:
                [(status, _)] = future.result(timeout=10.0)
                assert status == 200

    def test_more_payloads_than_workers_rejected(self, apps, packed):
        pool = apps[1].pool
        payload = codec.envelope(
            "rank_fragment",
            {
                "concept": codec.encode_concept(_concept(packed)),
                "top_k": 3,
                "start": 0,
                "stop": 48,
            },
        )
        with pytest.raises(ServeError):
            pool.scatter("rank_fragment", [payload, payload])


class TestBroadcastRetry:
    """Satellite: broadcast survives a worker dying between alive() and request()."""

    def test_broadcast_retries_on_restarted_worker(self, local_service):
        with WorkerPool.from_service(local_service, 2) as pool:
            pool._workers[1].process.kill()
            pool._workers[1].process.join(10.0)
            replies = pool.broadcast("stats")
            assert len(replies) == 2
            assert all(status == 200 for status, _ in replies)
            assert pool.n_restarts == 1

    def test_scatter_restarts_then_raises(self, local_service, packed):
        with WorkerPool.from_service(local_service, 2) as pool:
            payloads = [
                codec.envelope(
                    "rank_fragment",
                    {
                        "concept": codec.encode_concept(_concept(packed)),
                        "top_k": 3,
                        "start": a,
                        "stop": b,
                    },
                )
                for a, b in ((0, 24), (24, 48))
            ]
            pool._workers[0].process.kill()
            pool._workers[0].process.join(10.0)
            with pytest.raises(ServeError):
                pool.scatter("rank_fragment", payloads)
            assert pool.n_restarts == 1
            # Pool healed: the same scatter now succeeds.
            replies = pool.scatter("rank_fragment", payloads)
            assert all(status == 200 for status, _ in replies)


class TestScatterRouting:
    def test_eligibility_gates(self, apps, packed):
        scatter = apps[2].scatter
        concept = codec.encode_concept(_concept(packed))
        assert scatter.eligible(_rank_payload(_concept(packed), top_k=5))
        assert not scatter.eligible(None)
        assert not scatter.eligible(
            codec.envelope("rank", {"session": "tok", "top_k": 5})
        )
        assert not scatter.eligible(codec.envelope("rank", {"top_k": 5}))
        assert not scatter.eligible(
            codec.envelope(
                "rank",
                {"concept": concept, "top_k": 5, "candidate_ids": ["a"]},
            )
        )
        assert not scatter.eligible(
            codec.envelope("rank", {"concept": concept, "top_k": True})
        )
        assert not scatter.eligible(
            codec.envelope("rank", {"concept": concept, "top_k": 0})
        )
        assert not scatter.eligible(
            codec.envelope("rank", {"concept": concept})
        )

    def test_below_threshold_corpus_does_not_scatter(self, local_service, packed):
        pool = object()  # never touched: eligibility fails first
        scatter = ScatterRanker(
            pool, local_service, min_scatter_bags=packed.n_bags + 1
        )
        assert not scatter.eligible(_rank_payload(_concept(packed), top_k=5))

    def test_zero_disables_scatter_entirely(self, apps):
        pool = apps[1].pool
        app = WorkerDispatchApp(pool, service=None, min_scatter_bags=0)
        assert app.scatter is None

    def test_invalid_knobs_rejected(self, apps, local_service):
        with pytest.raises(ServeError):
            ScatterRanker(apps[1].pool, local_service, min_scatter_bags=-1)
        with pytest.raises(ServeError):
            ScatterRanker(apps[1].pool, local_service, sample_bags=0)

    def test_stats_report_fan_out_and_survivors(self, apps, packed):
        app = apps[2]
        before = app.scatter.stats()["requests"]
        status, reply = app.handle(
            "rank", _rank_payload(_concept(packed, bag=4), top_k=5)
        )
        assert status == 200, reply
        stats = app.stats()
        scatter = stats["scatter"]
        assert scatter["requests"] == before + 1
        last = scatter["last"]
        assert last["fan_out"] == 2
        assert len(last["survivors_per_worker"]) == 2
        assert last["n_candidates"] >= 5
        assert last["scatter_seconds"] >= 0.0
        assert last["merge_seconds"] >= 0.0

    def test_top_k_covering_corpus_delegates_without_fallback(
        self, apps, packed
    ):
        app = apps[2]
        fallbacks = app.scatter.stats()["fallbacks"]
        status, reply = app.handle(
            "rank", _rank_payload(_concept(packed), top_k=packed.n_bags)
        )
        assert status == 200, reply
        remote = codec.decode_ranking(reply["ranking"])
        local = Ranker().rank(_concept(packed), packed, top_k=packed.n_bags)
        assert remote.image_ids == local.image_ids
        assert app.scatter.stats()["fallbacks"] == fallbacks

    def test_crashed_worker_falls_back_then_recovers(self, local_service, packed):
        with WorkerPool.from_service(local_service, 2) as pool:
            app = WorkerDispatchApp(
                pool, service=local_service, min_scatter_bags=1
            )
            payload = _rank_payload(_concept(packed, bag=6), top_k=5)
            local = Ranker().rank(_concept(packed, bag=6), packed, top_k=5)

            pool._workers[0].process.kill()
            pool._workers[0].process.join(10.0)
            status, reply = app.handle("rank", payload)
            assert status == 200, reply
            remote = codec.decode_ranking(reply["ranking"])
            assert remote.image_ids == local.image_ids
            np.testing.assert_array_equal(remote.distances, local.distances)
            assert app.scatter.stats()["fallbacks"] == 1
            assert pool.n_restarts == 1

            # The restarted worker rejoins the fan-out: no second fallback.
            status, reply = app.handle("rank", payload)
            assert status == 200, reply
            remote = codec.decode_ranking(reply["ranking"])
            assert remote.image_ids == local.image_ids
            assert app.scatter.stats()["fallbacks"] == 1


class TestScatterBitIdentity:
    """Satellite: the hypothesis property from the issue."""

    @settings(max_examples=12, deadline=None)
    @given(
        bag=st.integers(min_value=0, max_value=47),
        weight=st.floats(min_value=0.05, max_value=4.0,
                         allow_nan=False, allow_infinity=False),
        top_k=st.sampled_from([1, 3, 10]),
        width=st.sampled_from([1, 2, 3]),
        n_exclude=st.integers(min_value=0, max_value=3),
        use_filter=st.booleans(),
    )
    def test_property_scatter_bit_identical(
        self, apps, packed, bag, weight, top_k, width, n_exclude, use_filter
    ):
        """Scatter == ShardedRanker == Ranker == rank_by_loop across widths,
        filters, and exclusions — ids *and* distances."""
        concept = _concept(packed, bag=bag, weight=weight)
        exclude = list(packed.image_ids[:n_exclude])
        category_filter = "cat2" if use_filter else None
        extra = {"top_k": top_k}
        if exclude:
            extra["exclude"] = exclude
        if category_filter is not None:
            extra["category_filter"] = category_filter
        status, reply = apps[width].handle(
            "rank", _rank_payload(concept, **extra)
        )
        assert status == 200, reply
        remote = codec.decode_ranking(reply["ranking"])

        sharded = ShardedRanker().rank(
            concept, packed, top_k=top_k,
            exclude=exclude, category_filter=category_filter,
        )
        exhaustive = Ranker(auto_shard=False).rank(
            concept, packed, top_k=top_k,
            exclude=exclude, category_filter=category_filter,
        )
        assert remote.image_ids == sharded.image_ids == exhaustive.image_ids
        np.testing.assert_array_equal(remote.distances, sharded.distances)
        np.testing.assert_array_equal(remote.distances, exhaustive.distances)

        loop = rank_by_loop(concept, packed.candidates(), exclude=exclude)
        loop_ids = [
            entry.image_id
            for entry in loop.top(len(loop.image_ids))
            if category_filter is None or entry.category == category_filter
        ]
        assert list(remote.image_ids) == loop_ids[: len(remote)]

    def test_property_survives_crash_and_restart_mid_sequence(
        self, local_service, packed
    ):
        with WorkerPool.from_service(local_service, 2) as pool:
            app = WorkerDispatchApp(
                pool, service=local_service, min_scatter_bags=1
            )
            for round_no in range(3):
                concept = _concept(packed, bag=13 + round_no, weight=1.1)
                local = Ranker().rank(concept, packed, top_k=7)
                status, reply = app.handle(
                    "rank", _rank_payload(concept, top_k=7)
                )
                assert status == 200, reply
                remote = codec.decode_ranking(reply["ranking"])
                assert remote.image_ids == local.image_ids
                np.testing.assert_array_equal(
                    remote.distances, local.distances
                )
                if round_no == 0:
                    victim = pool._workers[round_no % 2]
                    victim.process.kill()
                    victim.process.join(10.0)
            assert pool.n_restarts == 1
