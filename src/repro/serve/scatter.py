"""Cross-process scatter/gather ranking: one query, every core.

The :class:`~repro.serve.workers.WorkerPool` parallelises across
*requests* — a single huge rank query still runs its whole best-first
scan on one worker's thread.  :class:`ScatterRanker` is the coordinator
that makes the bound pass itself scale out: it cuts the
:class:`~repro.core.sharding.ShardIndex`'s contiguous shard partition
into one bag range per worker, ships each range as an internal
``rank_fragment`` request (wire-codec concept in, compact
``(positions, distances)`` fragment out), and merges the fragments with
the same id-tie-broken partial sort
(:func:`~repro.core.retrieval.top_order`) the single-process path uses —
so the merged ranking is **bit-identical** to
:class:`~repro.core.sharding.ShardedRanker`, the exhaustive
:class:`~repro.core.retrieval.Ranker`, and ``rank_by_loop`` (the
equivalence suites assert all three).

Before scattering, the coordinator evaluates a small argpartition sample
(:func:`~repro.core.sharding.seed_threshold`) and ships the sample's
kth-best exact distance to every worker as the initial pruning threshold,
so even the first chunk a late worker touches prunes against an already
tight cutoff instead of rediscovering one per fragment.

Degraded pools fall back gracefully down a ladder: any transport failure,
timed-out fragment, non-200 fragment, or coordinator-side decode error
counts a fallback and re-answers through **(1)** single-worker sharded
dispatch (``pool.handle``, which reproduces the exact non-scatter
behaviour), and — should that also fail — **(2)** a coordinator-local
exact rank over the same packed view (the same kernels and data, so still
bit-identical).  A crashed or hung worker costs one fallback (and its
auto-restart), never a wrong or lost answer.  Fragment dispatch routes
around circuit-breaker-opened workers, each fragment gets a sub-budget of
the request's :class:`~repro.serve.resilience.Deadline` (headroom
reserved for the re-answer and the merge), and degraded answers are
counted in the pool's resilience stats.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

import numpy as np

from repro.core.retrieval import (
    AUTO_SHARD_MIN_BAGS,
    Ranker,
    build_result,
    keep_mask,
    top_order,
)
from repro.core.sharding import seed_threshold
from repro.errors import (
    CodecError,
    DeadlineError,
    ReproError,
    ServeError,
    SessionError,
)
from repro.serve import codec
from repro.serve.app import error_payload
from repro.serve.resilience import Deadline

#: Fraction of the remaining deadline each fragment wave may spend: the
#: reserved quarter keeps enough budget for the degraded re-answer (and
#: the merge) if a fragment times out at its sub-deadline.
FRAGMENT_BUDGET_FRACTION = 0.75


class _Delegate(Exception):
    """Internal: hand this request to one worker (pruning cannot help).

    Deliberately not a :class:`ReproError`: delegation is the *correct*
    routing for the request (e.g. ``top_k`` covers every survivor, so a
    scatter would do strictly more work than one exhaustive pass), not a
    degradation, and must not count as a fallback in :meth:`stats`.
    """


class ScatterRanker:
    """Scatter one rank query's shard ranges across a worker pool.

    Args:
        pool: the :class:`~repro.serve.workers.WorkerPool` to scatter
            over.  Its workers must serve the same corpus ``service``
            ranks (``WorkerPool.from_service(service, ...)`` guarantees
            this — the pool's shared segment is a copy of the service's
            cached packed view).
        service: the coordinator-side service; supplies the packed view
            whose id/category arrays the merge resolves positions
            against, and whose shard index cuts the fragment ranges.
        min_scatter_bags: corpus size at which rank requests scatter
            (``None`` = the :data:`~repro.core.retrieval.AUTO_SHARD_MIN_BAGS`
            routing threshold).  Below it, one worker finishes before the
            fan-out would amortise.
        sample_bags: seed-threshold sample size
            (:func:`~repro.core.sharding.seed_threshold`).
    """

    def __init__(
        self,
        pool,
        service,
        *,
        min_scatter_bags: int | None = None,
        sample_bags: int | None = None,
    ) -> None:
        if min_scatter_bags is not None and min_scatter_bags < 1:
            raise ServeError(
                f"min_scatter_bags must be >= 1 or None, got {min_scatter_bags}"
            )
        if sample_bags is not None and sample_bags < 1:
            raise ServeError(
                f"sample_bags must be >= 1 or None, got {sample_bags}"
            )
        self._pool = pool
        self._service = service
        self._min_bags = (
            AUTO_SHARD_MIN_BAGS if min_scatter_bags is None else int(min_scatter_bags)
        )
        self._sample_bags = sample_bags
        self._lock = threading.Lock()
        self._n_requests = 0
        self._n_fallbacks = 0
        self._last: dict | None = None

    @property
    def min_scatter_bags(self) -> int:
        """Corpus size at which rank requests scatter."""
        return self._min_bags

    # ------------------------------------------------------------------ #
    # Routing                                                             #
    # ------------------------------------------------------------------ #

    def eligible(self, payload: Mapping | None) -> bool:
        """Cheap structural test: should this ``rank`` request scatter?

        Only stateless, whole-corpus, wire-concept top-k requests
        scatter: session ranks must honour worker affinity, candidate
        subsets rank ephemeral views no worker shares, and unbounded
        ranks cannot prune.  Anything rejected here takes the normal
        single-worker route, whose behaviour (including its error
        replies) is authoritative — so being conservative costs
        parallelism, never correctness.
        """
        if not isinstance(payload, Mapping):
            return False
        if payload.get("session") is not None:
            return False
        if payload.get("concept") is None:
            return False
        if payload.get("candidate_ids") is not None:
            return False
        try:
            if codec.rank_fields(payload).top_k is None:
                return False
        except CodecError:
            return False
        try:
            packed = self._service.packed_database()
        except Exception:  # noqa: BLE001 - let the worker surface the error
            return False
        return bool(packed.rank_index_enabled) and packed.n_bags >= self._min_bags

    def handle(
        self, payload: Mapping, deadline: Deadline | None = None
    ) -> tuple[int, dict]:
        """Scatter an :meth:`eligible` rank request; gather the ranking.

        Returns the same ``(status, rank_result payload)`` pair a pooled
        worker produces.  Coordinator-side failures (a worker dying or
        timing out mid-scatter, a non-200 fragment, a decode error) count
        a fallback and re-answer down the degraded ladder
        (:meth:`_degraded`: single-worker sharded, then coordinator-local
        exact) within whatever budget remains.
        """
        with self._lock:
            self._n_requests += 1
        try:
            return self._scatter(payload, deadline)
        except _Delegate:
            return self._pool.handle("rank", payload, deadline=deadline)
        except ReproError:
            # The pool restarted any worker that died mid-scatter
            # (WorkerPool.scatter does that before raising); the ladder
            # below dispatches to whichever workers are healthy now.
            with self._lock:
                self._n_fallbacks += 1
            return self._degraded(payload, deadline)

    def _degraded(
        self, payload: Mapping, deadline: Deadline | None
    ) -> tuple[int, dict]:
        """Re-answer a failed scatter down the degradation ladder.

        Rung 1 — single-worker sharded dispatch: the exact non-scatter
        behaviour, on whichever worker is healthy now.  Rung 2 —
        coordinator-local exact rank over the same packed view: the
        kernels and data are shared with the workers, so the answer stays
        bit-identical even with the whole pool misbehaving.  Each rung is
        entered only while budget remains; successful degraded answers
        are counted in the pool's resilience stats.
        """

        def expiry(stage: str) -> tuple[int, dict]:
            self._pool.resilience.incr("deadline_expiries")
            return 504, error_payload(
                DeadlineError(f"rank deadline expired {stage}")
            )

        if deadline is not None and deadline.expired:
            return expiry("before the degraded re-answer")
        try:
            status, reply = self._pool.handle("rank", payload, deadline=deadline)
        except ReproError as exc:
            status, reply = 500, error_payload(exc)
        if status < 500:
            if status == 200:
                self._pool.resilience.incr("degraded_answers")
            return status, reply
        if deadline is not None and deadline.expired:
            return expiry("during the degraded re-answer")
        try:
            reply = self._rank_locally(payload)
        except SessionError as exc:
            return 404, error_payload(exc)
        except ReproError as exc:
            return 400, error_payload(exc)
        except Exception as exc:  # noqa: BLE001 - last rung must not raise
            return 500, error_payload(exc)
        self._pool.resilience.incr("degraded_answers")
        return 200, reply

    def _rank_locally(self, payload: Mapping) -> dict:
        """The ladder's last rung: rank on the coordinator itself.

        Mirrors the worker-side concept branch of
        :meth:`~repro.serve.app.ServiceApp.rank` over the coordinator's
        own packed view — same kernels, same data, bit-identical ranking.
        """
        data = codec.open_envelope(payload, "rank")
        if data.get("concept") is None or data.get("session") is not None:
            raise ServeError(
                "only stateless wire-concept rank requests can be answered "
                "coordinator-side"
            )
        concept = codec.decode_concept(data["concept"])
        fields = codec.rank_fields(data)
        ranking = Ranker().rank(
            concept,
            self._service.packed_database(fields.candidate_ids),
            top_k=fields.top_k,
            exclude=fields.exclude,
            category_filter=fields.category_filter,
        )
        return codec.envelope(
            "rank_result", {"ranking": codec.encode_ranking(ranking)}
        )

    def _scatter(
        self, payload: Mapping, deadline: Deadline | None = None
    ) -> tuple[int, dict]:
        data = codec.open_envelope(payload, "rank")
        if (
            data.get("session") is not None
            or data.get("concept") is None
            or data.get("candidate_ids") is not None
        ):
            # handle() called on a payload eligible() would reject: the
            # single-worker route's behaviour is authoritative.
            raise _Delegate()
        concept = codec.decode_concept(data["concept"])
        try:
            top_k, _, exclude, category_filter = codec.rank_fields(data)
        except CodecError:
            raise _Delegate() from None
        if top_k is None:
            raise _Delegate()
        packed = self._service.packed_database()
        keep = keep_mask(packed, exclude, category_filter)
        total = int(np.count_nonzero(keep))
        if top_k >= total:
            # Every survivor must be ranked: one exhaustive pass on one
            # worker beats shipping the whole corpus back as "fragments".
            raise _Delegate()
        index = packed.shard_index()
        # Route around breaker-opened workers: a flapping worker should
        # not cost every scatter a fallback for its whole cooldown.  With
        # every slot open the full pool is probed — refusing to scatter
        # at all would be strictly worse than trying.
        breaker = getattr(self._pool, "breaker", None)
        targets = [
            worker
            for worker in range(self._pool.n_workers)
            if breaker is None or breaker.available(worker)
        ]
        if not targets:
            targets = list(range(self._pool.n_workers))
        width = min(len(targets), index.n_shards)
        targets = targets[:width]
        started = time.perf_counter()
        threshold = seed_threshold(
            packed, index, concept, keep, top_k,
            **({} if self._sample_bags is None
               else {"sample_bags": self._sample_bags}),
        )
        # Contiguous runs of whole shards, one per worker, cut along the
        # index's own boundaries.  The workers re-intersect with *their*
        # index's partition, so the cut only shapes load balance — the
        # merged ranking is partition-independent.
        n_shards = index.n_shards
        cuts = [
            int(index.boundaries[i * n_shards // width])
            for i in range(width + 1)
        ]
        fields = {
            "concept": data["concept"],
            "top_k": top_k,
        }
        if np.isfinite(threshold):
            fields["threshold"] = float(threshold)
        if exclude:
            fields["exclude"] = list(exclude)
        if category_filter is not None:
            fields["category_filter"] = category_filter
        payloads = [
            codec.envelope(
                "rank_fragment",
                {**fields, "start": cuts[i], "stop": cuts[i + 1]},
            )
            for i in range(width)
        ]
        # Fragments get a sub-budget of the remaining deadline so a
        # timed-out wave still leaves room for the degraded re-answer.
        fragment_deadline = (
            None if deadline is None
            else deadline.sub_budget(FRAGMENT_BUDGET_FRACTION)
        )
        replies = self._pool.scatter(
            "rank_fragment",
            payloads,
            workers=targets,
            deadline=fragment_deadline,
        )
        scatter_seconds = time.perf_counter() - started

        merge_started = time.perf_counter()
        positions, distances, survivors = [], [], []
        for status, reply in replies:
            if status != 200 or not isinstance(reply, Mapping):
                detail = (
                    reply.get("message", reply)
                    if isinstance(reply, Mapping) else reply
                )
                raise ServeError(
                    f"rank fragment failed with status {status}: {detail}"
                )
            positions.append(
                np.asarray(reply.get("positions", ()), dtype=np.int64)
            )
            distances.append(
                np.asarray(reply.get("distances", ()), dtype=np.float64)
            )
            survivors.append(int(reply.get("n_evaluated", 0)))
        candidate_idx = np.concatenate(positions)
        candidate_dist = np.concatenate(distances)
        # The same merge primitives ShardedRanker.rank ends with, fed the
        # union of per-fragment contenders — bit-identical output.
        ids = packed.id_array[candidate_idx]
        categories = packed.category_array[candidate_idx]
        order = top_order(ids, candidate_dist, top_k)
        result = build_result(ids, categories, candidate_dist, order, total)
        merge_seconds = time.perf_counter() - merge_started

        with self._lock:
            self._last = {
                "fan_out": width,
                "survivors_per_worker": survivors,
                "n_candidates": int(candidate_dist.size),
                "seed_threshold": (
                    float(threshold) if np.isfinite(threshold) else None
                ),
                "scatter_seconds": scatter_seconds,
                "merge_seconds": merge_seconds,
            }
        return 200, codec.envelope(
            "rank_result", {"ranking": codec.encode_ranking(result)}
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Scatter counters (JSON-safe): requests, fallbacks, last fan-out.

        ``last`` describes the most recent successful scatter: fan-out
        width, per-worker bound-pass survivor counts (bags exactly
        evaluated), the seed threshold shipped, and the scatter/merge
        wall-clock split.
        """
        with self._lock:
            return {
                "min_scatter_bags": self._min_bags,
                "requests": self._n_requests,
                "fallbacks": self._n_fallbacks,
                "last": None if self._last is None else dict(self._last),
            }
