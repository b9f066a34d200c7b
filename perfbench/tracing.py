"""Request spans recorded around calls into each layer, from outside ``src/``.

:class:`Tracer` wraps the public entry points of each serving layer in this
process (module functions and class methods, restored on
:meth:`Tracer.uninstall`).  A span is ``(span id, parent id, request id,
name, start, end, count)``; the root of a request is the
``handle_safely`` call the HTTP handler makes, and nested calls on the same
thread become its children.  Spans stay in memory and are written out when
the run ends.

The shard scan of :class:`~repro.core.sharding.ShardedRanker` runs on a
shared thread pool, where the handler thread's context is not visible, so
the wrapper around ``ShardedRanker.rank`` hands its span to the ranker's
per-shard calls explicitly.  Worker processes of the pool import fresh
modules and are never traced: on ``rank-pool`` only the dispatcher side is
seen.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.api.service import RetrievalService
from repro.core import retrieval, sharding
from repro.core.retrieval import PackedCorpus, Ranker
from repro.core.sharding import ShardedRanker, ShardIndex
from repro.serve import codec, http as serve_http, scatter
from repro.serve.scatter import ScatterRanker
from repro.serve.sessions import SessionStore
from repro.serve.workers import WorkerPool

ROOT = "app.dispatch"


def _reply_bytes(args, kwargs, result) -> int:
    # handle_safely returns (status, payload); the HTTP handler sends
    # json.dumps(payload) encoded as UTF-8.
    return len(json.dumps(result[1]).encode("utf-8"))


def _result_size(args, kwargs, result) -> int:
    return int(result.size)


def _fragments_evaluated(args, kwargs, result) -> int:
    return sum(int(reply.get("n_evaluated", 0)) for _, reply in result)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_span = itertools.count(1).__next__
        self._next_request = itertools.count(1).__next__
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, root: bool = False, count=None):
        """``fn`` recording a span named ``name`` when called inside a request.

        A call directly nested in a span of the same name is not recorded
        again, so layer totals count each interval once.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent_id, request_id, parent_name = stack[-1]
                if parent_name == name:
                    return fn(*args, **kwargs)
            elif root:
                parent_id, request_id = 0, tracer._next_request()
            else:
                return fn(*args, **kwargs)
            span_id = tracer._next_span()
            stack.append((span_id, request_id, name))
            started = time.perf_counter()
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer.spans.append(
                    (span_id, parent_id, request_id, name, started,
                     time.perf_counter(), n)
                )

        return traced

    def _carry_to_shards(self, rank):
        """Wrap ``ShardedRanker.rank`` so per-shard calls on pool threads
        run under the rank span of the request that issued them."""
        tracer = self

        @functools.wraps(rank)
        def carried_rank(ranker, *args, **kwargs):
            stack = tracer._stack()
            if stack:
                context = stack[-1]
                shard = ranker._shard_candidates

                def shard_in_context(*shard_args, **shard_kwargs):
                    local = tracer._stack()
                    local.append(context)
                    try:
                        return shard(*shard_args, **shard_kwargs)
                    finally:
                        local.pop()

                ranker._shard_candidates = shard_in_context
            return rank(ranker, *args, **kwargs)

        return self.wrap("sharding.rank", carried_rank)

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per install/uninstall)."""
        if self._undo:
            return
        plain = [
            (serve_http, "handle_safely", ROOT, True, _reply_bytes),
            (codec, "decode_query", "codec.decode", False, None),
            (codec, "decode_concept", "codec.decode", False, None),
            (codec, "encode_query_result", "codec.encode", False, None),
            (codec, "encode_ranking", "codec.encode", False, None),
            (codec, "encode_concept", "codec.encode", False, None),
            (RetrievalService, "fit", "service.fit", False, None),
            (RetrievalService, "rank_with", "service.rank", False, None),
            (SessionStore, "feedback_round", "sessions.round", False, None),
            (Ranker, "rank", "retrieval.rank", False, None),
            (sharding, "envelope_bounds", "sharding.bound", False, None),
            (ShardIndex, "lower_bounds", "sharding.bound", False, None),
            (PackedCorpus, "min_distances", "retrieval.eval", False, _result_size),
            (PackedCorpus, "min_distances_at", "retrieval.eval", False, _result_size),
            (WorkerPool, "handle", "workers.roundtrip", False, None),
            (WorkerPool, "scatter", "workers.scatter", False, _fragments_evaluated),
            (ScatterRanker, "handle", "scatter.handle", False, None),
        ]
        for module in (retrieval, sharding, scatter):
            plain.append((module, "top_order", "retrieval.merge", False, None))
            plain.append((module, "build_result", "retrieval.merge", False, None))
        for owner, attr, name, root, count in plain:
            self._patch(
                owner, attr, self.wrap(name, vars(owner)[attr], root=root, count=count)
            )
        self._patch(
            ShardedRanker, "rank", self._carry_to_shards(vars(ShardedRanker)["rank"])
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("span", "parent", "request", "name", "start", "end", "count")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of its interval that
    its children cover (children on other threads may overlap each other,
    so their union is subtracted, not their sum).
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span[4], span[5]
        covered, cursor = 0.0, start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span[3]] += (end - start) - covered
    return dict(totals)


def layer_totals(spans) -> dict:
    """Per-name span count, total seconds and total work count."""
    totals: dict = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "count": 0})
    for span in spans:
        entry = totals[span[3]]
        entry["calls"] += 1
        entry["seconds"] += span[5] - span[4]
        entry["count"] += span[6]
    return dict(totals)


def evaluated_under(spans, parent_name: str) -> tuple[int, int]:
    """``(bags evaluated, parent calls)`` for ``retrieval.eval`` spans that
    are direct children of spans named ``parent_name``."""
    parents = {span[0] for span in spans if span[3] == parent_name}
    bags = sum(
        span[6] for span in spans
        if span[3] == "retrieval.eval" and span[1] in parents
    )
    return bags, len(parents)
