"""Metric catalogue and the summary statistics the benchmark reports.

``BENCHMARK.json`` at the repository root names every metric with its unit
and direction; this module holds what each one means, so
``python3 perfbench/run.py --describe`` can print the whole catalogue and
the run can refuse to report a metric nobody described.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

DESCRIPTIONS = {
    # End to end: measured with tracing off.
    "setup_s": "median over the run's set-ups of the time to build the corpus, "
               "warm it (pack + shard index), spawn the pool, start the server "
               "and answer the warm-up requests",
    "ops_per_s": "requests completed per second by the closed-loop clients",
    "p50_ms": "median client-observed latency of the workload's principal "
              "request: rank on the rank workloads, the feedback round on "
              "interactive (every operation's median and tail, query "
              "included, is in the detail line)",
    "tail_ms": "latency of the principal request at the workload's tail "
               "percentile, the highest with at least ten samples beyond it "
               "(percentile and count in the detail line)",
    "rss_mb": "peak resident memory of the serving process tree: anonymous "
              "and file pages of the server process and every pool worker, "
              "plus the shared-memory segment once (its MiB is in the detail "
              "line)",
    # Per layer: measured in a separate traced run.
    "http.self_ms": "serve.http: mean client-observed latency minus mean "
                    "app.dispatch span (transport, JSON framing, client decode)",
    "codec.decode_ms": "serve.codec: server-side request decode time per request",
    "codec.encode_ms": "serve.codec: server-side reply encode time per request",
    "codec.reply_bytes": "serve.codec: mean reply body size",
    "app.dispatch_ms": "serve.app: mean handle_safely span per request",
    "workers.roundtrip_ms": "serve.workers: dispatcher-side WorkerPool.handle / "
                            "WorkerPool.scatter time per request",
    "workers.restarts": "serve.workers: worker restarts over the run (/v1/stats)",
    "resilience.degraded_answers": "serve.resilience: degraded answers over the "
                                   "run (/v1/stats)",
    "resilience.deadline_expiries": "serve.resilience: deadline expiries over "
                                    "the run (/v1/stats)",
    "scatter.handle_ms": "serve.scatter: ScatterRanker.handle time per request",
    "scatter.fallback_frac": "serve.scatter: scatters that fell back, over "
                             "scatters attempted (/v1/stats)",
    "scatter.evaluated_frac": "serve.scatter: bags the workers evaluated "
                              "exactly (rank_fragment n_evaluated), over bags",
    "sessions.round_ms": "serve.sessions: mean SessionStore.feedback_round span",
    "sessions.created": "serve.sessions: sessions created over the timed run",
    "service.fit_ms": "api.service: mean RetrievalService.fit span",
    "service.rank_ms": "api.service: mean RetrievalService.rank_with span",
    "cache.hit_ratio": "core.cache: concept-cache hits over lookups over the "
                       "timed run (the cache is emptied before each half)",
    "fit.starts": "core.diverse_density: mean restarts per query fit "
                  "(training in query replies)",
    "fit.pruned_frac": "core.diverse_density: n_starts_pruned over n_starts",
    "fit.ms_per_start": "core.engine/optimizer: training time per restart",
    "sharding.bound_ms": "core.sharding: envelope bound pass "
                         "(envelope_bounds, ShardIndex.lower_bounds) busy time "
                         "per request, summed over shard threads",
    "sharding.evaluated_frac": "core.sharding: bags exactly evaluated per "
                               "sharded rank, over bags",
    "retrieval.eval_ms": "core.retrieval: PackedCorpus.min_distances(_at) busy "
                         "time per request",
    "retrieval.eval_bags": "core.retrieval: bags exactly evaluated per request",
    "retrieval.merge_ms": "core.retrieval: top_order + build_result time per "
                          "request",
    "setup.corpus_s": "set-up: build or featurise the corpus (median)",
    "setup.warm_s": "set-up: service warm-up, pack and shard index (median)",
    "setup.spawn_s": "set-up: WorkerPool.from_service spawn (median)",
    "trace.overhead_frac": "1 - traced ops_per_s / untraced ops_per_s, both "
                           "halves of the same run",
}


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark definition, checked against the catalogue above."""
    spec = json.loads(path.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    missing = sorted(set(names) - set(DESCRIPTIONS))
    extra = sorted(set(DESCRIPTIONS) - set(names))
    if missing or extra:
        raise SystemExit(
            f"metric catalogue out of step with {path.name}: "
            f"undescribed {missing}, unlisted {extra}"
        )
    return spec


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of a non-empty sample.

    A weighted mean of every order statistic, with Beta(q(n+1), (1-q)(n+1))
    weights.  Rank latencies here sit on the kernel's 4 ms delayed-ACK timer
    grid, where the plain sample median jumps a whole grid step between
    runs; this estimate moves smoothly with the distribution instead.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=1.0)
    return float(np.diff(edges) @ x)


def tail_percentile(n: int, preferred: float) -> float:
    """``preferred`` when at least ten of ``n`` samples lie beyond it, else
    the highest percentile that leaves ten beyond (which moves smoothly
    with ``n``, so a short run does not jump to a far lower rung)."""
    if n * (100.0 - preferred) / 100.0 >= 10:
        return preferred
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def latency_summary(latencies_ms, preferred_tail: float) -> dict:
    """Median and tail of one operation's latencies, with the sample count."""
    n = len(latencies_ms)
    if n == 0:
        return {"n": 0}
    pct = tail_percentile(n, preferred_tail)
    return {
        "n": n,
        "p50_ms": quantile(latencies_ms, 0.5),
        "tail_ms": quantile(latencies_ms, pct / 100.0),
        "tail_pct": pct,
    }


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
