"""The serving benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload rank-single --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --describe

A run builds the workload's deployment ``setup_reps`` times (``setup_s`` is
the median; the cheap interactive set-up is repeated more to steady it), drives the last one for ``--seconds`` with closed-loop clients
over HTTP, checks every reply (see ``checks.py``), tears everything down and
checks that no worker process or shared-memory segment survived.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics:
the first half of the time runs untraced, the second half traced (spans are
written to ``.perfbench-out/``), and ``trace.overhead_frac`` compares the two.
The line before it is a ``detail`` object: per-operation latencies, the tail
percentile and sample counts, set-up phases, memory and the run's context.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
#: A run that has not finished by now stops its servers and exits 3.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "rank-single": {
        "principal": "rank",
        "tail_pct": 95.0,
        "setup_reps": 3,
        "transport": "HTTP/1.1, one kept-alive connection per client",
        "deployment": "repro serve: ServiceApp behind ReproServer, sharded index",
    },
    "rank-pool": {
        "principal": "rank",
        "tail_pct": 95.0,
        "setup_reps": 3,
        "transport": "HTTP/1.1, one kept-alive connection per client",
        "deployment": "repro serve --workers 2: WorkerPool + WorkerDispatchApp, "
                      "scatter from 4096 bags",
    },
    "interactive": {
        "principal": "feedback",
        "tail_pct": 75.0,
        "setup_reps": 9,
        "transport": "ReproClient, one connection per request",
        "deployment": "repro serve: ServiceApp behind ReproServer",
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--describe", action="store_true",
        help="print every workload and metric with its unit, then exit",
    )
    args = parser.parse_args(argv)
    if not args.describe and args.workload is None:
        parser.error("--workload is required")
    return args


def describe(spec: dict) -> None:
    from metrics import DESCRIPTIONS

    print(f"nproc: {os.cpu_count()}")
    print("workloads:")
    for workload in spec["workloads"]:
        extra = WORKLOADS[workload["name"]]
        print(f"  {workload['name']}: {workload['why']}")
        print(f"      deployment: {extra['deployment']}")
        print(f"      transport: {extra['transport']}; principal request: "
              f"{extra['principal']}; tail percentile: p{extra['tail_pct']:g}")
    for group in ("end_to_end", "per_layer"):
        print(f"{group} metrics:")
        for metric in spec[group]:
            bound = metric.get("bound")
            limit = "" if bound is None else f", bound {bound:g}"
            print(f"  {metric['name']} [{metric['unit']}] "
                  f"({metric['better']} is better{limit})")
            print(f"      {DESCRIPTIONS[metric['name']]}")


class Watchdog:
    """Stops the deployment and exits 3 if the run outlives its limit."""

    def __init__(self, limit_s: float) -> None:
        self.deployment = None
        self._timer = threading.Timer(limit_s, self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        print(f"run exceeded {RUN_LIMIT_S:.0f}s; stopping", file=sys.stderr)
        if self.deployment is not None:
            closer = threading.Thread(target=self.deployment.close, daemon=True)
            closer.start()
            closer.join(timeout=20.0)
        os._exit(3)

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.cancel()


def _median_phases(setups: list[dict]) -> dict:
    totals = [sum(phases.values()) for phases in setups]
    median = {"setup_s": statistics.median(totals)}
    for name in ("corpus_s", "warm_s", "spawn_s", "start_s", "warmup_s"):
        median[name] = statistics.median(phases.get(name, 0.0) for phases in setups)
    median["all_setup_s"] = totals
    return median


def _op_summary(ops, tail_pct: float) -> dict:
    from metrics import latency_summary

    kinds = sorted({op.kind for op in ops})
    summary = {}
    for kind in kinds:
        mine = [op for op in ops if op.kind == kind]
        entry = latency_summary([op.latency_ms for op in mine if op.ok], tail_pct)
        entry["attempted"] = len(mine)
        entry["failed"] = sum(not op.ok for op in mine)
        summary[kind] = entry
    return summary


def _session_counters(stats: dict) -> dict:
    service = stats.get("service", {})
    cache = service.get("cache") or {}
    sessions = stats.get("sessions", {})
    return {
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "created": sessions.get("created", 0),
    }


def per_layer(spans, traced_ops, elapsed_traced, untraced_rate, stats,
              before, after, n_bags, setup) -> dict:
    """The per-layer metrics of one traced window (see metrics.DESCRIPTIONS)."""
    from metrics import mean
    from tracing import ROOT as DISPATCH, evaluated_under, layer_totals

    totals = layer_totals(spans)

    def total(name, field="seconds"):
        return totals.get(name, {}).get(field, 0)

    def per_call(name):
        calls = total(name, "calls")
        return 1000.0 * total(name) / calls if calls else 0.0

    n_requests = total(DISPATCH, "calls") or 1
    per_request = lambda *names: 1000.0 * sum(total(n) for n in names) / n_requests  # noqa: E731
    ok = [op for op in traced_ops if op.ok]
    queries = [op.reply for op in ok if op.kind == "query"]
    trainings = {
        (q.training.elapsed_seconds, q.training.n_starts): q.training
        for q in queries if q.training is not None and q.training.n_starts
    }
    n_starts = sum(q.training.n_starts for q in queries if q.training is not None)
    n_pruned = sum(q.training.n_starts_pruned for q in queries if q.training is not None)
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    resilience = stats.get("resilience") or {}
    scatter = stats.get("scatter") or {}
    sharded_bags, sharded_calls = evaluated_under(spans, "sharding.rank")
    scatter_calls = total("workers.scatter", "calls")
    traced_rate = len(ok) / elapsed_traced if elapsed_traced > 0 else 0.0
    return {
        "http.self_ms": mean(op.latency_ms for op in ok) - per_request(DISPATCH),
        "codec.decode_ms": per_request("codec.decode"),
        "codec.encode_ms": per_request("codec.encode"),
        "codec.reply_bytes": total(DISPATCH, "count") / n_requests,
        "app.dispatch_ms": per_request(DISPATCH),
        "workers.roundtrip_ms": per_request("workers.roundtrip", "workers.scatter"),
        "workers.restarts": (stats.get("workers") or {}).get("restarts", 0),
        "resilience.degraded_answers": resilience.get("degraded_answers", 0),
        "resilience.deadline_expiries": resilience.get("deadline_expiries", 0),
        "scatter.handle_ms": per_request("scatter.handle"),
        "scatter.fallback_frac": (
            scatter["fallbacks"] / scatter["requests"] if scatter.get("requests") else 0.0
        ),
        "scatter.evaluated_frac": (
            total("workers.scatter", "count") / (scatter_calls * n_bags)
            if scatter_calls else 0.0
        ),
        "sessions.round_ms": per_call("sessions.round"),
        "sessions.created": after["created"] - before["created"],
        "service.fit_ms": per_call("service.fit"),
        "service.rank_ms": per_call("service.rank"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "fit.starts": n_starts / len(queries) if queries else 0.0,
        "fit.pruned_frac": n_pruned / n_starts if n_starts else 0.0,
        "fit.ms_per_start": mean(
            1000.0 * t.elapsed_seconds / t.n_starts for t in trainings.values()
        ),
        "sharding.bound_ms": per_request("sharding.bound"),
        "sharding.evaluated_frac": (
            sharded_bags / (sharded_calls * n_bags) if sharded_calls else 0.0
        ),
        "retrieval.eval_ms": per_request("retrieval.eval"),
        "retrieval.eval_bags": total("retrieval.eval", "count") / n_requests,
        "retrieval.merge_ms": per_request("retrieval.merge"),
        "setup.corpus_s": setup["corpus_s"],
        "setup.warm_s": setup["warm_s"],
        "setup.spawn_s": setup["spawn_s"],
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
    }


def run(args, spec: dict, watchdog: Watchdog) -> tuple[dict, dict, list[str]]:
    """Set up, drive, check and tear down one workload.

    Returns ``(metrics, detail, problems)``; any problem fails the run.
    """
    import checks
    import workloads as wl

    config = WORKLOADS[args.workload]
    rank = args.workload.startswith("rank")
    pooled = args.workload == "rank-pool"
    traffic = wl.RankTraffic(args.seed) if rank else None
    problems: list[str] = []
    setups, segments = [], set()
    deployment = None
    detail: dict = {}
    try:
        for _ in range(config["setup_reps"]):
            if deployment is not None:
                deployment.close()
                deployment = watchdog.deployment = None
                gc.collect()
            deployment = (
                wl.build_rank(traffic, pooled) if rank else wl.build_interactive(args.seed)
            )
            watchdog.deployment = deployment
            setups.append(dict(deployment.phases))
            segments.update(deployment.segments)
        setup = _median_phases(setups)
        if rank:
            clients = wl.RankClients(traffic, deployment.port)
        else:
            traffic = deployment.traffic
            clients = wl.InteractiveUsers(traffic, deployment.url)
        packed = deployment.service.packed_database()
        n_bags = packed.n_bags

        if args.trace:
            before = _session_counters(deployment.app.stats())
            ops, elapsed = wl.run_clients(clients, args.seconds / 2)
            untraced_rate = sum(op.ok for op in ops) / elapsed
            if not rank:
                # The traced half starts empty too, like the untraced one.
                deployment.service.concept_cache.clear()
                for token in clients.tokens:
                    deployment.app.sessions.drop(token)
            from tracing import Tracer, self_times

            tracer = Tracer()
            tracer.install()
            try:
                traced_ops, traced_elapsed = wl.run_clients(clients, args.seconds / 2)
            finally:
                tracer.uninstall()
            stats = deployment.app.stats()
            metrics = per_layer(
                tracer.spans, traced_ops, traced_elapsed, untraced_rate, stats,
                before, _session_counters(stats), n_bags, setup,
            )
            n_requests = max(1, sum(1 for s in tracer.spans if s[3] == "app.dispatch"))
            detail["self_ms_per_request"] = {
                name: 1000.0 * seconds / n_requests
                for name, seconds in sorted(self_times(tracer.spans).items())
            }
            detail["spans"] = len(tracer.spans)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            ops = ops + traced_ops
        else:
            with wl.RssSampler(deployment.serving_pids, deployment.shared_bytes()) as rss:
                ops, elapsed = wl.run_clients(clients, args.seconds)
            summary = _op_summary(ops, config["tail_pct"])
            principal = summary.get(config["principal"], {})
            metrics = {
                "setup_s": setup["setup_s"],
                "ops_per_s": sum(op.ok for op in ops) / elapsed,
                "p50_ms": principal.get("p50_ms", 0.0),
                "tail_ms": principal.get("tail_ms", 0.0),
                "rss_mb": rss.peak_mib,
            }
            detail["tail"] = {
                "operation": config["principal"],
                "pct": principal.get("tail_pct"),
                "n": principal.get("n", 0),
            }
            detail["operations"] = summary
            detail["shared_segment_mib"] = deployment.shared_bytes() / 2**20
        detail["setup"] = setup
        detail["attempted"] = len(ops)
        detail["failed"] = sum(not op.ok for op in ops)
        detail["failed_frac"] = detail["failed"] / max(1, len(ops))
        if rank:
            problems += checks.check_rank(ops, traffic, packed, wl.TOP_K, args.seed)
        else:
            problems += checks.check_interactive(
                ops, deployment.database, wl.DD_PARAMS, args.seed
            )
        detail["context"] = {
            "nproc": os.cpu_count(),
            "bags": n_bags,
            "instances": packed.n_instances,
            "dims": packed.n_dims,
            "clients": wl.N_CLIENTS,
            "workers": wl.N_WORKERS if pooled else 0,
            "transport": config["transport"],
            "deployment": config["deployment"],
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        }
    finally:
        if deployment is not None:
            deployment.close()
        watchdog.deployment = None
        problems += checks.reap_leftovers(sorted(segments))
        checks.stop_resource_tracker()
    return metrics, detail, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import load_spec

    spec = load_spec()
    if args.describe:
        describe(spec)
        return 0
    started = time.perf_counter()
    from workloads import cpu_steal_ticks

    steal = cpu_steal_ticks()
    with Watchdog(RUN_LIMIT_S) as watchdog:
        metrics, detail, problems = run(args, spec, watchdog)
    elapsed = time.perf_counter() - started
    # Share of CPU time the hypervisor took away during the run: context
    # for a noisy figure, not a metric.
    ticks = os.sysconf("SC_CLK_TCK") * elapsed * (os.cpu_count() or 1)
    detail["cpu_steal_frac"] = (cpu_steal_ticks() - steal) / ticks
    group = "per_layer" if args.trace else "end_to_end"
    reported = {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in spec[group]
    }
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, run_s=elapsed, problems=problems,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": reported,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
