"""Repeat the benchmark over seeds and report how steady each metric is.

Run from the repository root::

    python3 perfbench/prove.py --runs 10 --first-seed 1
    python3 perfbench/prove.py --workloads interactive --runs 5 --no-record

Each run is ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
with ``N`` the ``run_seconds`` of ``BENCHMARK.json``.  For every workload and
end-to-end metric it prints the median and the spread, the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  It then makes one traced
run per workload (``--trace 1``, the first seed) for the per-layer metrics.
Unless ``--no-record`` is given, the medians, quartiles, seeds, per-run
values and the traced run's figures are written to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} failed ({done.returncode}):\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"seed": seed, "result": result, "detail": detail}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else float("inf"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-record", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "recorded": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in runs[-1]["result"]["metrics"].items()),
                  flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            metrics[name] = {**spread(values), "bound": bound, "values": values}
            flag = "ok" if metrics[name]["spread"] <= bound / 3 else "WIDE"
            print(f"  {name:>10}: median {metrics[name]['median']:.4g} "
                  f"spread {metrics[name]['spread']:.3f} (bound {bound}) {flag}")
        traced = one_run(workload, args.first_seed, spec["run_seconds"], trace=1)
        record["workloads"][workload] = {
            "seeds": [run["seed"] for run in runs],
            "context": runs[-1]["detail"].get("context"),
            "tail": [run["detail"].get("tail") for run in runs],
            "operations": [run["detail"].get("operations") for run in runs],
            "metrics": metrics,
            "traced": {
                "seed": traced["seed"],
                "per_layer": {
                    name: value["value"]
                    for name, value in traced["result"]["metrics"].items()
                },
                "self_ms_per_request": traced["detail"].get("self_ms_per_request"),
            },
        }
    if not args.no_record:
        out = HERE / "baseline.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
