"""Extension bench — batched multi-start training engine vs sequential.

Not a paper artefact.  PR 3 replaced the one-solver-per-restart training
loop with a lockstep engine: every descent step evaluates the noisy-or
objective for all restarts at once through one ``(R, n_instances)``
distance tensor, with converged restarts masked out.  This bench measures
what that buys on a 20-bag synthetic set (10 positive bags x 8 instances =
80 restarts), trains the same problem through both engines, and asserts:

* the batched engine is at least ``REPRO_TRAIN_BENCH_MIN_SPEEDUP`` times
  faster (default 3x) for the all-starts configuration;
* both engines return bit-identical best concepts and per-start values
  (batching is an execution strategy, not an approximation).

A third row reports the dynamic restart-pruning mode
(``restart_prune_margin``), which freezes restarts dominated by the
incumbent best — the Section 4.3 thinning applied at run time.

The last rows train the ``identical`` scheme on its default L-BFGS-B
backend, which the lockstep engine drives through one reverse-communication
state per restart.  They assert the same two properties: bit-identical
per-start results and a batched speed-up of at least the same floor.  They
also record the process CPU seconds per wall second of the batched L-BFGS-B
fits and assert it is at most ``MAX_CPU_PER_WALL``: the fit is one thread
of work, and scipy's bundled OpenBLAS, left at its default thread count,
adds a busy-waiting worker that reads ~2.0 on a runner with two or more
cores.
"""

import os
import time

import numpy as np

from repro.bags.bag import Bag, BagSet
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.schemes import IdenticalWeightsScheme
from repro.eval.reporting import ascii_table

#: Minimum accepted batched-over-sequential speed-up.
MIN_SPEEDUP = float(os.environ.get("REPRO_TRAIN_BENCH_MIN_SPEEDUP", "3.0"))
#: Most process CPU seconds per wall second the batched L-BFGS-B fits may use.
MAX_CPU_PER_WALL = 1.5
#: Feature dimensionality of the synthetic set (shrink for smoke runs).
N_DIMS = int(os.environ.get("REPRO_TRAIN_BENCH_DIMS", "16"))
#: Per-start solver iteration cap.
MAX_ITERATIONS = int(os.environ.get("REPRO_TRAIN_BENCH_ITERATIONS", "60"))

N_POSITIVE = 10
N_NEGATIVE = 10
INSTANCES_PER_BAG = 8


def twenty_bag_set(seed: int = 0) -> BagSet:
    """10 positive + 10 negative synthetic bags with one planted concept."""
    rng = np.random.default_rng(seed)
    target = rng.uniform(-1.0, 1.0, N_DIMS)
    bag_set = BagSet()
    for index in range(N_POSITIVE):
        instances = rng.uniform(-3.0, 3.0, (INSTANCES_PER_BAG, N_DIMS))
        hit = int(rng.integers(INSTANCES_PER_BAG))
        instances[hit] = target + rng.normal(0.0, 0.1, N_DIMS)
        bag_set.add(Bag(instances=instances, label=True, bag_id=f"pos-{index}"))
    for index in range(N_NEGATIVE):
        instances = rng.uniform(-3.0, 3.0, (INSTANCES_PER_BAG, N_DIMS))
        bag_set.add(Bag(instances=instances, label=False, bag_id=f"neg-{index}"))
    return bag_set


def _train(bag_set: BagSet, engine: str, margin: float | None = None, scheme="inequality"):
    trainer = DiverseDensityTrainer(
        TrainerConfig(
            scheme=scheme,
            beta=0.5,
            max_iterations=MAX_ITERATIONS,
            engine=engine,
            restart_prune_margin=margin,
        )
    )
    started = time.perf_counter()
    result = trainer.train(bag_set)
    return result, time.perf_counter() - started


def _cpu_per_wall(run):
    """``(run(), process CPU seconds per wall second spent in it)``."""
    cpu, wall = time.process_time(), time.perf_counter()
    result = run()
    return result, (time.process_time() - cpu) / (time.perf_counter() - wall)


def test_batched_engine_speedup(benchmark, report, bench_json):
    lbfgs = IdenticalWeightsScheme(max_iterations=MAX_ITERATIONS, backend="lbfgs")

    def run_all():
        bag_set = twenty_bag_set()
        runs = {
            "sequential": _train(bag_set, "sequential"),
            "batched": _train(bag_set, "batched"),
            "pruned": _train(bag_set, "batched", margin=1.0),
            # Tens of milliseconds each: the best of three damps scheduler noise.
            "lbfgs_sequential": min(
                (_train(bag_set, "sequential", scheme=lbfgs) for _ in range(3)),
                key=lambda run: run[1],
            ),
        }
        runs["lbfgs_batched"], runs["lbfgs_cpu_per_wall"] = _cpu_per_wall(
            lambda: min(
                (_train(bag_set, "batched", scheme=lbfgs) for _ in range(3)),
                key=lambda run: run[1],
            )
        )
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    sequential, sequential_s = runs["sequential"]
    batched, batched_s = runs["batched"]
    pruned, pruned_s = runs["pruned"]
    lbfgs_sequential, lbfgs_sequential_s = runs["lbfgs_sequential"]
    lbfgs_batched, lbfgs_batched_s = runs["lbfgs_batched"]
    lbfgs_cpu_per_wall = runs["lbfgs_cpu_per_wall"]

    # Batching must not change the mathematics: bit-identical results.
    for fast, slow in ((batched, sequential), (lbfgs_batched, lbfgs_sequential)):
        assert fast.concept.nll == slow.concept.nll
        assert np.array_equal(fast.concept.t, slow.concept.t)
        assert np.array_equal(fast.concept.w, slow.concept.w)
        assert [r.value for r in fast.starts] == [r.value for r in slow.starts]
        assert [r.n_iterations for r in fast.starts] == [
            r.n_iterations for r in slow.starts
        ]
    assert lbfgs_batched.concept.metadata["engine"] == "batched"

    speedup = sequential_s / batched_s
    lbfgs_speedup = lbfgs_sequential_s / lbfgs_batched_s
    for name, measured in (("inequality", speedup), ("identical/L-BFGS", lbfgs_speedup)):
        assert measured >= MIN_SPEEDUP, (
            f"{name}: batched engine only {measured:.2f}x faster than "
            f"sequential (required {MIN_SPEEDUP:.1f}x)"
        )
    assert lbfgs_cpu_per_wall <= MAX_CPU_PER_WALL, (
        f"identical/L-BFGS batched fits used {lbfgs_cpu_per_wall:.2f} CPU seconds "
        f"per wall second (allowed {MAX_CPU_PER_WALL:.1f}): a BLAS worker is spinning"
    )

    bench_json("train", "multistart_engines", {
        "n_bags": N_POSITIVE + N_NEGATIVE,
        "n_dims": N_DIMS,
        "n_starts": batched.n_starts,
        "max_iterations": MAX_ITERATIONS,
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "pruned_seconds": pruned_s,
        "speedup_batched": speedup,
        "speedup_pruned": sequential_s / pruned_s,
        "n_starts_pruned": pruned.n_starts_pruned,
        "lbfgs_sequential_seconds": lbfgs_sequential_s,
        "lbfgs_batched_seconds": lbfgs_batched_s,
        "speedup_lbfgs": lbfgs_speedup,
        "lbfgs_batched_cpu_per_wall": lbfgs_cpu_per_wall,
        "bit_identical": True,
    })

    rows = [
        ["sequential", f"{sequential_s:.3f}", "1.00",
         f"{sequential.concept.nll:.5f}", sequential.n_starts_pruned],
        ["batched", f"{batched_s:.3f}", f"{speedup:.2f}",
         f"{batched.concept.nll:.5f}", batched.n_starts_pruned],
        ["batched + prune(1.0)", f"{pruned_s:.3f}",
         f"{sequential_s / pruned_s:.2f}",
         f"{pruned.concept.nll:.5f}", pruned.n_starts_pruned],
        ["identical/L-BFGS sequential", f"{lbfgs_sequential_s:.3f}", "1.00",
         f"{lbfgs_sequential.concept.nll:.5f}", lbfgs_sequential.n_starts_pruned],
        ["identical/L-BFGS batched", f"{lbfgs_batched_s:.3f}", f"{lbfgs_speedup:.2f}",
         f"{lbfgs_batched.concept.nll:.5f}", lbfgs_batched.n_starts_pruned],
    ]
    report(
        ascii_table(
            ["engine", "train s", "speed-up", "best NLL", "pruned"],
            rows,
            title=f"multi-start training engines, {batched.n_starts} restarts "
            f"({N_POSITIVE}+{N_NEGATIVE} bags, {N_DIMS} dims; "
            f"bit-identical: True)",
        )
    )
