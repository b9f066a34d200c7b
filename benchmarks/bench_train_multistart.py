"""Extension bench — lockstep multi-start training vs a per-start loop.

Not a paper artefact.  The trainer steps every restart in lockstep: each
descent step evaluates the noisy-or objective for all restarts at once
through one ``(R, n_instances)`` distance tensor, with converged restarts
masked out.  This bench measures what that buys on a 20-bag synthetic set
(10 positive bags x 8 instances = 80 restarts): it trains the problem once
and races it against an explicit loop that runs the same solver on one
start at a time, and asserts:

* the trainer is at least ``REPRO_TRAIN_BENCH_MIN_SPEEDUP`` times faster
  (default 3x) than the loop;
* the trainer's best concept and per-start values and iteration counts are
  bit-identical to the loop's (lockstep is an execution strategy, not an
  approximation).

The ``inequality`` rows race the trainer against ``scheme.optimize`` per
start.  A third row reports the dynamic restart-pruning mode
(``restart_prune_margin``), which freezes restarts dominated by the
incumbent best — the Section 4.3 thinning applied at run time.

The ``identical`` rows train on the default L-BFGS-B backend and race it
against ``scipy.optimize.minimize(method="L-BFGS-B")`` per start, run with
scipy's bundled OpenBLAS held at one thread as the trainer's fits are.
They assert the same two properties.  They also record the process CPU
seconds per wall second of the trainer's L-BFGS-B fits and assert it is
at most ``MAX_CPU_PER_WALL``: the fit is one thread of work, and scipy's
bundled OpenBLAS, left at its default thread count, adds a busy-waiting
worker that reads ~2.0 on a runner with two or more cores.
"""

import os
import time

import numpy as np
from scipy import optimize as scipy_optimize

from repro.bags.bag import Bag, BagSet
from repro.core.diverse_density import (
    DiverseDensityTrainer,
    TrainerConfig,
    select_restart_points,
)
from repro.core.objective import DiverseDensityObjective
from repro.core.optimizer import _one_blas_thread
from repro.core.schemes import IdenticalWeightsScheme, InequalityScheme
from repro.eval.reporting import ascii_table

#: Minimum accepted trainer-over-per-start-loop speed-up.
MIN_SPEEDUP = float(os.environ.get("REPRO_TRAIN_BENCH_MIN_SPEEDUP", "3.0"))
#: Most process CPU seconds per wall second the trainer's L-BFGS-B fits may use.
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


def _train(bag_set: BagSet, scheme, margin: float | None = None):
    trainer = DiverseDensityTrainer(
        TrainerConfig(scheme=scheme, restart_prune_margin=margin)
    )
    started = time.perf_counter()
    result = trainer.train(bag_set)
    return result, time.perf_counter() - started


def _per_start_loop(bag_set: BagSet, solve):
    """``solve(objective, t0)`` on each of the trainer's starts in turn.

    Returns ``(rows, seconds)`` with one ``(t, w, value, n_iterations)`` row
    per start.
    """
    started = time.perf_counter()
    objective = DiverseDensityObjective(bag_set)
    starts = select_restart_points(bag_set, subset=None, stride=1, seed=0)
    rows = [solve(objective, t0) for _, _, t0, _ in starts]
    return rows, time.perf_counter() - started


def _scheme_optimize(scheme):
    def solve(objective, t0):
        result = scheme.optimize(objective, t0)
        return result.t, result.w, result.value, result.n_iterations

    return solve


def _scipy_lbfgsb(objective, t0):
    with _one_blas_thread():
        result = scipy_optimize.minimize(
            objective.value_and_grad_unit, t0, jac=True, method="L-BFGS-B",
            options={"maxiter": MAX_ITERATIONS, "gtol": 1e-6},
        )
    return result.x, np.ones_like(result.x), float(result.fun), int(result.nit)


def _cpu_per_wall(run):
    """``(run(), process CPU seconds per wall second spent in it)``."""
    cpu, wall = time.process_time(), time.perf_counter()
    result = run()
    return result, (time.process_time() - cpu) / (time.perf_counter() - wall)


def _assert_bit_identical(fit, rows) -> None:
    """The trainer's records and best concept are the loop's, bit for bit."""
    assert [r.value for r in fit.starts] == [value for _, _, value, _ in rows]
    assert [r.n_iterations for r in fit.starts] == [n for _, _, _, n in rows]
    best_t, best_w, best_value, _ = min(
        (row for row in rows if np.isfinite(row[2])), key=lambda row: row[2]
    )
    assert fit.concept.nll == best_value
    assert np.array_equal(fit.concept.t, best_t)
    assert np.array_equal(fit.concept.w, best_w)


def test_trainer_beats_per_start_loop(benchmark, report, bench_json):
    inequality = InequalityScheme(beta=0.5, max_iterations=MAX_ITERATIONS)
    lbfgs = IdenticalWeightsScheme(max_iterations=MAX_ITERATIONS, backend="lbfgs")

    def best_of_three(run):
        # Tens of milliseconds each: the best of three damps scheduler noise.
        return min((run() for _ in range(3)), key=lambda outcome: outcome[1])

    def run_all():
        bag_set = twenty_bag_set()
        runs = {
            "loop": _per_start_loop(bag_set, _scheme_optimize(inequality)),
            "trainer": _train(bag_set, inequality),
            "pruned": _train(bag_set, inequality, margin=1.0),
            "lbfgs_loop": best_of_three(lambda: _per_start_loop(bag_set, _scipy_lbfgsb)),
        }
        runs["lbfgs_trainer"], runs["lbfgs_cpu_per_wall"] = _cpu_per_wall(
            lambda: best_of_three(lambda: _train(bag_set, lbfgs))
        )
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    loop, loop_s = runs["loop"]
    trainer, trainer_s = runs["trainer"]
    pruned, pruned_s = runs["pruned"]
    lbfgs_loop, lbfgs_loop_s = runs["lbfgs_loop"]
    lbfgs_trainer, lbfgs_trainer_s = runs["lbfgs_trainer"]
    lbfgs_cpu_per_wall = runs["lbfgs_cpu_per_wall"]

    # Lockstep must not change the mathematics: bit-identical results.
    _assert_bit_identical(trainer, loop)
    _assert_bit_identical(lbfgs_trainer, lbfgs_loop)

    speedup = loop_s / trainer_s
    lbfgs_speedup = lbfgs_loop_s / lbfgs_trainer_s
    for name, measured in (("inequality", speedup), ("identical/L-BFGS", lbfgs_speedup)):
        assert measured >= MIN_SPEEDUP, (
            f"{name}: trainer only {measured:.2f}x faster than the per-start "
            f"loop (required {MIN_SPEEDUP:.1f}x)"
        )
    assert lbfgs_cpu_per_wall <= MAX_CPU_PER_WALL, (
        f"identical/L-BFGS trainer fits used {lbfgs_cpu_per_wall:.2f} CPU seconds "
        f"per wall second (allowed {MAX_CPU_PER_WALL:.1f}): a BLAS worker is spinning"
    )

    bench_json("train", "multistart_training", {
        "n_bags": N_POSITIVE + N_NEGATIVE,
        "n_dims": N_DIMS,
        "n_starts": trainer.n_starts,
        "max_iterations": MAX_ITERATIONS,
        "per_start_loop_seconds": loop_s,
        "trainer_seconds": trainer_s,
        "pruned_seconds": pruned_s,
        "speedup_trainer": speedup,
        "speedup_pruned": loop_s / pruned_s,
        "n_starts_pruned": pruned.n_starts_pruned,
        "lbfgs_scipy_loop_seconds": lbfgs_loop_s,
        "lbfgs_trainer_seconds": lbfgs_trainer_s,
        "speedup_lbfgs": lbfgs_speedup,
        "lbfgs_trainer_cpu_per_wall": lbfgs_cpu_per_wall,
        "bit_identical": True,
    })

    rows = [
        ["inequality: scheme.optimize per start", f"{loop_s:.3f}", "1.00",
         f"{trainer.concept.nll:.5f}", 0],
        ["inequality: trainer", f"{trainer_s:.3f}", f"{speedup:.2f}",
         f"{trainer.concept.nll:.5f}", trainer.n_starts_pruned],
        ["inequality: trainer + prune(1.0)", f"{pruned_s:.3f}",
         f"{loop_s / pruned_s:.2f}",
         f"{pruned.concept.nll:.5f}", pruned.n_starts_pruned],
        ["identical: scipy L-BFGS-B per start", f"{lbfgs_loop_s:.3f}", "1.00",
         f"{lbfgs_trainer.concept.nll:.5f}", 0],
        ["identical: trainer (L-BFGS-B)", f"{lbfgs_trainer_s:.3f}",
         f"{lbfgs_speedup:.2f}",
         f"{lbfgs_trainer.concept.nll:.5f}", lbfgs_trainer.n_starts_pruned],
    ]
    report(
        ascii_table(
            ["run", "train s", "speed-up", "best NLL", "pruned"],
            rows,
            title=f"multi-start training, {trainer.n_starts} restarts "
            f"({N_POSITIVE}+{N_NEGATIVE} bags, {N_DIMS} dims; "
            f"bit-identical: True)",
        )
    )
