"""The lockstep multi-start trainer core.

Multi-restart Diverse Density training hill-climbs from every instance of
every positive bag (Sections 2.2.2 and 4.3).  :func:`run_batched_scheme`
steps *all* restarts in lockstep: each descent step evaluates the batched
objective once, producing one ``(R, n_instances)`` distance tensor for the
whole restart population, with three per-restart masks:

* **active** — restarts still descending;
* **converged** — restarts whose stopping criterion fired (they keep their
  final point and drop out of subsequent evaluations);
* **pruned** — restarts frozen early because their current value is
  dominated by the incumbent best by more than a configurable margin
  (``prune_margin``).  This implements the Section 4.3 restart thinning
  *dynamically*: instead of choosing a start subset up front, hopeless
  restarts are abandoned as soon as the evidence arrives.

Each paper scheme maps onto the lockstep solver of its descent rule:

* :class:`~repro.core.optimizer.BatchedArmijoDescent` — the unconstrained
  schemes on the ``armijo`` backend, and alpha-hack;
* :class:`~repro.core.optimizer.LockstepLBFGSB` — scipy's L-BFGS-B with one
  reverse-communication state per restart (original and identical on their
  default ``lbfgs`` backend);
* :class:`~repro.core.projection.BatchedProjectedDescent` — the inequality
  scheme on its default ``projected`` backend.

The per-start classes (``ArmijoGradientDescent``, ``LBFGSOptimizer``,
``ProjectedGradientDescent``) are these solvers on one row, and the shared
objective and all scalar reductions are restart-slice stable (see
:mod:`repro.core.objective`), so every restart of a lockstep run has the
bits of the same solver run on that start alone.  A scheme with no lockstep
solver — the inequality scheme on its SLSQP backend, and custom
``WeightScheme`` subclasses — runs ``scheme.optimize`` on each start in
turn and ignores the prune margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objective import DiverseDensityObjective
from repro.core.optimizer import BatchedArmijoDescent, LockstepLBFGSB, RestartMasks
from repro.core.projection import BatchedProjectedDescent
from repro.core.schemes import (
    AlphaHackScheme,
    IdenticalWeightsScheme,
    InequalityScheme,
    OriginalDDScheme,
    WeightScheme,
)


@dataclass(frozen=True)
class BatchedOutcome:
    """Per-restart results of one multi-start minimisation.

    Attributes:
        t: ``(R, d)`` final concept points.
        w: ``(R, d)`` final effective weights.
        values: ``(R,)`` objective values at the final points.
        n_iterations: ``(R,)`` iterations each restart consumed.
        converged: ``(R,)`` whether each restart met its stopping criterion.
        pruned: ``(R,)`` whether each restart was frozen by the prune margin
            before finishing (pruned restarts report ``converged = False``).
    """

    t: np.ndarray
    w: np.ndarray
    values: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray
    pruned: np.ndarray


def _finished(
    t: np.ndarray, w: np.ndarray, values: np.ndarray, masks: RestartMasks
) -> BatchedOutcome:
    """The outcome of a lockstep solver run, read off its restart masks."""
    return BatchedOutcome(
        t=t,
        w=w,
        values=values,
        n_iterations=masks.n_iterations,
        converged=masks.converged,
        pruned=masks.pruned,
    )


def _unconstrained_solver(
    scheme: WeightScheme,
) -> BatchedArmijoDescent | LockstepLBFGSB | None:
    """The lockstep solver of an unconstrained scheme's backend."""
    if scheme.backend == "armijo":
        return BatchedArmijoDescent(scheme.max_iterations, scheme.gradient_tolerance)
    if scheme.backend == "lbfgs":
        return LockstepLBFGSB(scheme.max_iterations, scheme.gradient_tolerance)
    return None


def run_batched_scheme(
    objective: DiverseDensityObjective,
    scheme: WeightScheme,
    t0: np.ndarray,
    w0: np.ndarray,
    prune_margin: float | None = None,
) -> BatchedOutcome:
    """Optimise all restarts under ``scheme``.

    Args:
        objective: the bag set's objective; its batched view serves the
            lockstep solvers.
        scheme: the weight scheme.  The four paper schemes run their lockstep
            solver: ``lbfgs`` or ``armijo`` for original / identical,
            ``armijo`` for alpha-hack, and ``projected`` for inequality.  Any
            other scheme (inequality on SLSQP, custom schemes) runs
            ``scheme.optimize`` on each start in turn.
        t0: ``(R, d)`` restart concept points.
        w0: ``(R, d)`` starting effective weights (ones unless warm-started).
        prune_margin: freeze restarts whose value trails the incumbent best
            by more than this; ``None`` disables pruning.  Ignored by schemes
            with no lockstep solver.

    Returns:
        The per-restart results, in the order of ``t0``.
    """
    t0 = np.atleast_2d(np.asarray(t0, dtype=np.float64))
    w0 = np.atleast_2d(np.asarray(w0, dtype=np.float64))
    batched = objective.batched
    n_dims = objective.n_dims

    if isinstance(scheme, InequalityScheme) and scheme.backend == "projected":
        solver = BatchedProjectedDescent(
            scheme.beta, scheme.max_iterations, scheme.gradient_tolerance
        )
        t, w, values, masks = solver.minimize(batched.value_and_grad, t0, w0, prune_margin)
        return _finished(t, w, values, masks)

    unconstrained = _unconstrained_solver(scheme)
    if isinstance(scheme, IdenticalWeightsScheme) and unconstrained is not None:
        z, values, masks = unconstrained.minimize(
            batched.value_and_grad_unit, t0, prune_margin
        )
        return _finished(z, np.ones_like(z), values, masks)

    if isinstance(scheme, (OriginalDDScheme, AlphaHackScheme)) and unconstrained is not None:
        alpha = scheme.alpha if isinstance(scheme, AlphaHackScheme) else 1.0

        def fun_squared(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values, grad_t, grad_s = batched.value_and_grad_squared(
                z[:, :n_dims], z[:, n_dims:], alpha=alpha
            )
            return values, np.concatenate([grad_t, grad_s], axis=1)

        z0 = np.concatenate([t0, np.sqrt(w0)], axis=1)
        z, values, masks = unconstrained.minimize(fun_squared, z0, prune_margin)
        s = z[:, n_dims:]
        return _finished(z[:, :n_dims], s * s, values, masks)

    results = [scheme.optimize(objective, t, w0=w) for t, w in zip(t0, w0)]
    return BatchedOutcome(
        t=np.array([result.t for result in results], dtype=np.float64),
        w=np.array([result.w for result in results], dtype=np.float64),
        values=np.array([result.value for result in results], dtype=np.float64),
        n_iterations=np.array([result.n_iterations for result in results], dtype=np.int64),
        converged=np.array([result.converged for result in results], dtype=bool),
        pruned=np.zeros(len(results), dtype=bool),
    )
