"""The batched multi-start training engine.

Multi-restart Diverse Density training hill-climbs from every instance of
every positive bag (Sections 2.2.2 and 4.3).  The sequential path runs one
solver per restart; this module instead steps *all* restarts in lockstep —
each descent step evaluates the batched objective once, producing one
``(R, n_instances)`` distance tensor for the whole restart population —
with three per-restart masks:

* **active** — restarts still descending;
* **converged** — restarts whose stopping criterion fired (they keep their
  final point and drop out of subsequent evaluations);
* **pruned** — restarts frozen early because their current value is
  dominated by the incumbent best by more than a configurable margin
  (``prune_margin``).  This implements the Section 4.3 restart thinning
  *dynamically*: instead of choosing a start subset up front, hopeless
  restarts are abandoned as soon as the evidence arrives.

Three solvers mirror the sequential ones step for step:

* :class:`BatchedArmijoDescent` — lockstep
  :class:`~repro.core.optimizer.ArmijoGradientDescent` (the unconstrained
  schemes on the ``armijo`` backend, and alpha-hack);
* :class:`~repro.core.optimizer.LockstepLBFGSB` — scipy's L-BFGS-B with one
  reverse-communication state per restart, the same solver
  :class:`~repro.core.optimizer.LBFGSOptimizer` runs on one row (original
  and identical on their default ``lbfgs`` backend);
* :class:`BatchedProjectedDescent` — lockstep
  :class:`~repro.core.projection.ProjectedGradientDescent` (the inequality
  scheme).

Because the shared objective and all scalar reductions are restart-slice
stable (see :mod:`repro.core.objective`), a batched run is **bit-identical**
per restart to running the same solver on each start alone — batching is a
pure execution-strategy change, which the engine equivalence suite asserts.
:func:`run_batched_scheme` maps each paper weight scheme onto its batched
solver; schemes this module cannot batch without changing their results
(custom ``WeightScheme`` subclasses, and the inequality scheme on its SLSQP
backend) return ``None`` and the trainer falls back to the sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.objective import BatchedDiverseDensityObjective
from repro.core.optimizer import (
    BatchedValueAndGrad,
    LockstepLBFGSB,
    RestartMasks,
    check_start_values,
    row_dots,
)
from repro.core.projection import project_weights_batch
from repro.core.schemes import (
    AlphaHackScheme,
    IdenticalWeightsScheme,
    InequalityScheme,
    OriginalDDScheme,
    WeightScheme,
)
from repro.errors import OptimizationError

#: Batched ``value_and_grad`` over split ``(t, w)`` blocks.
BatchedStackedValueAndGrad = Callable[
    [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]


@dataclass(frozen=True)
class BatchedOutcome:
    """Per-restart results of one lockstep minimisation.

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


class BatchedArmijoDescent:
    """Lockstep steepest descent with backtracking line search.

    Mirrors :class:`~repro.core.optimizer.ArmijoGradientDescent` exactly per
    restart — same per-restart step-size memory, same acceptance tests in
    the same order — while evaluating all still-searching restarts through
    one batched objective call per backtrack level.

    Args:
        max_iterations: hard cap on outer iterations.
        gradient_tolerance: stop a restart when ``||grad||_inf`` falls below
            this.
        initial_step: first step size tried at each iteration.
        backtrack_factor: multiplicative step reduction on rejection.
        armijo_c: sufficient-decrease constant in ``(0, 1)``.
        max_backtracks: line-search evaluations per iteration before a
            restart gives up on its direction (treated as convergence).
    """

    def __init__(
        self,
        max_iterations: int = 200,
        gradient_tolerance: float = 1e-5,
        initial_step: float = 1.0,
        backtrack_factor: float = 0.5,
        armijo_c: float = 1e-4,
        max_backtracks: int = 40,
    ) -> None:
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        if not 0 < backtrack_factor < 1:
            raise OptimizationError(f"backtrack_factor must be in (0, 1), got {backtrack_factor}")
        if not 0 < armijo_c < 1:
            raise OptimizationError(f"armijo_c must be in (0, 1), got {armijo_c}")
        self._max_iterations = max_iterations
        self._gtol = gradient_tolerance
        self._step0 = initial_step
        self._rho = backtrack_factor
        self._c = armijo_c
        self._max_backtracks = max_backtracks

    def minimize(
        self,
        fun: BatchedValueAndGrad,
        z0: np.ndarray,
        prune_margin: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, RestartMasks]:
        """Minimise all rows of ``z0``; returns ``(z, values, masks)``.

        Raises:
            OptimizationError: if any restart's objective is non-finite at
                its starting point.
        """
        z = np.array(z0, dtype=np.float64)
        n_restarts = z.shape[0]
        values, grads = fun(z)
        check_start_values(values)
        step = np.full(n_restarts, self._step0)
        masks = RestartMasks(n_restarts, self._max_iterations)

        for iteration in range(self._max_iterations):
            if not masks.active.any():
                break
            masks.prune(values, iteration, prune_margin)
            rows = np.flatnonzero(masks.active)
            if rows.size == 0:
                break
            grad_norm = np.abs(grads[rows]).max(axis=1)
            done = grad_norm <= self._gtol
            if done.any():
                masks.finish(rows[done], iteration, converged=True)
                rows = rows[~done]
                if rows.size == 0:
                    continue
            direction = -grads[rows]
            slope = row_dots(grads[rows], direction)  # = -||grad||^2 < 0
            trial = step[rows].copy()
            pending = np.arange(rows.size)
            for _ in range(self._max_backtracks):
                subset = rows[pending]
                candidate = z[subset] + trial[pending, None] * direction[pending]
                cand_values, cand_grads = fun(candidate)
                accept = np.isfinite(cand_values) & (
                    cand_values
                    <= values[subset] + self._c * trial[pending] * slope[pending]
                )
                if accept.any():
                    hit = subset[accept]
                    z[hit] = candidate[accept]
                    values[hit] = cand_values[accept]
                    grads[hit] = cand_grads[accept]
                    # Allow the step to grow back so a single hard iteration
                    # does not permanently shrink progress.
                    step[hit] = np.minimum(
                        self._step0, trial[pending[accept]] / self._rho
                    )
                pending = pending[~accept]
                if pending.size == 0:
                    break
                trial[pending] *= self._rho
            if pending.size:
                # No representable step improves these restarts: local optima
                # to machine precision for this method.
                masks.finish(rows[pending], iteration, converged=True)
        return z, values, masks


class BatchedProjectedDescent:
    """Lockstep projected gradient over ``(t, w)`` with ``w`` in ``C(beta)``.

    Mirrors :class:`~repro.core.projection.ProjectedGradientDescent` exactly
    per restart: each iteration resets the step, backtracks on the
    projection arc, and stops a restart when its projected step no longer
    moves.

    Args:
        beta: the weight-sum constraint level in ``[0, 1]``.
        max_iterations: hard cap on outer iterations.
        gradient_tolerance: a restart stops once its projected move has norm
            at most this.
        initial_step: step size restored at each iteration.
        backtrack_factor: multiplicative step reduction on rejection.
        max_backtracks: candidate evaluations per iteration before a restart
            is declared stationary.
    """

    def __init__(
        self,
        beta: float,
        max_iterations: int = 200,
        gradient_tolerance: float = 1e-5,
        initial_step: float = 0.5,
        backtrack_factor: float = 0.5,
        max_backtracks: int = 40,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise OptimizationError(f"beta must lie in [0, 1], got {beta}")
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        self._beta = beta
        self._max_iterations = max_iterations
        self._gtol = gradient_tolerance
        self._step0 = initial_step
        self._rho = backtrack_factor
        self._max_backtracks = max_backtracks

    def minimize(
        self,
        fun: BatchedStackedValueAndGrad,
        t0: np.ndarray,
        w0: np.ndarray,
        prune_margin: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, RestartMasks]:
        """Minimise all restarts; returns ``(t, w, values, masks)``.

        ``w0`` rows are projected to feasibility first.

        Raises:
            OptimizationError: if any restart's objective is non-finite at
                its (projected) starting point.
        """
        t = np.array(t0, dtype=np.float64)
        w = project_weights_batch(np.asarray(w0, dtype=np.float64), self._beta)
        n_restarts = t.shape[0]
        values, grad_t, grad_w = fun(t, w)
        check_start_values(values)
        masks = RestartMasks(n_restarts, self._max_iterations)

        for iteration in range(self._max_iterations):
            if not masks.active.any():
                break
            masks.prune(values, iteration, prune_margin)
            rows = np.flatnonzero(masks.active)
            if rows.size == 0:
                break
            step = np.full(rows.size, self._step0)
            pending = np.arange(rows.size)
            for _ in range(self._max_backtracks):
                subset = rows[pending]
                cand_t = t[subset] - step[pending, None] * grad_t[subset]
                cand_w = project_weights_batch(
                    w[subset] - step[pending, None] * grad_w[subset], self._beta
                )
                move_t = cand_t - t[subset]
                move_w = cand_w - w[subset]
                move_norm2 = row_dots(move_t, move_t) + row_dots(move_w, move_w)
                still = move_norm2 <= self._gtol**2
                if still.any():
                    # The projected step no longer moves: stationary points
                    # of the projected dynamics.
                    masks.finish(subset[still], iteration, converged=True)
                    keep = ~still
                    pending = pending[keep]
                    cand_t, cand_w = cand_t[keep], cand_w[keep]
                    move_norm2 = move_norm2[keep]
                    if pending.size == 0:
                        break
                    subset = rows[pending]
                cand_values, cand_gt, cand_gw = fun(cand_t, cand_w)
                # Armijo on the projection arc: require decrease proportional
                # to the squared move length.
                accept = np.isfinite(cand_values) & (
                    cand_values
                    <= values[subset] - 1e-4 / step[pending] * move_norm2
                )
                if accept.any():
                    hit = subset[accept]
                    t[hit] = cand_t[accept]
                    w[hit] = cand_w[accept]
                    values[hit] = cand_values[accept]
                    grad_t[hit] = cand_gt[accept]
                    grad_w[hit] = cand_gw[accept]
                pending = pending[~accept]
                if pending.size == 0:
                    break
                step[pending] *= self._rho
            if pending.size:
                masks.finish(rows[pending], iteration, converged=True)
        return t, w, values, masks


def _unconstrained_solver(
    scheme: WeightScheme,
) -> BatchedArmijoDescent | LockstepLBFGSB | None:
    """The lockstep twin of an unconstrained scheme's sequential minimiser."""
    if scheme.backend == "armijo":
        return BatchedArmijoDescent(scheme.max_iterations, scheme.gradient_tolerance)
    if scheme.backend == "lbfgs":
        return LockstepLBFGSB(scheme.max_iterations, scheme.gradient_tolerance)
    return None


def run_batched_scheme(
    objective: BatchedDiverseDensityObjective,
    scheme: WeightScheme,
    t0: np.ndarray,
    w0: np.ndarray,
    prune_margin: float | None = None,
) -> BatchedOutcome | None:
    """Optimise all restarts under ``scheme`` with the matching lockstep solver.

    Args:
        objective: the shared batched objective.
        scheme: one of the four paper weight schemes, on a backend the
            lockstep engine replicates bit for bit: ``lbfgs`` or ``armijo``
            for original / identical, ``armijo`` for alpha-hack, and
            ``projected`` for inequality.
        t0: ``(R, d)`` restart concept points.
        w0: ``(R, d)`` starting effective weights (ones unless warm-started).
        prune_margin: freeze restarts whose value trails the incumbent best
            by more than this; ``None`` disables pruning.

    Returns:
        A :class:`BatchedOutcome`, or ``None`` for a scheme this engine
        cannot batch *without changing its results* — custom schemes, and
        the inequality scheme on its SLSQP backend, whose trajectory the
        projected solver would silently replace.  The trainer then falls
        back to the sequential per-start path, so an engine switch never
        changes training outcomes.
    """
    t0 = np.atleast_2d(np.asarray(t0, dtype=np.float64))
    w0 = np.atleast_2d(np.asarray(w0, dtype=np.float64))
    n_dims = objective.n_dims

    if isinstance(scheme, InequalityScheme):
        if scheme.backend != "projected":
            return None
        solver = BatchedProjectedDescent(
            scheme.beta, scheme.max_iterations, scheme.gradient_tolerance
        )
        t, w, values, masks = solver.minimize(
            objective.value_and_grad, t0, w0, prune_margin
        )
        return BatchedOutcome(
            t=t,
            w=w,
            values=values,
            n_iterations=masks.n_iterations,
            converged=masks.converged,
            pruned=masks.pruned,
        )

    if isinstance(scheme, IdenticalWeightsScheme):
        unconstrained = _unconstrained_solver(scheme)
        if unconstrained is None:
            return None

        z, values, masks = unconstrained.minimize(
            objective.value_and_grad_unit, t0, prune_margin
        )
        return BatchedOutcome(
            t=z,
            w=np.ones_like(z),
            values=values,
            n_iterations=masks.n_iterations,
            converged=masks.converged,
            pruned=masks.pruned,
        )

    if isinstance(scheme, (OriginalDDScheme, AlphaHackScheme)):
        unconstrained = _unconstrained_solver(scheme)
        if unconstrained is None:
            return None
        alpha = scheme.alpha if isinstance(scheme, AlphaHackScheme) else 1.0

        def fun_squared(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values, grad_t, grad_s = objective.value_and_grad_squared(
                z[:, :n_dims], z[:, n_dims:], alpha=alpha
            )
            return values, np.concatenate([grad_t, grad_s], axis=1)

        z0 = np.concatenate([t0, np.sqrt(w0)], axis=1)
        z, values, masks = unconstrained.minimize(fun_squared, z0, prune_margin)
        s = z[:, n_dims:]
        return BatchedOutcome(
            t=z[:, :n_dims],
            w=s * s,
            values=values,
            n_iterations=masks.n_iterations,
            converged=masks.converged,
            pruned=masks.pruned,
        )

    return None
