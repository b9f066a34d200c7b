"""Constrained weight optimisation (Section 3.6.3).

The inequality-constraint scheme restricts the weights to the set

    C(beta) = { w in R^n : 0 <= w_k <= 1,  sum_k w_k >= beta * n }.

The thesis solved this with CFSQP, a proprietary feasible-SQP C solver.  We
substitute two open equivalents (see DESIGN.md):

* :class:`BatchedProjectedDescent` — projected gradient with backtracking on
  the projection arc, for any number of restarts in lockstep
  (:class:`ProjectedGradientDescent` is the same solver on one start).  The
  Euclidean projection onto ``C(beta)`` is computed *exactly*: clip to the
  box; if the sum constraint is violated the optimum has the form
  ``w = clip(y + lam, 0, 1)`` for the unique ``lam >= 0`` with
  ``sum(w) = beta * n`` (KKT), found by bisection on the monotone sum.
* :class:`SLSQPBackend` — scipy's sequential least-squares QP, the closest
  published relative of CFSQP.

Both optimise jointly over ``(t, w)`` where ``t`` is unconstrained and ``w``
lives in ``C(beta)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize as scipy_optimize

from repro.core.optimizer import RestartMasks, _one_blas_thread, check_start_values, row_dots
from repro.errors import OptimizationError

#: ``value_and_grad`` over the stacked vector ``z = [t, w]``.
StackedValueAndGrad = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray, np.ndarray]]
#: Batched ``value_and_grad`` over split ``(t, w)`` blocks.
BatchedStackedValueAndGrad = Callable[
    [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]

_BISECT_ITERATIONS = 64


def project_weights_batch(weights: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise exact Euclidean projection of ``(R, n)`` weights onto ``C(beta)``.

    Every row is projected independently with the same clip-then-bisect
    scheme; the arithmetic per row is identical regardless of which other
    rows share the batch (elementwise ops plus per-row sums only), which the
    lockstep solver relies on.

    Args:
        weights: ``(R, n)`` matrix of arbitrary real rows.
        beta: the constraint level in ``[0, 1]``; each projected row sums to
            at least ``beta * n``.

    Returns:
        ``(R, n)`` matrix whose rows are the unique closest points of
        ``C(beta)``.

    Raises:
        OptimizationError: if ``beta`` is outside ``[0, 1]`` or the rows are
            empty.
    """
    if not 0.0 <= beta <= 1.0:
        raise OptimizationError(f"beta must lie in [0, 1], got {beta}")
    y = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    n = y.shape[1]
    if n == 0:
        raise OptimizationError("cannot project an empty weight vector")
    target = beta * n
    clipped = np.clip(y, 0.0, 1.0)
    # Sum constraint active: w = clip(y + lam, 0, 1), sum(w) = target.
    # sum(clip(y + lam)) is continuous and non-decreasing in lam, reaching n
    # once lam >= 1 - min(y); bisect on [0, 1 - min(y)] per needy row.
    needy = clipped.sum(axis=1) < target - 1e-12
    if not needy.any():
        return clipped
    rows = y[needy]
    low = np.zeros(rows.shape[0])
    high = 1.0 - rows.min(axis=1)
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (low + high)
        below = np.clip(rows + mid[:, None], 0.0, 1.0).sum(axis=1) < target
        low = np.where(below, mid, low)
        high = np.where(below, high, mid)
    clipped[needy] = np.clip(rows + high[:, None], 0.0, 1.0)
    return clipped


def project_weights(weights: np.ndarray, beta: float) -> np.ndarray:
    """Exact Euclidean projection of ``weights`` onto ``C(beta)``.

    Args:
        weights: arbitrary real vector.
        beta: the constraint level in ``[0, 1]``; the sum of the projected
            weights is at least ``beta * n``.

    Returns:
        The unique closest point of ``C(beta)``.

    Raises:
        OptimizationError: if ``beta`` is outside ``[0, 1]``.
    """
    y = np.asarray(weights, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise OptimizationError("cannot project an empty weight vector")
    return project_weights_batch(y.reshape(1, -1), beta)[0]


def is_feasible(weights: np.ndarray, beta: float, tolerance: float = 1e-9) -> bool:
    """Whether ``weights`` lies in ``C(beta)`` up to ``tolerance``."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size == 0:
        return False
    inside_box = bool(np.all(w >= -tolerance) and np.all(w <= 1.0 + tolerance))
    return inside_box and float(w.sum()) >= beta * w.size - tolerance


@dataclass(frozen=True)
class ConstrainedOutcome:
    """Result of one constrained minimisation over ``(t, w)``."""

    t: np.ndarray
    w: np.ndarray
    value: float
    n_iterations: int
    converged: bool


class BatchedProjectedDescent:
    """Projected gradient over ``(t, w)``, ``w`` in ``C(beta)``, in lockstep.

    Each iteration takes a gradient step on the stacked vector and projects
    the weight block back onto the constraint set.  Per restart, the step is
    reset every iteration and backtracks until the projected point meets an
    Armijo-style decrease; a restart stops when its projected step no longer
    moves.  :class:`ProjectedGradientDescent` is this solver on one row.

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

    @property
    def beta(self) -> float:
        """The constraint level."""
        return self._beta

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


class ProjectedGradientDescent:
    """Projected gradient over ``(t, w)`` on one start.

    One row of :class:`BatchedProjectedDescent`, so the per-start path and
    the lockstep trainer share one projected-gradient implementation.  Takes
    the same arguments.
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
        self._lockstep = BatchedProjectedDescent(
            beta, max_iterations, gradient_tolerance,
            initial_step, backtrack_factor, max_backtracks,
        )

    @property
    def beta(self) -> float:
        """The constraint level."""
        return self._lockstep.beta

    def minimize(
        self, fun: StackedValueAndGrad, t0: np.ndarray, w0: np.ndarray
    ) -> ConstrainedOutcome:
        """Minimise from ``(t0, w0)``; ``w0`` is projected to feasibility first.

        Raises:
            OptimizationError: if the objective is non-finite at the
                (projected) start.
        """

        def one_row(t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            value, grad_t, grad_w = fun(t[0], w[0])
            # Copies: the solver updates its gradient rows in place.
            return (
                np.array([value], dtype=np.float64),
                np.array(grad_t, dtype=np.float64).reshape(1, -1),
                np.array(grad_w, dtype=np.float64).reshape(1, -1),
            )

        t, w, values, masks = self._lockstep.minimize(
            one_row,
            np.asarray(t0, dtype=np.float64).reshape(1, -1),
            np.asarray(w0, dtype=np.float64).reshape(1, -1),
        )
        return ConstrainedOutcome(
            t=t[0],
            w=w[0],
            value=float(values[0]),
            n_iterations=int(masks.n_iterations[0]),
            converged=bool(masks.converged[0]),
        )


class SLSQPBackend:
    """Constrained minimisation with scipy SLSQP (the CFSQP stand-in).

    Optimises the stacked vector ``z = [t, w]`` with bounds ``(-inf, inf)``
    on the ``t`` block, ``[0, 1]`` on the ``w`` block and the linear
    inequality ``sum(w) >= beta * n``.
    """

    def __init__(self, beta: float, max_iterations: int = 150) -> None:
        if not 0.0 <= beta <= 1.0:
            raise OptimizationError(f"beta must lie in [0, 1], got {beta}")
        self._beta = beta
        self._max_iterations = max_iterations

    @property
    def beta(self) -> float:
        """The constraint level."""
        return self._beta

    def minimize(
        self, fun: StackedValueAndGrad, t0: np.ndarray, w0: np.ndarray
    ) -> ConstrainedOutcome:
        """Minimise from ``(t0, w0)``; see :class:`ConstrainedOutcome`."""
        t0 = np.asarray(t0, dtype=np.float64).reshape(-1)
        w0 = project_weights(np.asarray(w0, dtype=np.float64), self._beta)
        n_t, n_w = t0.size, w0.size
        target = self._beta * n_w

        def stacked(z: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad_t, grad_w = fun(z[:n_t], z[n_t:])
            return value, np.concatenate([grad_t, grad_w])

        sum_jacobian = np.concatenate([np.zeros(n_t), np.ones(n_w)])
        with _one_blas_thread():
            result = scipy_optimize.minimize(
                stacked,
                np.concatenate([t0, w0]),
                jac=True,
                method="SLSQP",
                bounds=[(None, None)] * n_t + [(0.0, 1.0)] * n_w,
                constraints=[
                    {
                        "type": "ineq",
                        "fun": lambda z: float(z[n_t:].sum() - target),
                        "jac": lambda z: sum_jacobian,
                    }
                ],
                options={"maxiter": self._max_iterations, "ftol": 1e-9},
            )
        t = np.asarray(result.x[:n_t], dtype=np.float64)
        w = project_weights(np.asarray(result.x[n_t:], dtype=np.float64), self._beta)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
            raise OptimizationError("SLSQP returned a non-finite point")
        value, _, _ = fun(t, w)
        return ConstrainedOutcome(
            t=t,
            w=w,
            value=float(value),
            n_iterations=int(result.nit),
            converged=bool(result.success),
        )
