"""Constrained weight optimisation (Section 3.6.3).

The inequality-constraint scheme restricts the weights to the set

    C(beta) = { w in R^n : 0 <= w_k <= 1,  sum_k w_k >= beta * n }.

The thesis solved this with CFSQP, a proprietary feasible-SQP C solver.  We
substitute two open equivalents (see DESIGN.md):

* :class:`ProjectedGradientDescent` — projected gradient with backtracking on
  the projection arc.  The Euclidean projection onto ``C(beta)`` is computed
  *exactly*: clip to the box; if the sum constraint is violated the optimum
  has the form ``w = clip(y + lam, 0, 1)`` for the unique ``lam >= 0`` with
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

from repro.core.optimizer import _one_blas_thread, row_dots
from repro.errors import OptimizationError

#: ``value_and_grad`` over the stacked vector ``z = [t, w]``.
StackedValueAndGrad = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray, np.ndarray]]

_BISECT_ITERATIONS = 64


def project_weights_batch(weights: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise exact Euclidean projection of ``(R, n)`` weights onto ``C(beta)``.

    Every row is projected independently with the same clip-then-bisect
    scheme as :func:`project_weights`; the arithmetic per row is identical
    regardless of which other rows share the batch (elementwise ops plus
    per-row sums only), which the batched training engine relies on.

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


class ProjectedGradientDescent:
    """Projected gradient over ``(t, w)`` with ``w`` confined to ``C(beta)``.

    Each iteration takes a gradient step on the stacked vector and projects
    the weight block back onto the constraint set; the step size backtracks
    until the projected point satisfies an Armijo-style decrease.
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
        self, fun: StackedValueAndGrad, t0: np.ndarray, w0: np.ndarray
    ) -> ConstrainedOutcome:
        """Minimise from ``(t0, w0)``; ``w0`` is projected to feasibility first."""
        t = np.asarray(t0, dtype=np.float64).copy()
        w = project_weights(np.asarray(w0, dtype=np.float64), self._beta)
        value, grad_t, grad_w = fun(t, w)
        if not np.isfinite(value):
            raise OptimizationError("objective is non-finite at the starting point")

        for iteration in range(self._max_iterations):
            step = self._step0
            accepted = False
            for _ in range(self._max_backtracks):
                cand_t = t - step * grad_t
                cand_w = project_weights(w - step * grad_w, self._beta)
                move_t = (cand_t - t).reshape(1, -1)
                move_w = (cand_w - w).reshape(1, -1)
                move_norm2 = float(
                    row_dots(move_t, move_t)[0] + row_dots(move_w, move_w)[0]
                )
                if move_norm2 <= self._gtol**2:
                    # The projected step no longer moves: stationary point of
                    # the projected dynamics.
                    return ConstrainedOutcome(t, w, value, iteration, converged=True)
                cand_value, cand_gt, cand_gw = fun(cand_t, cand_w)
                # Armijo on the projection arc: require decrease proportional
                # to the squared move length.
                if np.isfinite(cand_value) and cand_value <= value - 1e-4 / step * move_norm2:
                    accepted = True
                    break
                step *= self._rho
            if not accepted:
                return ConstrainedOutcome(t, w, value, iteration, converged=True)
            t, w, value = cand_t, cand_w, cand_value
            grad_t, grad_w = cand_gt, cand_gw
        return ConstrainedOutcome(t, w, value, self._max_iterations, converged=False)


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
