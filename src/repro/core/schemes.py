"""Weight-control schemes (Section 3.6).

The original Diverse Density algorithm maximises over both the concept point
``t`` and the per-dimension weights ``w``, and with little training data it
drives most weights to zero — a few-pixel concept that fits the examples but
generalises poorly.  The paper studies four treatments:

* ``original`` — free weights, optimised through ``w = s**2``
  (:class:`OriginalDDScheme`).
* ``identical`` — all weights pinned to 1; only ``t`` is optimised
  (:class:`IdenticalWeightsScheme`, Section 3.6.1).
* ``alpha_hack`` — the Section 3.6.2 modification: the ``w``-block of the
  gradient is divided by ``alpha`` during gradient ascent, damping weight
  movement.  The resulting vector field is not the gradient of any function,
  so this scheme always runs on plain (Armijo) gradient descent
  (:class:`AlphaHackScheme`).
* ``inequality`` — weights confined to ``{0 <= w <= 1, sum(w) >= beta * n}``
  and optimised with a constrained solver (:class:`InequalityScheme`,
  Section 3.6.3; ``beta = 0`` recovers free box-bounded weights and
  ``beta = 1`` pins every weight to 1).

All schemes share one entry point, :meth:`WeightScheme.optimize`, taking the
objective and a start ``(t0, w0)`` and returning effective weights.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.objective import DiverseDensityObjective
from repro.core.optimizer import ArmijoGradientDescent, make_minimizer
from repro.core.projection import ProjectedGradientDescent, SLSQPBackend
from repro.errors import TrainingError


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of optimising one start under one scheme.

    Attributes:
        t: the concept point found.
        w: the *effective* (non-negative) weights found.
        value: NLL at ``(t, w)``; lower means higher Diverse Density.
        n_iterations: iterations spent by the underlying solver.
        converged: whether the solver met its stopping criterion.
    """

    t: np.ndarray
    w: np.ndarray
    value: float
    n_iterations: int
    converged: bool


class WeightScheme(ABC):
    """Interface shared by the four weight-control schemes."""

    #: Short identifier used in reports and experiment configs.
    name: str = ""

    def __init__(self, max_iterations: int = 150, gradient_tolerance: float = 1e-6) -> None:
        if max_iterations < 1:
            raise TrainingError(f"max_iterations must be >= 1, got {max_iterations}")
        self._max_iterations = max_iterations
        self._gtol = gradient_tolerance
        #: Solver backend name, recorded by subclasses that offer a choice.
        self._backend: str = ""

    @property
    def max_iterations(self) -> int:
        """Per-start solver iteration cap."""
        return self._max_iterations

    @property
    def gradient_tolerance(self) -> float:
        """Solver stopping tolerance."""
        return self._gtol

    @property
    def backend(self) -> str:
        """Solver backend name ('' when the scheme has a fixed solver)."""
        return self._backend

    @abstractmethod
    def optimize(
        self,
        objective: DiverseDensityObjective,
        t0: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> SchemeResult:
        """Minimise the NLL from a start point under this scheme's rules.

        Args:
            objective: the bag-set objective.
            t0: starting concept point (usually a positive instance).
            w0: starting effective weights; defaults to all ones.
        """

    def _initial_weights(
        self, objective: DiverseDensityObjective, w0: np.ndarray | None
    ) -> np.ndarray:
        if w0 is None:
            return np.ones(objective.n_dims)
        w = np.asarray(w0, dtype=np.float64).reshape(-1)
        if w.size != objective.n_dims:
            raise TrainingError(f"w0 must have {objective.n_dims} entries, got {w.size}")
        if np.any(w < 0):
            raise TrainingError("w0 must be non-negative")
        return w

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name

    def fingerprint(self) -> str:
        """Stable identity string for concept-cache keys.

        Covers everything that changes the optimisation outcome: the scheme
        class, its report description (which embeds beta/alpha), the solver
        backend, the iteration cap and the stopping tolerance.
        """
        return (
            f"{type(self).__name__}:{self.describe()}"
            f"|backend={self._backend}|it={self._max_iterations}|tol={self._gtol:g}"
        )


class OriginalDDScheme(WeightScheme):
    """Free weights via the ``w = s**2`` substitution (the original algorithm).

    Args:
        backend: unconstrained minimiser name, ``"lbfgs"`` or ``"armijo"``.
    """

    name = "original"

    def __init__(
        self,
        max_iterations: int = 150,
        gradient_tolerance: float = 1e-6,
        backend: str = "lbfgs",
    ) -> None:
        super().__init__(max_iterations, gradient_tolerance)
        self._backend = backend
        self._minimizer = make_minimizer(backend, max_iterations, gradient_tolerance)

    def optimize(
        self,
        objective: DiverseDensityObjective,
        t0: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> SchemeResult:
        n = objective.n_dims
        s0 = np.sqrt(self._initial_weights(objective, w0))
        z0 = np.concatenate([np.asarray(t0, dtype=np.float64).reshape(-1), s0])

        def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad_t, grad_s = objective.value_and_grad_squared(z[:n], z[n:])
            return value, np.concatenate([grad_t, grad_s])

        outcome = self._minimizer.minimize(fun, z0)
        s = outcome.x[n:]
        return SchemeResult(
            t=outcome.x[:n],
            w=s * s,
            value=outcome.value,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
        )


class IdenticalWeightsScheme(WeightScheme):
    """All weights pinned to 1; optimise ``t`` only (Section 3.6.1)."""

    name = "identical"

    def __init__(
        self,
        max_iterations: int = 150,
        gradient_tolerance: float = 1e-6,
        backend: str = "lbfgs",
    ) -> None:
        super().__init__(max_iterations, gradient_tolerance)
        self._backend = backend
        self._minimizer = make_minimizer(backend, max_iterations, gradient_tolerance)

    def optimize(
        self,
        objective: DiverseDensityObjective,
        t0: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> SchemeResult:
        outcome = self._minimizer.minimize(
            objective.value_and_grad_unit, np.asarray(t0, dtype=np.float64).reshape(-1)
        )
        return SchemeResult(
            t=outcome.x,
            w=np.ones(objective.n_dims),
            value=outcome.value,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
        )


class AlphaHackScheme(WeightScheme):
    """Weight-gradient damping by ``1/alpha`` (Section 3.6.2).

    ``alpha = 1`` reproduces the original scheme; ``alpha -> inf`` freezes
    the weights (identical-weights behaviour).  The damped vector field is
    not a gradient, so this scheme runs on Armijo gradient descent where a
    non-gradient descent direction is still sound.
    """

    name = "alpha_hack"

    def __init__(
        self,
        alpha: float = 50.0,
        max_iterations: int = 150,
        gradient_tolerance: float = 1e-6,
    ) -> None:
        super().__init__(max_iterations, gradient_tolerance)
        if alpha <= 0:
            raise TrainingError(f"alpha must be positive, got {alpha}")
        self._alpha = alpha
        self._backend = "armijo"
        self._minimizer = ArmijoGradientDescent(max_iterations, gradient_tolerance)

    @property
    def alpha(self) -> float:
        """The damping constant."""
        return self._alpha

    def optimize(
        self,
        objective: DiverseDensityObjective,
        t0: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> SchemeResult:
        n = objective.n_dims
        s0 = np.sqrt(self._initial_weights(objective, w0))
        z0 = np.concatenate([np.asarray(t0, dtype=np.float64).reshape(-1), s0])

        def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad_t, grad_s = objective.value_and_grad_squared(
                z[:n], z[n:], alpha=self._alpha
            )
            return value, np.concatenate([grad_t, grad_s])

        outcome = self._minimizer.minimize(fun, z0)
        s = outcome.x[n:]
        return SchemeResult(
            t=outcome.x[:n],
            w=s * s,
            value=outcome.value,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
        )

    def describe(self) -> str:
        return f"{self.name}(alpha={self._alpha:g})"


class InequalityScheme(WeightScheme):
    """Box-bounded weights with a sum floor (Section 3.6.3).

    Args:
        beta: constraint level; ``sum(w) >= beta * n`` with ``0 <= w <= 1``.
        backend: ``"projected"`` (projected gradient, default) or ``"slsqp"``
            (scipy SQP, the closest relative of the thesis's CFSQP).
    """

    name = "inequality"

    def __init__(
        self,
        beta: float = 0.5,
        max_iterations: int = 150,
        gradient_tolerance: float = 1e-6,
        backend: str = "projected",
    ) -> None:
        super().__init__(max_iterations, gradient_tolerance)
        if not 0.0 <= beta <= 1.0:
            raise TrainingError(f"beta must lie in [0, 1], got {beta}")
        self._beta = beta
        self._backend = backend
        if backend == "projected":
            self._solver: ProjectedGradientDescent | SLSQPBackend = ProjectedGradientDescent(
                beta, max_iterations, gradient_tolerance
            )
        elif backend == "slsqp":
            self._solver = SLSQPBackend(beta, max_iterations)
        else:
            raise TrainingError(
                f"unknown inequality backend {backend!r}; known: 'projected', 'slsqp'"
            )

    @property
    def beta(self) -> float:
        """The constraint level."""
        return self._beta

    def optimize(
        self,
        objective: DiverseDensityObjective,
        t0: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> SchemeResult:
        w_start = self._initial_weights(objective, w0)
        outcome = self._solver.minimize(
            objective.value_and_grad, np.asarray(t0, dtype=np.float64).reshape(-1), w_start
        )
        return SchemeResult(
            t=outcome.t,
            w=outcome.w,
            value=outcome.value,
            n_iterations=outcome.n_iterations,
            converged=outcome.converged,
        )

    def describe(self) -> str:
        return f"{self.name}(beta={self._beta:g})"


def make_scheme(
    name: str,
    beta: float = 0.5,
    alpha: float = 50.0,
    max_iterations: int = 150,
    gradient_tolerance: float = 1e-6,
    backend: str | None = None,
) -> WeightScheme:
    """Factory for the four schemes by name.

    Args:
        name: ``"original"``, ``"identical"``, ``"alpha_hack"`` or
            ``"inequality"``.
        beta: constraint level, only used by ``"inequality"``.
        alpha: damping constant, only used by ``"alpha_hack"``.
        max_iterations: solver iteration cap.
        gradient_tolerance: solver stopping tolerance.
        backend: optional solver backend override (scheme-specific).

    Raises:
        TrainingError: for an unknown scheme name.
    """
    if name == "original":
        return OriginalDDScheme(max_iterations, gradient_tolerance, backend or "lbfgs")
    if name == "identical":
        return IdenticalWeightsScheme(max_iterations, gradient_tolerance, backend or "lbfgs")
    if name == "alpha_hack":
        return AlphaHackScheme(alpha, max_iterations, gradient_tolerance)
    if name == "inequality":
        return InequalityScheme(beta, max_iterations, gradient_tolerance, backend or "projected")
    raise TrainingError(
        f"unknown weight scheme {name!r}; known: 'original', 'identical', "
        "'alpha_hack', 'inequality'"
    )
