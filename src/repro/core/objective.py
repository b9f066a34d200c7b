"""The Diverse Density objective (Section 2.2), single-start and batched.

Diverse Density at a point ``t`` with per-dimension weights ``w`` is

    DD(t, w) = prod_i Pr(t | B+_i) * prod_i Pr(t | B-_i)

under the noisy-or model

    Pr(t | B+_i) = 1 - prod_j (1 - Pr(B+_ij = t))
    Pr(t | B-_i) =     prod_j (1 - Pr(B-_ij = t))
    Pr(B_ij = t) = exp(-||B_ij - t||^2_w),
    ||x - t||^2_w = sum_k w_k (x_k - t_k)^2.

We minimise the negative log, ``NLL = -log DD``, which decomposes over bags.

Multi-restart training evaluates this objective at many concepts per
descent step, so the primary implementation here is *batched*:
:class:`BatchedDiverseDensityObjective` takes ``R`` concept points ``T``
(shape ``(R, d)``) and weights ``W`` at once and returns ``R`` values and
gradients.  It keeps the positive and negative instances in one stacked
``(n_instances, d)`` matrix, so an evaluation builds one ``(R, n_instances)``
distance tensor with the same cached-squares expansion used by
:class:`~repro.core.retrieval.PackedCorpus`:

    d2[r, j] = (x_j * x_j) . W[r] - 2 x_j . (W[r] * T[r]) + (W[r] * T[r]) . T[r]

and slices the positive and negative columns for the noisy-or sums.  The
gradients then take one ``C . x`` contraction, plus one ``C . x^2`` for the
weight gradient.  The identical-weights scheme evaluates through
``value_and_grad_unit``: at ``W = 1`` the first term is a precomputed
``||x_j||^2`` and there is no weight gradient, which leaves two einsums per
evaluation instead of five, with the bits of ``value_and_grad(T, ones)``.

:class:`DiverseDensityObjective` — the historical single-start interface —
is a thin ``R = 1`` view over the batched objective, so a per-start solve and
a lockstep restart share bit-identical arithmetic.

Gradient derivation (used below): with ``d2_j = ||x_j - t||^2_w`` and
``p_j = exp(-d2_j)``, every bag contributes per-instance coefficients

    positive bag i:  c_j = (Q_i / P_i) * p_j / (1 - p_j),
                     Q_i = prod(1 - p_j),  P_i = 1 - Q_i
    negative bag i:  c_j = -p_j / (1 - p_j)

and then

    dNLL/dw_k = sum_j c_j (x_jk - t_k)^2
    dNLL/dt_k = 2 w_k sum_j c_j (t_k - x_jk).

The paper optimises weights through the substitution ``w_k = s_k^2`` to keep
them non-negative; ``value_and_grad_squared`` exposes that parametrisation
(including the "alpha hack" of Section 3.6.2, which divides the weight
gradient by a constant ``alpha``).

A note on determinism: every reduction in this module is *restart-slice
stable* — evaluating a subset of restarts (down to a single one) produces
bit-identical rows to evaluating the full batch.  That is why the
contractions use :func:`numpy.einsum` (whose per-row accumulation order is
independent of the batch composition) rather than BLAS matrix products
(whose blocking is not).  Lockstep training relies on this: each restart
gets the bits it would get running alone.
"""

from __future__ import annotations

import numpy as np

from repro.bags.bag import BagSet
from repro.errors import TrainingError

#: Instance probabilities are clamped into [0, 1 - _P_EPS] so that a bag
#: sitting exactly on ``t`` does not produce an infinite negative-bag NLL.
_P_EPS = 1e-12
#: Bag probabilities are floored at this value before taking logs.
_LOG_FLOOR = 1e-300


def batched_weighted_distances(
    x: np.ndarray, x_squared: np.ndarray, t: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Weighted squared distances of every instance to every concept.

    Args:
        x: ``(n, d)`` stacked instances.
        x_squared: ``x * x``, precomputed once per training run.
        t: ``(R, d)`` concept points.
        w: ``(R, d)`` non-negative weights.

    Returns:
        ``(R, n)`` tensor ``d2[r, j] = sum_k w[r, k] (x[j, k] - t[r, k])^2``
        via the cached-squares expansion.  Tiny negative values can appear
        through cancellation; callers clamp the derived probabilities.
    """
    wt = w * t
    d2 = np.einsum("rd,nd->rn", w, x_squared)
    d2 -= 2.0 * np.einsum("rd,nd->rn", wt, x)
    d2 += np.einsum("rd,rd->r", wt, t)[:, None]
    return d2


class BatchedDiverseDensityObjective:
    """Vectorised noisy-or negative-log Diverse Density for ``R`` restarts.

    Args:
        bag_set: the labelled bags; must contain at least one positive bag.

    The objective is stateless after construction; it can be shared across
    restarts and schemes.  All evaluation methods accept ``(R, d)``
    concept/weight matrices for any ``R >= 1``.
    """

    def __init__(self, bag_set: BagSet) -> None:
        bag_set.validate_for_training()
        self._n_dims = bag_set.n_dims
        pos_x, pos_bounds = bag_set.stacked(label=True)
        neg_x, neg_bounds = bag_set.stacked(label=False)
        # One instance matrix: positive rows first, then negative rows.  Every
        # evaluation builds one distance tensor over it and slices the two
        # sides' columns for the noisy-or sums.
        self._x = np.concatenate([pos_x, neg_x])
        self._n_pos = pos_x.shape[0]
        # Cached squares: the expansion evaluates x*x once per training run
        # instead of (x - t)^2 once per restart per step.
        self._x_sq = self._x * self._x
        # ``||x_j||^2`` for the unit-weight path, reduced by the same einsum
        # as ``w . x^2`` so that path has the bits of ``w = 1``.
        self._sq_norms = np.einsum(
            "rd,nd->rn", np.ones((1, self._n_dims)), self._x_sq
        )[0]
        self._n_pos_bags = len(pos_bounds) - 1
        self._n_neg_bags = len(neg_bounds) - 1
        self._pos_starts = pos_bounds[:-1]
        self._neg_starts = neg_bounds[:-1]
        # Map every positive instance column to its bag index.
        self._pos_bag_of = np.repeat(np.arange(self._n_pos_bags), np.diff(pos_bounds))

    @property
    def n_dims(self) -> int:
        """Feature dimensionality."""
        return self._n_dims

    @property
    def n_positive_bags(self) -> int:
        """Number of positive bags in the objective."""
        return self._n_pos_bags

    @property
    def n_negative_bags(self) -> int:
        """Number of negative bags in the objective."""
        return self._n_neg_bags

    def _check(
        self, t: np.ndarray, w: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        if t.shape[1] != self._n_dims:
            raise TrainingError(f"expected {self._n_dims}-dim t, got {t.shape[1]}")
        if w is None:
            return t, None
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        if w.shape[1] != self._n_dims:
            raise TrainingError(f"expected {self._n_dims}-dim w, got {w.shape[1]}")
        if t.shape[0] != w.shape[0]:
            raise TrainingError(
                f"batch size mismatch: {t.shape[0]} concepts, {w.shape[0]} weight rows"
            )
        if np.any(w < 0):
            raise TrainingError("weights must be non-negative")
        return t, w

    def _probabilities(self, t: np.ndarray, w: np.ndarray | None) -> np.ndarray:
        """``(R, n)`` clamped ``p[r, j] = exp(-d2[r, j])``; ``w=None`` is unit weights."""
        if w is None:
            d2 = self._sq_norms - 2.0 * np.einsum("rd,nd->rn", t, self._x)
            d2 += np.einsum("rd,rd->r", t, t)[:, None]
        else:
            d2 = batched_weighted_distances(self._x, self._x_sq, t, w)
        d2 *= -1.0
        p = np.exp(d2, out=d2)
        np.clip(p, 0.0, 1.0 - _P_EPS, out=p)
        return p

    def value(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(R,)`` NLL values at the batch.  Lower is better."""
        values, _, _ = self._evaluate(*self._check(t, w), with_grad=False)
        return values

    def value_and_grad(
        self, t: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """NLL and gradients ``(values, grad_t, grad_w)``, each batched."""
        values, grad_t, grad_w = self._evaluate(*self._check(t, w), with_grad=True)
        assert grad_t is not None and grad_w is not None
        return values, grad_t, grad_w

    def value_and_grad_unit(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """NLL and ``grad_t`` at unit weights (the identical scheme).

        Bitwise equal to ``value_and_grad(t, ones)[:2]``, but it skips the
        ``w . x^2`` contraction (precomputed ``||x||^2`` instead) and the
        ``w``-gradient.
        """
        values, grad_t, _ = self._evaluate(*self._check(t, None), with_grad=True)
        assert grad_t is not None
        return values, grad_t

    def value_and_grad_squared(
        self, t: np.ndarray, s: np.ndarray, alpha: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """NLL and gradients under the ``w = s**2`` parametrisation.

        Args:
            t: ``(R, d)`` concept points.
            s: ``(R, d)`` signed square-root weights; effective weights are
                ``s**2``.
            alpha: the Section 3.6.2 hack — the weight gradient is divided
                by ``alpha``.  ``alpha = 1`` is the original algorithm.

        Returns:
            ``(values, grad_t, grad_s)``.
        """
        if alpha <= 0:
            raise TrainingError(f"alpha must be positive, got {alpha}")
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        values, grad_t, grad_w = self.value_and_grad(t, s * s)
        grad_s = grad_w * (2.0 * s) / alpha
        return values, grad_t, grad_s

    def bag_probabilities(
        self, t: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Noisy-or ``Pr(t|B)`` for (positive, negative) bags, batched.

        For positive bags this is ``1 - prod(1 - p_j)``; for negative bags
        ``prod(1 - p_j)`` — both as defined in Section 2.2.1.  Shapes are
        ``(R, n_positive_bags)`` and ``(R, n_negative_bags)``.
        """
        t, w = self._check(t, w)
        log1m = np.log1p(-self._probabilities(t, w))
        pos = -np.expm1(np.add.reduceat(log1m[:, : self._n_pos], self._pos_starts, axis=1))
        neg = np.ones((t.shape[0], self._n_neg_bags))
        if self._n_neg_bags:
            neg = np.exp(np.add.reduceat(log1m[:, self._n_pos :], self._neg_starts, axis=1))
        return pos, neg

    def _evaluate(
        self, t: np.ndarray, w: np.ndarray | None, with_grad: bool
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(values, grad_t, grad_w)``; the gradients are ``None`` without
        ``with_grad``, and ``grad_w`` is ``None`` at unit weights (``w=None``)."""
        p = self._probabilities(t, w)
        log1m = np.log1p(-p)
        n_pos = self._n_pos

        # Positive bags: -sum_i log(1 - prod_j (1 - p_j)).
        log_q = np.add.reduceat(log1m[:, :n_pos], self._pos_starts, axis=1)
        bag_p = np.maximum(-np.expm1(log_q), _LOG_FLOOR)  # P_i = 1 - Q_i
        values = -np.log(bag_p).sum(axis=1)
        # Negative bags: -sum_ij log(1 - p_j).
        if p.shape[1] > n_pos:
            values -= log1m[:, n_pos:].sum(axis=1)
        if not with_grad:
            return values, None, None

        # Per-instance coefficients c_j, then the expanded forms
        #   sum_j c_j (x_j - t)^2 = C.x² - 2 t (C.x) + t² (C.1)
        #   sum_j c_j (x_j - t)   = C.x  - t (C.1)
        # so the contractions stay restart-slice stable.
        coeff = p / (1.0 - p)
        coeff[:, :n_pos] *= (np.exp(log_q) / bag_p)[:, self._pos_bag_of]  # Q_i / P_i
        # ``*= -1.0``: numpy 2.4's ``np.negative(v, out=v)`` misreads a
        # one-column strided view as contiguous.
        coeff[:, n_pos:] *= -1.0
        cx = np.einsum("rn,nd->rd", coeff, self._x)
        csum = coeff.sum(axis=1)[:, None]
        if w is None:
            return values, -2.0 * (cx - t * csum), None
        cx2 = np.einsum("rn,nd->rd", coeff, self._x_sq)
        grad_w = cx2 - 2.0 * t * cx + t * t * csum
        grad_t = -2.0 * w * (cx - t * csum)
        return values, grad_t, grad_w


class DiverseDensityObjective:
    """Single-start view over :class:`BatchedDiverseDensityObjective`.

    Args:
        bag_set: the labelled bags; must contain at least one positive bag.

    This is the historical scalar interface consumed by the per-start
    weight schemes and solvers; it evaluates through the batched objective
    with ``R = 1`` so per-start and lockstep solves share identical
    arithmetic.
    """

    def __init__(self, bag_set: BagSet) -> None:
        self._batched = BatchedDiverseDensityObjective(bag_set)

    @property
    def batched(self) -> BatchedDiverseDensityObjective:
        """The underlying batched objective (shared, stateless)."""
        return self._batched

    @property
    def n_dims(self) -> int:
        """Feature dimensionality."""
        return self._batched.n_dims

    @property
    def n_positive_bags(self) -> int:
        """Number of positive bags in the objective."""
        return self._batched.n_positive_bags

    @property
    def n_negative_bags(self) -> int:
        """Number of negative bags in the objective."""
        return self._batched.n_negative_bags

    @staticmethod
    def _as_row(vector: np.ndarray) -> np.ndarray:
        return np.asarray(vector, dtype=np.float64).reshape(1, -1)

    def value(self, t: np.ndarray, w: np.ndarray) -> float:
        """NLL at ``(t, w)``.  Lower is better (higher Diverse Density)."""
        return float(self._batched.value(self._as_row(t), self._as_row(w))[0])

    def value_and_grad(
        self, t: np.ndarray, w: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """NLL and its gradients ``(value, grad_t, grad_w)`` at ``(t, w)``."""
        values, grad_t, grad_w = self._batched.value_and_grad(
            self._as_row(t), self._as_row(w)
        )
        return float(values[0]), grad_t[0], grad_w[0]

    def value_and_grad_unit(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """NLL and ``grad_t`` at ``(t, ones)``; see the batched method."""
        values, grad_t = self._batched.value_and_grad_unit(self._as_row(t))
        return float(values[0]), grad_t[0]

    def value_and_grad_squared(
        self, t: np.ndarray, s: np.ndarray, alpha: float = 1.0
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """NLL and gradients under the ``w = s**2`` parametrisation.

        Args:
            t: concept point.
            s: signed square-root weights; effective weights are ``s**2``.
            alpha: the Section 3.6.2 hack — the weight gradient is divided by
                ``alpha``.  ``alpha = 1`` is the original algorithm; large
                ``alpha`` freezes the weights (``alpha = inf`` is equivalent
                to the identical-weights scheme).

        Returns:
            ``(value, grad_t, grad_s)``.
        """
        values, grad_t, grad_s = self._batched.value_and_grad_squared(
            self._as_row(t), self._as_row(s), alpha=alpha
        )
        return float(values[0]), grad_t[0], grad_s[0]

    def bag_probabilities(
        self, t: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Noisy-or probabilities ``Pr(t|B)`` for (positive, negative) bags."""
        pos, neg = self._batched.bag_probabilities(
            self._as_row(t), self._as_row(w)
        )
        return pos[0], neg[0]
