"""The learned concept: an ``(t, w)`` pair plus scoring utilities.

The Diverse Density trainer returns a :class:`LearnedConcept` — the "ideal"
feature point ``t`` and the per-dimension weights ``w`` that maximise Diverse
Density.  Retrieval (Section 3.5) scores an image by the *minimum* weighted
Euclidean distance of its instances to ``t``; smaller distance means a
closer match to the user's concept.

The concept also exposes the weight-distribution statistics used in the
Figure 3-7/3-8/3-9 discussion (how concentrated the learned weights are) and
round-trip serialisation for persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bags.bag import Bag
from repro.errors import TrainingError


@dataclass(frozen=True)
class WeightProfile:
    """Summary of how a weight vector distributes its mass.

    Attributes:
        total: sum of the weights.
        mean: average weight.
        max: largest weight.
        fraction_near_zero: share of weights below 5% of the maximum — the
            paper's qualitative "most weights pushed to zero" measure.
        entropy: Shannon entropy (nats) of the weight distribution,
            normalised to ``[0, 1]`` by ``log(n)``; 1 means perfectly even.
    """

    total: float
    mean: float
    max: float
    fraction_near_zero: float
    entropy: float


@dataclass(frozen=True)
class LearnedConcept:
    """An immutable learned concept.

    Attributes:
        t: the concept point in feature space.
        w: non-negative per-dimension weights.
        nll: negative log Diverse Density achieved at ``(t, w)``.
        scheme: name of the weight scheme that produced the concept.
        metadata: free-form extras (training time, start counts, ...).
    """

    t: np.ndarray
    w: np.ndarray
    nll: float
    scheme: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Own copies: a concept taken from a row of a restart matrix must not
        # keep the whole matrix alive in caches and sessions.
        t = np.asarray(self.t, dtype=np.float64).reshape(-1).copy()
        w = np.asarray(self.w, dtype=np.float64).reshape(-1).copy()
        if t.size == 0 or t.size != w.size:
            raise TrainingError(
                f"concept requires matching non-empty t and w, got {t.size} and {w.size}"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
            raise TrainingError("concept contains non-finite values")
        if np.any(w < 0):
            raise TrainingError("concept weights must be non-negative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "w", w)

    @property
    def n_dims(self) -> int:
        """Feature dimensionality."""
        return self.t.size

    # ------------------------------------------------------------------ #
    # Scoring                                                             #
    # ------------------------------------------------------------------ #

    def instance_distances(self, instances: np.ndarray) -> np.ndarray:
        """Weighted squared distances of instance rows to the concept point."""
        matrix = np.asarray(instances, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.shape[1] != self.n_dims:
            raise TrainingError(
                f"instances have {matrix.shape[1]} dims, concept has {self.n_dims}"
            )
        diff = matrix - self.t
        return (diff * diff) @ self.w

    def bag_distance(self, bag: Bag | np.ndarray) -> float:
        """Image-to-concept distance: the minimum over instance distances.

        This is exactly the ranking score of Section 3.5 ("computes the
        distances of all of its instances to the point, and then picks the
        smallest one").
        """
        instances = bag.instances if isinstance(bag, Bag) else bag
        return float(self.instance_distances(instances).min())

    def best_instance(self, bag: Bag | np.ndarray) -> int:
        """Index of the instance closest to the concept (the "right" region)."""
        instances = bag.instances if isinstance(bag, Bag) else bag
        return int(self.instance_distances(instances).argmin())

    def bag_probability(self, bag: Bag | np.ndarray) -> float:
        """Noisy-or probability that the bag matches the concept."""
        instances = bag.instances if isinstance(bag, Bag) else bag
        distances = self.instance_distances(instances)
        log_q = float(np.log1p(-np.clip(np.exp(-distances), 0.0, 1.0 - 1e-12)).sum())
        return float(-np.expm1(log_q))

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def weight_profile(self, near_zero_fraction: float = 0.05) -> WeightProfile:
        """Summarise the weight distribution (Figures 3-7 .. 3-9).

        Args:
            near_zero_fraction: weights below this fraction of the maximum
                count as "near zero".
        """
        w = self.w
        total = float(w.sum())
        w_max = float(w.max())
        if w_max <= 0.0:
            return WeightProfile(
                total=0.0, mean=0.0, max=0.0, fraction_near_zero=1.0, entropy=0.0
            )
        near_zero = float(np.mean(w < near_zero_fraction * w_max))
        probabilities = w / total
        nonzero = probabilities[probabilities > 0]
        raw_entropy = float(-(nonzero * np.log(nonzero)).sum())
        normalizer = np.log(w.size) if w.size > 1 else 1.0
        return WeightProfile(
            total=total,
            mean=total / w.size,
            max=w_max,
            fraction_near_zero=near_zero,
            entropy=raw_entropy / normalizer,
        )

    def as_matrices(self, resolution: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Reshape ``t`` and ``w`` to ``h x h`` matrices for display.

        Args:
            resolution: the ``h``; inferred as ``sqrt(n_dims)`` when omitted.

        Raises:
            TrainingError: if ``n_dims`` is not a perfect square and no
                resolution was supplied, or the resolution does not match.
        """
        if resolution is None:
            resolution = int(round(np.sqrt(self.n_dims)))
        if resolution * resolution != self.n_dims:
            raise TrainingError(
                f"cannot reshape {self.n_dims}-dim concept to {resolution}x{resolution}"
            )
        shape = (resolution, resolution)
        return self.t.reshape(shape), self.w.reshape(shape)

    # ------------------------------------------------------------------ #
    # Serialisation                                                       #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-Python representation (JSON-compatible)."""
        return {
            "t": self.t.tolist(),
            "w": self.w.tolist(),
            "nll": self.nll,
            "scheme": self.scheme,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LearnedConcept":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                t=np.asarray(payload["t"], dtype=np.float64),
                w=np.asarray(payload["w"], dtype=np.float64),
                nll=float(payload["nll"]),
                scheme=str(payload.get("scheme", "")),
                metadata=dict(payload.get("metadata", {})),
            )
        except KeyError as exc:
            raise TrainingError(f"concept payload missing key {exc}") from exc
