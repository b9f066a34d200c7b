"""Multi-restart Diverse Density training (Sections 2.2.2 and 4.3).

Finding the global maximum of Diverse Density is hard, so the original
algorithm hill-climbs from *every instance of every positive bag* and keeps
the best local optimum.  Section 4.3 shows that starting from the instances
of only a subset of the positive bags (2 or 3 out of 5) loses little
performance while cutting training time; :class:`TrainerConfig` exposes both
that subset size and an optional per-bag instance stride for further
thinning.

The restart population runs through :func:`~repro.core.engine.run_batched_scheme`:
all restarts descend together, one batched objective evaluation per step,
with converged restarts masked out and — when ``restart_prune_margin`` is
set — hopeless restarts frozen as soon as they trail the incumbent best by
more than the margin (the Section 4.3 thinning applied dynamically rather
than only by start subset).  Every restart has the bits of its scheme's
solver run on that start alone.  Schemes with no lockstep solver (the
inequality scheme's SLSQP backend, custom schemes) run one start at a time.

:class:`DiverseDensityTrainer` wires together the objective, a weight scheme
and the restart strategy, and returns a :class:`TrainingResult` carrying the
best :class:`~repro.core.concept.LearnedConcept` plus per-start diagnostics
(including each restart's pruning status).  :meth:`DiverseDensityTrainer.train`
also accepts *extra starts* — arbitrary ``(t, w)`` seeds appended to the
restart population, used by the feedback loop to warm-start each round at
the previous round's concept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bags.bag import BagSet
from repro.core.concept import LearnedConcept
from repro.core.engine import run_batched_scheme
from repro.core.objective import DiverseDensityObjective
from repro.core.schemes import WeightScheme, make_scheme
from repro.errors import TrainingError


@dataclass(frozen=True)
class TrainerConfig:
    """Configuration of the multi-restart trainer.

    Attributes:
        scheme: a :class:`WeightScheme` instance or a scheme name for
            :func:`~repro.core.schemes.make_scheme`.
        beta: constraint level (used when ``scheme`` is ``"inequality"``).
        alpha: damping constant (used when ``scheme`` is ``"alpha_hack"``).
        max_iterations: per-start solver iteration cap.
        start_bag_subset: number of positive bags whose instances seed
            restarts; ``None`` uses all (the original algorithm).  The
            Section 4.3 speed-up corresponds to 2 or 3 out of 5.
        start_instance_stride: take every ``k``-th instance of each chosen
            start bag (1 keeps all).
        seed: RNG seed for the start-bag subset choice.
        restart_prune_margin: freeze a restart as soon as its current value
            trails the incumbent best by more than this margin; ``None``
            disables pruning (and is required for every restart to match
            its solver run alone).  Ignored by schemes with no lockstep
            solver (SLSQP, custom).
    """

    scheme: WeightScheme | str = "inequality"
    beta: float = 0.5
    alpha: float = 50.0
    max_iterations: int = 100
    start_bag_subset: int | None = None
    start_instance_stride: int = 1
    seed: int = 0
    restart_prune_margin: float | None = None

    def __post_init__(self) -> None:
        if self.start_bag_subset is not None and self.start_bag_subset < 1:
            raise TrainingError(
                f"start_bag_subset must be >= 1 or None, got {self.start_bag_subset}"
            )
        if self.start_instance_stride < 1:
            raise TrainingError(
                f"start_instance_stride must be >= 1, got {self.start_instance_stride}"
            )
        if self.restart_prune_margin is not None and self.restart_prune_margin < 0:
            raise TrainingError(
                f"restart_prune_margin must be >= 0 or None, got {self.restart_prune_margin}"
            )

    def resolve_scheme(self) -> WeightScheme:
        """Return the configured scheme object (building it if named)."""
        if isinstance(self.scheme, WeightScheme):
            return self.scheme
        return make_scheme(
            self.scheme,
            beta=self.beta,
            alpha=self.alpha,
            max_iterations=self.max_iterations,
        )

    def fingerprint(self) -> str:
        """Stable identity string covering everything that shapes a concept.

        Two configurations with equal fingerprints produce bit-identical
        training results on equal bag sets, which is what the
        :class:`~repro.core.cache.ConceptCache` keys on.
        """
        scheme = self.resolve_scheme()
        return "|".join(
            [
                "dd",
                f"scheme={scheme.fingerprint()}",
                f"subset={self.start_bag_subset}",
                f"stride={self.start_instance_stride}",
                f"seed={self.seed}",
                f"prune={self.restart_prune_margin}",
            ]
        )


@dataclass(frozen=True)
class ExtraStart:
    """One additional restart seed appended to the positive-instance starts.

    Attributes:
        t: the starting concept point.
        w: optional starting effective weights (all ones when ``None``).
        label: recorded as the start's ``bag_id`` in the diagnostics.
    """

    t: np.ndarray
    w: np.ndarray | None = None
    label: str = "warm-start"


@dataclass(frozen=True)
class StartRecord:
    """Diagnostics for one restart.

    Attributes:
        bag_id: the positive bag (or extra-start label) that seeded it.
        instance_index: index of the seeding instance (-1 for extra starts).
        value: final NLL reached (the value at freeze time when pruned).
        n_iterations: solver iterations consumed.
        converged: whether the solver's stopping criterion was met.
        pruned: whether the trainer froze this restart early because
            it trailed the incumbent best by more than the prune margin.
    """

    bag_id: str
    instance_index: int
    value: float
    n_iterations: int
    converged: bool
    pruned: bool = False


@dataclass(frozen=True)
class TrainingResult:
    """Everything the trainer learned.

    Attributes:
        concept: the best ``(t, w)`` found across restarts.
        starts: per-restart diagnostics, in execution order.
        n_starts: number of restarts executed.
        elapsed_seconds: wall-clock training time.
        n_starts_pruned: restarts frozen early by the prune margin.
    """

    concept: LearnedConcept
    starts: tuple[StartRecord, ...] = field(default=())
    n_starts: int = 0
    elapsed_seconds: float = 0.0
    n_starts_pruned: int = 0

    @property
    def wall_time_s(self) -> float:
        """Wall-clock training time in seconds (alias of ``elapsed_seconds``)."""
        return self.elapsed_seconds

    @property
    def best_start(self) -> StartRecord:
        """The restart that produced the best (lowest-NLL) concept."""
        if not self.starts:
            raise TrainingError("training result carries no start records")
        return min(self.starts, key=lambda record: record.value)


class DiverseDensityTrainer:
    """Multi-restart Diverse Density maximiser.

    Usage::

        trainer = DiverseDensityTrainer(TrainerConfig(scheme="inequality", beta=0.5))
        result = trainer.train(bag_set)
        concept = result.concept
    """

    def __init__(self, config: TrainerConfig | None = None) -> None:
        self._config = config or TrainerConfig()
        self._scheme = self._config.resolve_scheme()

    @property
    def config(self) -> TrainerConfig:
        """The trainer configuration."""
        return self._config

    @property
    def scheme(self) -> WeightScheme:
        """The resolved weight scheme."""
        return self._scheme

    @property
    def fingerprint(self) -> str:
        """Concept-cache identity of this trainer (see ``TrainerConfig``)."""
        return self._config.fingerprint()

    def train(
        self, bag_set: BagSet, extra_starts: Sequence[ExtraStart] = ()
    ) -> TrainingResult:
        """Run all restarts on ``bag_set`` and keep the best concept.

        Args:
            bag_set: the labelled example bags.
            extra_starts: additional ``(t, w)`` seeds appended after the
                positive-instance restarts (e.g. a previous round's concept
                for warm-starting).

        Raises:
            BagError: if the set has no positive bag.
            TrainingError: if an extra start is malformed (see
                :func:`select_restart_points`) or no restart produced a
                finite optimum.
        """
        started_at = time.perf_counter()
        objective = DiverseDensityObjective(bag_set)
        starts = select_restart_points(
            bag_set,
            subset=self._config.start_bag_subset,
            stride=self._config.start_instance_stride,
            seed=self._config.seed,
            extra_starts=extra_starts,
        )
        n_dims = objective.n_dims
        t0 = np.vstack([t for _, _, t, _ in starts])
        # Unit weights as a broadcast view: no (R, d) block unless a start
        # brings its own weights.
        w0 = np.broadcast_to(np.ones(n_dims), (len(starts), n_dims))
        for row, (_, _, _, w_start) in enumerate(starts):
            if w_start is not None:
                if not w0.flags.writeable:
                    w0 = w0.copy()
                w0[row] = w_start
        outcome = run_batched_scheme(
            objective,
            self._scheme,
            t0,
            w0,
            prune_margin=self._config.restart_prune_margin,
        )

        records: list[StartRecord] = []
        best_row: int | None = None
        for row, (bag_id, instance_index, _, _) in enumerate(starts):
            value = float(outcome.values[row])
            records.append(
                StartRecord(
                    bag_id=bag_id,
                    instance_index=instance_index,
                    value=value,
                    n_iterations=int(outcome.n_iterations[row]),
                    converged=bool(outcome.converged[row]),
                    pruned=bool(outcome.pruned[row]),
                )
            )
            if np.isfinite(value) and (best_row is None or value < records[best_row].value):
                best_row = row
        if best_row is None:
            raise TrainingError("no restart produced a finite Diverse Density optimum")

        n_pruned = int(outcome.pruned.sum())
        elapsed = time.perf_counter() - started_at
        concept = LearnedConcept(
            t=outcome.t[best_row],
            w=outcome.w[best_row],
            nll=records[best_row].value,
            scheme=self._scheme.describe(),
            metadata={
                "n_starts": len(records),
                "n_starts_pruned": n_pruned,
                "elapsed_seconds": elapsed,
                "n_positive_bags": bag_set.n_positive,
                "n_negative_bags": bag_set.n_negative,
            },
        )
        return TrainingResult(
            concept=concept,
            starts=tuple(records),
            n_starts=len(records),
            elapsed_seconds=elapsed,
            n_starts_pruned=n_pruned,
        )


def select_restart_points(
    bag_set: BagSet,
    subset: int | None,
    stride: int,
    seed: int,
    extra_starts: Sequence[ExtraStart] = (),
) -> list[tuple[str, int, np.ndarray, np.ndarray | None]]:
    """The shared restart-selection policy of the DD and EM-DD trainers.

    Returns ``(bag_id, instance_index, t0, w0)`` tuples: every ``stride``-th
    instance of (a seeded ``subset`` of) the positive bags, followed by the
    ``extra_starts`` (index -1), each carrying its own optional starting
    weights.

    Raises:
        TrainingError: if the set holds no positive bag, or an extra start's
            point or weights do not have ``bag_set.n_dims`` entries, or its
            weights are negative.
    """
    positive = list(bag_set.positive_bags)
    if not positive:
        raise TrainingError("Diverse Density training requires at least one positive bag")
    if subset is not None and subset < len(positive):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(positive), size=subset, replace=False)
        positive = [positive[i] for i in sorted(chosen)]
    starts: list[tuple[str, int, np.ndarray, np.ndarray | None]] = []
    for bag in positive:
        for index in range(0, bag.n_instances, stride):
            starts.append((bag.bag_id, index, bag.instances[index].copy(), None))
    n_dims = bag_set.n_dims
    for extra in extra_starts:
        t = np.asarray(extra.t, dtype=np.float64).reshape(-1).copy()
        if t.size != n_dims:
            raise TrainingError(f"extra start point must have {n_dims} entries, got {t.size}")
        w = None
        if extra.w is not None:
            w = np.asarray(extra.w, dtype=np.float64).reshape(-1)
            if w.size != n_dims:
                raise TrainingError(
                    f"extra start weights must have {n_dims} entries, got {w.size}"
                )
            if np.any(w < 0):
                raise TrainingError("extra start weights must be non-negative")
        starts.append((extra.label, -1, t, w))
    return starts
