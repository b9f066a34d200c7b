"""EM-DD: expectation-maximisation Diverse Density (post-paper extension).

The paper's training cost is dominated by the noisy-or objective, whose
every evaluation touches *all* instances of *all* bags.  EM-DD (Zhang &
Goldman, NIPS 2001) — the best-known successor to the Diverse Density
algorithm this paper builds on — replaces the noisy-or with an
expectation-maximisation loop:

* **E-step**: with the current concept ``(t, w)``, select from every bag the
  single instance most likely to be the bag's representative (the closest
  one under the weighted distance);
* **M-step**: maximise the *single-instance* DD objective — each bag
  reduced to its representative — which is far cheaper and smoother;
* iterate until the selected representatives stop changing or the NLL
  stops improving.

The result is a drop-in alternative trainer with the same inputs and
outputs as :class:`~repro.core.diverse_density.DiverseDensityTrainer`.
Every restart's EM loop runs in lockstep: the E-step distances of all
still-active restarts come from one ``(R, n_instances)`` tensor, and the
final full-objective refinement scores (which make EM-DD concepts
comparable with plain DD concepts) are evaluated for the whole restart
population in a single batched call.  ``restart_prune_margin`` freezes
restarts whose reduced NLL trails the incumbent best.  M-steps operate on
per-restart reduced bag sets and run ``scheme.optimize`` per restart, so
with pruning off every restart has the bits of its EM loop run alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bags.bag import Bag, BagSet
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import (
    ExtraStart,
    StartRecord,
    TrainingResult,
    select_restart_points,
)
from repro.core.objective import (
    BatchedDiverseDensityObjective,
    DiverseDensityObjective,
    batched_weighted_distances,
)
from repro.core.optimizer import RestartMasks
from repro.core.schemes import WeightScheme, make_scheme
from repro.errors import TrainingError


@dataclass(frozen=True)
class EMDDConfig:
    """Configuration of the EM-DD trainer.

    Attributes:
        inner_scheme: weight treatment used in each M-step (any of the four
            paper schemes by name, or a scheme object).
        beta / alpha: forwarded to the named scheme.
        max_em_iterations: cap on E/M alternations per restart.
        tolerance: stop when the NLL improves by less than this.
        max_inner_iterations: per-M-step solver cap.
        start_bag_subset: positive-bag restart subset (Section 4.3 carries
            over unchanged).
        start_instance_stride: restart thinning within each start bag.
        seed: RNG seed for the subset choice.
        restart_prune_margin: freeze a restart whose reduced NLL trails the
            incumbent best by more than this margin; ``None`` disables
            pruning.
    """

    inner_scheme: WeightScheme | str = "identical"
    beta: float = 0.5
    alpha: float = 50.0
    max_em_iterations: int = 10
    tolerance: float = 1e-6
    max_inner_iterations: int = 60
    start_bag_subset: int | None = None
    start_instance_stride: int = 1
    seed: int = 0
    restart_prune_margin: float | None = None

    def __post_init__(self) -> None:
        if self.max_em_iterations < 1:
            raise TrainingError(
                f"max_em_iterations must be >= 1, got {self.max_em_iterations}"
            )
        if self.tolerance < 0:
            raise TrainingError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.start_instance_stride < 1:
            raise TrainingError(
                f"start_instance_stride must be >= 1, got {self.start_instance_stride}"
            )
        if self.restart_prune_margin is not None and self.restart_prune_margin < 0:
            raise TrainingError(
                f"restart_prune_margin must be >= 0 or None, got {self.restart_prune_margin}"
            )

    def resolve_scheme(self) -> WeightScheme:
        """The M-step scheme object."""
        if isinstance(self.inner_scheme, WeightScheme):
            return self.inner_scheme
        return make_scheme(
            self.inner_scheme,
            beta=self.beta,
            alpha=self.alpha,
            max_iterations=self.max_inner_iterations,
        )

    def fingerprint(self) -> str:
        """Stable identity string for concept-cache keys."""
        scheme = self.resolve_scheme()
        return "|".join(
            [
                "emdd",
                f"scheme={scheme.fingerprint()}",
                f"em={self.max_em_iterations}",
                f"tol={self.tolerance:g}",
                f"subset={self.start_bag_subset}",
                f"stride={self.start_instance_stride}",
                f"seed={self.seed}",
                f"prune={self.restart_prune_margin}",
            ]
        )


class EMDDTrainer:
    """EM-DD with multi-restart, mirroring the DD trainer's interface."""

    def __init__(self, config: EMDDConfig | None = None) -> None:
        self._config = config or EMDDConfig()
        self._scheme = self._config.resolve_scheme()

    @property
    def config(self) -> EMDDConfig:
        """The trainer configuration."""
        return self._config

    @property
    def fingerprint(self) -> str:
        """Concept-cache identity of this trainer (see ``EMDDConfig``)."""
        return self._config.fingerprint()

    def train(
        self, bag_set: BagSet, extra_starts: Sequence[ExtraStart] = ()
    ) -> TrainingResult:
        """Run EM-DD from every configured restart; keep the best concept.

        Args:
            bag_set: the labelled example bags.
            extra_starts: additional ``(t, w)`` seeds appended after the
                positive-instance restarts.

        Raises:
            BagError: if the set has no positive bag.
            TrainingError: if an extra start is malformed (see
                :func:`~repro.core.diverse_density.select_restart_points`)
                or no restart produced a finite optimum.
        """
        bag_set.validate_for_training()
        started_at = time.perf_counter()
        full_objective = BatchedDiverseDensityObjective(bag_set)
        starts = select_restart_points(
            bag_set,
            subset=self._config.start_bag_subset,
            stride=self._config.start_instance_stride,
            seed=self._config.seed,
            extra_starts=extra_starts,
        )

        records, best = self._train_lockstep(bag_set, full_objective, starts)
        if best is None:
            raise TrainingError("no EM-DD restart produced a finite optimum")
        n_pruned = sum(1 for record in records if record.pruned)
        elapsed = time.perf_counter() - started_at
        nll, t, w = best
        concept = LearnedConcept(
            t=t,
            w=w,
            nll=nll,
            scheme=f"emdd({self._scheme.describe()})",
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

    def _train_lockstep(
        self,
        bag_set: BagSet,
        full_objective: BatchedDiverseDensityObjective,
        starts: list[tuple[str, int, np.ndarray, np.ndarray | None]],
    ) -> tuple[list[StartRecord], tuple[float, np.ndarray, np.ndarray] | None]:
        """All restarts' EM loops in lockstep with batched E-steps."""
        n_dims = bag_set.n_dims
        n_restarts = len(starts)
        all_x, spans = self._stacked_bags(bag_set)
        all_sq = all_x * all_x

        t = np.vstack([t0 for _, _, t0, _ in starts])
        w = np.ones((n_restarts, n_dims))
        for row, (_, _, _, w0) in enumerate(starts):
            if w0 is not None:
                w[row] = w0

        masks = RestartMasks(n_restarts, self._config.max_em_iterations)
        reduced_nll = np.full(n_restarts, np.inf)
        previous_selection: list[tuple[int, ...] | None] = [None] * n_restarts
        total_inner = np.zeros(n_restarts, dtype=np.int64)

        for iteration in range(self._config.max_em_iterations):
            rows = np.flatnonzero(masks.active)
            if rows.size == 0:
                break
            # Batched E-step: one distance tensor for every active restart.
            d2 = batched_weighted_distances(all_x, all_sq, t[rows], w[rows])
            chosen = np.stack(
                [d2[:, s:e].argmin(axis=1) for s, e in spans], axis=1
            )
            # M-steps stay per restart: every restart owns its own reduced
            # bag set, so there is no shared tensor to batch over.
            for local, row in enumerate(rows):
                selection = tuple(int(v) for v in chosen[local])
                reduced = self._reduced_bag_set(bag_set, selection)
                objective = DiverseDensityObjective(reduced)
                result = self._scheme.optimize(objective, t[row], w0=w[row])
                total_inner[row] += result.n_iterations
                t[row], w[row] = result.t, result.w
                improved = reduced_nll[row] - result.value > self._config.tolerance
                stable = selection == previous_selection[row]
                reduced_nll[row] = result.value
                previous_selection[row] = selection
                if stable or not improved:
                    masks.active[row] = False
            masks.prune(reduced_nll, iteration, self._config.restart_prune_margin)

        # Batched DD refinement scoring: one full-objective pass ranks the
        # whole restart population on the comparable noisy-or NLL.
        full_values = full_objective.value(t, w)
        records: list[StartRecord] = []
        best: tuple[float, np.ndarray, np.ndarray] | None = None
        for row, (bag_id, instance_index, _, _) in enumerate(starts):
            full_nll = float(full_values[row])
            records.append(
                StartRecord(
                    bag_id=bag_id,
                    instance_index=instance_index,
                    value=full_nll,
                    n_iterations=int(total_inner[row]),
                    converged=not masks.pruned[row],
                    pruned=bool(masks.pruned[row]),
                )
            )
            if np.isfinite(full_nll) and (best is None or full_nll < best[0]):
                best = (full_nll, t[row].copy(), w[row].copy())
        return records, best

    @staticmethod
    def _stacked_bags(bag_set: BagSet) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """All bags' instances stacked in insertion order, plus bag spans."""
        matrices = [bag.instances for bag in bag_set.bags]
        spans: list[tuple[int, int]] = []
        offset = 0
        for matrix in matrices:
            spans.append((offset, offset + matrix.shape[0]))
            offset += matrix.shape[0]
        return np.vstack(matrices), spans

    @staticmethod
    def _reduced_bag_set(bag_set: BagSet, selection: tuple[int, ...]) -> BagSet:
        """M-step input: every bag reduced to its representative instance."""
        reduced = BagSet()
        for bag, index in zip(bag_set.bags, selection):
            reduced.add(
                Bag(
                    instances=bag.instances[index : index + 1],
                    label=bag.label,
                    bag_id=bag.bag_id,
                )
            )
        return reduced
