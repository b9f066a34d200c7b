"""Automatic beta selection (Chapter 5 future work).

The thesis: "the beta value in the inequality constraint affects performance
very much ... one might want to study how to choose beta automatically to
get optimal performance."  This module implements the natural protocol the
paper's own evaluation design suggests: the potential training set's labels
are known to the system (that is what simulates the user), so candidate
beta values can be *validated* on it — train with each beta, rank the
held-in potential set, and keep the beta with the best validation metric.
Only the winning beta is then used for the real test-set retrieval.

This uses no test-set information; it is exactly the model-selection move
the relevance-feedback protocol already licenses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bags.bag import Bag, BagSet
from repro.core.cache import ConceptCache
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.feedback import Corpus, ExampleSelection
from repro.core.retrieval import Ranker, packed_view
from repro.errors import TrainingError
from repro.eval.metrics import average_precision

#: Default beta grid, matching the coarse sweep of Figures 4-15..4-17.
DEFAULT_BETA_GRID: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class BetaCandidate:
    """Validation outcome for one beta value."""

    beta: float
    validation_ap: float
    nll: float


@dataclass(frozen=True)
class BetaSelection:
    """The chosen beta plus the full candidate record."""

    best_beta: float
    candidates: tuple[BetaCandidate, ...]

    @property
    def best(self) -> BetaCandidate:
        """The winning candidate."""
        for candidate in self.candidates:
            if candidate.beta == self.best_beta:
                return candidate
        raise TrainingError("selection lost its own winner")  # pragma: no cover


def select_beta(
    corpus: Corpus,
    selection: ExampleSelection,
    target_category: str,
    validation_ids: Sequence[str],
    betas: Sequence[float] = DEFAULT_BETA_GRID,
    max_iterations: int = 60,
    start_bag_subset: int | None = 2,
    start_instance_stride: int = 2,
    seed: int = 0,
    restart_prune_margin: float | None = None,
    cache: ConceptCache | None = None,
) -> BetaSelection:
    """Validate candidate betas on the potential training set.

    Args:
        corpus: the storage layer (database or feature adapter).
        selection: the initial positive/negative example images.
        target_category: the user's concept.
        validation_ids: ids whose labels may be consulted (the potential
            training set), used for ranking-quality validation.
        betas: candidate constraint levels.
        max_iterations / start_bag_subset / start_instance_stride / seed:
            trainer knobs (validation can afford the Section 4.3 speed-up).
        restart_prune_margin: optional dynamic restart thinning (the sweep
            only needs a winner, so aggressive pruning is usually safe).
        cache: optional trained-concept cache shared with other sweeps — a
            beta already validated on identical bags is never retrained.

    Returns:
        The best beta (ties break toward the larger, i.e. more constrained,
        value — the safer default per the paper's overfitting analysis) and
        all candidate records.

    Raises:
        TrainingError: on an empty beta grid or no usable validation images.
    """
    if not betas:
        raise TrainingError("select_beta needs at least one candidate beta")
    example_ids = set(selection.positive_ids) | set(selection.negative_ids)
    held_in = [i for i in validation_ids if i not in example_ids]
    if not held_in:
        raise TrainingError("no validation images left after removing the examples")

    bag_set = BagSet()
    for image_id in selection.positive_ids:
        bag_set.add(
            Bag(instances=corpus.instances_for(image_id), label=True, bag_id=image_id)
        )
    for image_id in selection.negative_ids:
        bag_set.add(
            Bag(instances=corpus.instances_for(image_id), label=False, bag_id=image_id)
        )

    ranker = Ranker()
    held_in_packed = packed_view(corpus, held_in)
    candidates = []
    for beta in betas:
        trainer = DiverseDensityTrainer(
            TrainerConfig(
                scheme="inequality",
                beta=float(beta),
                max_iterations=max_iterations,
                start_bag_subset=start_bag_subset,
                start_instance_stride=start_instance_stride,
                seed=seed,
                restart_prune_margin=restart_prune_margin,
            )
        )
        if cache is not None:
            training, _ = cache.fetch_or_train(trainer, bag_set)
        else:
            training = trainer.train(bag_set)
        concept = training.concept
        ranking = ranker.rank(concept, held_in_packed, exclude=example_ids)
        relevance = ranking.relevance(target_category)
        validation_ap = average_precision(relevance) if relevance.any() else 0.0
        candidates.append(
            BetaCandidate(beta=float(beta), validation_ap=validation_ap, nll=concept.nll)
        )

    best = max(candidates, key=lambda c: (c.validation_ap, c.beta))
    return BetaSelection(best_beta=best.beta, candidates=tuple(candidates))
