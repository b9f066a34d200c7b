"""Simulated relevance feedback (Section 4.1).

The paper's evaluation protocol: split the database into a small *potential
training set* (whose labels the system may consult, simulating the user) and
a large *test set*.  After each training round the system ranks the potential
training set, picks the top false positives, adds them as new negative
examples and retrains — "it effectively simulates what a user might do to
obtain better performance".  Most experiments run three rounds with 5 false
positives added after each of the first two.

:class:`FeedbackLoop` drives that protocol against any *corpus* object
offering::

    instances_for(image_id) -> np.ndarray      # the image's bag instances
    category_of(image_id) -> str               # ground-truth label
    packed(ids) -> PackedCorpus                # columnar rankable view

which :class:`~repro.database.store.ImageDatabase` implements.  Rankings
run over the packed view through the vectorised
:class:`~repro.core.retrieval.Ranker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.bags.bag import Bag, BagSet
from repro.core.cache import ConceptCache
from repro.core.diverse_density import DiverseDensityTrainer, ExtraStart, TrainingResult
from repro.core.retrieval import (
    PackedCorpus,
    Ranker,
    RetrievalResult,
    packed_view,
)
from repro.errors import TrainingError


class Corpus(Protocol):
    """What the feedback loop needs from the storage layer."""

    def instances_for(self, image_id: str) -> np.ndarray:
        """Instance matrix of one image."""
        ...  # pragma: no cover - protocol

    def category_of(self, image_id: str) -> str:
        """Ground-truth category of one image."""
        ...  # pragma: no cover - protocol

    def packed(self, ids: Sequence[str] | None = None) -> PackedCorpus:
        """Columnar corpus view of the given images (all when ``None``)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ExampleSelection:
    """The initial positive/negative example images of a query."""

    positive_ids: tuple[str, ...]
    negative_ids: tuple[str, ...]


def select_examples(
    corpus: Corpus,
    candidate_ids: Sequence[str],
    target_category: str,
    n_positive: int = 5,
    n_negative: int = 5,
    seed: int = 0,
) -> ExampleSelection:
    """Seeded stand-in for the user's initial example picks.

    Args:
        corpus: the storage layer.
        candidate_ids: ids eligible as examples (the potential training set).
        target_category: what the simulated user is looking for.
        n_positive: number of positive examples to pick.
        n_negative: number of negative examples to pick.
        seed: RNG seed; the same seed always picks the same examples.

    Raises:
        TrainingError: if the pool cannot supply the requested counts.
    """
    positives = [i for i in candidate_ids if corpus.category_of(i) == target_category]
    negatives = [i for i in candidate_ids if corpus.category_of(i) != target_category]
    if len(positives) < n_positive:
        raise TrainingError(
            f"only {len(positives)} {target_category!r} images available, "
            f"need {n_positive} positive examples"
        )
    if len(negatives) < n_negative:
        raise TrainingError(
            f"only {len(negatives)} non-{target_category!r} images available, "
            f"need {n_negative} negative examples"
        )
    rng = np.random.default_rng(seed)
    chosen_pos = rng.choice(len(positives), size=n_positive, replace=False)
    chosen_neg = rng.choice(len(negatives), size=n_negative, replace=False)
    return ExampleSelection(
        positive_ids=tuple(positives[i] for i in sorted(chosen_pos)),
        negative_ids=tuple(negatives[i] for i in sorted(chosen_neg)),
    )


@dataclass(frozen=True)
class FeedbackRound:
    """Diagnostics for one training round.

    Attributes:
        index: 1-based round number.
        n_positive_bags: positive examples used this round.
        n_negative_bags: negative examples used this round.
        nll: best NLL achieved by the trainer.
        added_negative_ids: false positives promoted to negatives *after*
            this round (empty for the final round).
        training_precision_at_10: precision among the 10 best-ranked
            potential-training-set images, a cheap progress signal.
    """

    index: int
    n_positive_bags: int
    n_negative_bags: int
    nll: float
    added_negative_ids: tuple[str, ...]
    training_precision_at_10: float


@dataclass(frozen=True)
class FeedbackOutcome:
    """Everything a feedback run produced.

    Attributes:
        rounds: per-round diagnostics, in order.
        final_training: the last round's full training result.
        test_ranking: final ranking of the test set.
        example_ids: every image id used as an example (initial + promoted).
    """

    rounds: tuple[FeedbackRound, ...]
    final_training: TrainingResult
    test_ranking: RetrievalResult
    example_ids: tuple[str, ...]


class FeedbackLoop:
    """Drives the train / rank / promote-false-positives cycle.

    Args:
        corpus: storage layer (see :class:`Corpus`).
        trainer: configured Diverse Density trainer.
        target_category: the simulated user's concept.
        potential_ids: the potential-training-set image ids.
        test_ids: the held-out test-set image ids.
        rounds: total training rounds (paper default 3).
        false_positives_per_round: negatives promoted after each
            non-final round (paper default 5).
        cache: optional trained-concept cache — rounds whose (trainer, bag
            set, warm start) fingerprints were seen before reuse the cached
            :class:`TrainingResult` instead of retraining.  Cache hits are
            bit-identical to retraining, so sharing one cache across
            repeated loops is safe.
        warm_start: seed every round after the first with one extra restart
            at the previous round's concept ``(t, w)``.  The restart
            population only grows, so the per-round NLL can only improve.
    """

    def __init__(
        self,
        corpus: Corpus,
        trainer: DiverseDensityTrainer,
        target_category: str,
        potential_ids: Sequence[str],
        test_ids: Sequence[str],
        rounds: int = 3,
        false_positives_per_round: int = 5,
        cache: ConceptCache | None = None,
        warm_start: bool = False,
    ) -> None:
        if rounds < 1:
            raise TrainingError(f"rounds must be >= 1, got {rounds}")
        if false_positives_per_round < 0:
            raise TrainingError(
                f"false_positives_per_round must be >= 0, got {false_positives_per_round}"
            )
        self._corpus = corpus
        self._trainer = trainer
        self._target = target_category
        self._potential_ids = tuple(potential_ids)
        self._test_ids = tuple(test_ids)
        self._rounds = rounds
        self._fp_per_round = false_positives_per_round
        self._cache = cache
        self._warm_start = warm_start
        self._ranker = Ranker()

    def run(self, selection: ExampleSelection) -> FeedbackOutcome:
        """Execute the full protocol from an initial example selection."""
        positive_ids = list(selection.positive_ids)
        negative_ids = list(selection.negative_ids)
        round_records: list[FeedbackRound] = []
        training: TrainingResult | None = None
        # The potential-set view is loop-invariant; pack it once for all rounds.
        potential_packed = packed_view(self._corpus, self._potential_ids)

        for round_index in range(1, self._rounds + 1):
            bag_set = self._build_bag_set(positive_ids, negative_ids)
            extra_starts: tuple[ExtraStart, ...] = ()
            if self._warm_start and training is not None:
                previous = training.concept
                extra_starts = (ExtraStart(t=previous.t, w=previous.w),)
            training = self._train(bag_set, extra_starts)
            concept = training.concept

            example_ids = set(positive_ids) | set(negative_ids)
            training_ranking = self._ranker.rank(
                concept, potential_packed, exclude=example_ids
            )
            added: tuple[str, ...] = ()
            if round_index < self._rounds and self._fp_per_round:
                promoted = training_ranking.false_positives(
                    self._target, self._fp_per_round, exclude=example_ids
                )
                added = tuple(entry.image_id for entry in promoted)
                negative_ids.extend(added)

            precision = (
                training_ranking.precision_at(min(10, len(training_ranking)), self._target)
                if len(training_ranking)
                else 0.0
            )
            round_records.append(
                FeedbackRound(
                    index=round_index,
                    n_positive_bags=len(positive_ids),
                    n_negative_bags=len(negative_ids) - len(added),
                    nll=concept.nll,
                    added_negative_ids=added,
                    training_precision_at_10=precision,
                )
            )

        assert training is not None  # rounds >= 1
        all_examples = set(positive_ids) | set(negative_ids)
        test_ranking = self._ranker.rank(
            training.concept,
            packed_view(self._corpus, self._test_ids),
            exclude=all_examples,
        )
        return FeedbackOutcome(
            rounds=tuple(round_records),
            final_training=training,
            test_ranking=test_ranking,
            example_ids=tuple(sorted(all_examples)),
        )

    def _train(
        self, bag_set: BagSet, extra_starts: tuple[ExtraStart, ...]
    ) -> TrainingResult:
        """Train one round, through the concept cache when one is attached."""
        if self._cache is not None:
            result, _ = self._cache.fetch_or_train(self._trainer, bag_set, extra_starts)
            return result
        if extra_starts:
            return self._trainer.train(bag_set, extra_starts=extra_starts)
        return self._trainer.train(bag_set)

    def _build_bag_set(
        self, positive_ids: Sequence[str], negative_ids: Sequence[str]
    ) -> BagSet:
        bag_set = BagSet()
        for image_id in positive_ids:
            bag_set.add(
                Bag(
                    instances=self._corpus.instances_for(image_id),
                    label=True,
                    bag_id=image_id,
                )
            )
        for image_id in negative_ids:
            bag_set.add(
                Bag(
                    instances=self._corpus.instances_for(image_id),
                    label=False,
                    bag_id=image_id,
                )
            )
        return bag_set
