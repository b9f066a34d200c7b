"""The end-to-end retrieval experiment of Section 4.1.

One :class:`RetrievalExperiment` is the paper's canonical evaluation unit:

1. split the database into a potential training set and a test set
   (stratified 20% by default),
2. pick seeded positive/negative example images (the simulated user),
3. run the relevance-feedback loop (3 training rounds, 5 false positives
   promoted per round by default),
4. rank the test set with the final concept and compute the recall and
   precision-recall curves.

Every figure-reproducing benchmark builds on this class, varying the scheme,
its parameters, the feature configuration or the dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.learners import ConceptLearner, make_learner, shape_learner_params
from repro.core.feedback import FeedbackLoop, FeedbackOutcome, select_examples
from repro.database.splits import DatabaseSplit, split_database
from repro.database.store import ImageDatabase
from repro.errors import EvaluationError
from repro.eval.curves import CurveSummary, PrecisionRecallCurve, RecallCurve


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one retrieval experiment.

    Attributes:
        target_category: the concept the simulated user searches for.
        learner: registry name of the concept learner driving the feedback
            loop (``dd`` by default; ``emdd`` runs the extension trainer).
        scheme: weight scheme name (``original`` / ``identical`` /
            ``alpha_hack`` / ``inequality``).
        beta: inequality-constraint level.
        alpha: alpha-hack damping constant.
        n_positive / n_negative: initial example counts (paper: 5 / 5).
        rounds: training rounds (paper: 3).
        false_positives_per_round: negatives promoted per non-final round
            (paper: 5).
        training_fraction: share of each category in the potential training
            set (paper: 0.2).
        start_bag_subset: positive-bag subset for restarts (Section 4.3);
            ``None`` = all bags.
        start_instance_stride: restart thinning within each start bag.
        max_iterations: per-start solver iteration cap.
        seed: master seed for split, example selection and subset choice.
        restart_prune_margin: freeze restarts that trail the incumbent best
            by more than this margin (ignored by schemes with no lockstep
            solver: SLSQP, custom).
        warm_start: seed each feedback round after the first with an extra
            restart at the previous round's concept.
    """

    target_category: str
    learner: str = "dd"
    scheme: str = "inequality"
    beta: float = 0.5
    alpha: float = 50.0
    n_positive: int = 5
    n_negative: int = 5
    rounds: int = 3
    false_positives_per_round: int = 5
    training_fraction: float = 0.2
    start_bag_subset: int | None = None
    start_instance_stride: int = 1
    max_iterations: int = 100
    seed: int = 0
    restart_prune_margin: float | None = None
    warm_start: bool = False

    def with_overrides(self, **changes) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced.

    Attributes:
        config: the configuration that ran.
        outcome: the feedback-loop record (rounds, final ranking).
        relevance: boolean relevance of the final test ranking.
        n_relevant: relevant images present in the test set.
        recall_curve / pr_curve: the paper's two evaluation curves.
        summary: headline numbers of the PR curve.
        elapsed_seconds: wall-clock time of the whole experiment.
    """

    config: ExperimentConfig
    outcome: FeedbackOutcome
    relevance: np.ndarray
    n_relevant: int
    recall_curve: RecallCurve
    pr_curve: PrecisionRecallCurve
    summary: CurveSummary
    elapsed_seconds: float

    @property
    def average_precision(self) -> float:
        """Average precision of the final test ranking."""
        return self.summary.average_precision

    @property
    def band_precision(self) -> float:
        """Mean precision for recall in [0.3, 0.4] (the Fig 4-22 measure)."""
        return self.summary.band_precision


class RetrievalExperiment:
    """Runs the Section 4.1 protocol on a database.

    Args:
        database: a populated :class:`ImageDatabase`.
        config: the experiment parameters.
        split: reuse an existing split instead of creating one — lets a suite
            of experiments share identical train/test partitions.
    """

    def __init__(
        self,
        database: ImageDatabase,
        config: ExperimentConfig,
        split: DatabaseSplit | None = None,
    ):
        if config.target_category not in database.categories():
            raise EvaluationError(
                f"target category {config.target_category!r} not in database "
                f"categories {database.categories()}"
            )
        self._database = database
        self._config = config
        self._split = split or split_database(
            database, training_fraction=config.training_fraction, seed=config.seed
        )

    @property
    def split(self) -> DatabaseSplit:
        """The potential-training / test split in use."""
        return self._split

    @property
    def config(self) -> ExperimentConfig:
        """The experiment configuration."""
        return self._config

    def build_trainer(self) -> ConceptLearner:
        """The learner implied by the configuration, resolved via the registry.

        Raises:
            EvaluationError: if the configured learner cannot drive the
                feedback loop (it must produce a concept).
        """
        cfg = self._config
        params = shape_learner_params(
            cfg.learner,
            scheme=cfg.scheme,
            beta=cfg.beta,
            alpha=cfg.alpha,
            max_iterations=cfg.max_iterations,
            start_bag_subset=cfg.start_bag_subset,
            start_instance_stride=cfg.start_instance_stride,
            seed=cfg.seed,
            restart_prune_margin=cfg.restart_prune_margin,
        )
        learner = make_learner(cfg.learner, **params)
        if not isinstance(learner, ConceptLearner):
            raise EvaluationError(
                f"learner {cfg.learner!r} does not learn a concept and cannot "
                "drive the feedback-loop experiment"
            )
        return learner

    def run(self) -> ExperimentResult:
        """Execute the experiment end to end."""
        started_at = time.perf_counter()
        cfg = self._config
        selection = select_examples(
            self._database,
            self._split.potential_ids,
            cfg.target_category,
            n_positive=cfg.n_positive,
            n_negative=cfg.n_negative,
            seed=cfg.seed,
        )
        learner = self.build_trainer()
        learner.bind(self._database)
        loop = FeedbackLoop(
            # The learner chooses the corpus it trains and ranks on — the
            # colour baseline swaps in SBN bags here; everything else uses
            # the database's region bags.
            corpus=learner.corpus(self._database),
            trainer=learner,
            target_category=cfg.target_category,
            potential_ids=self._split.potential_ids,
            test_ids=self._split.test_ids,
            rounds=cfg.rounds,
            false_positives_per_round=cfg.false_positives_per_round,
            warm_start=cfg.warm_start,
        )
        outcome = loop.run(selection)

        relevance = outcome.test_ranking.relevance(cfg.target_category)
        n_relevant = sum(
            1
            for image_id in self._split.test_ids
            if self._database.category_of(image_id) == cfg.target_category
        )
        recall_curve = RecallCurve(relevance, n_relevant)
        pr_curve = PrecisionRecallCurve(relevance, n_relevant)
        elapsed = time.perf_counter() - started_at
        return ExperimentResult(
            config=cfg,
            outcome=outcome,
            relevance=relevance,
            n_relevant=n_relevant,
            recall_curve=recall_curve,
            pr_curve=pr_curve,
            summary=pr_curve.summary(),
            elapsed_seconds=elapsed,
        )


@dataclass(frozen=True)
class ComparisonRow:
    """One labelled experiment result inside a comparison suite."""

    label: str
    result: ExperimentResult = field(repr=False)

    @property
    def average_precision(self) -> float:
        """Shortcut to the result's average precision."""
        return self.result.average_precision


def run_comparison(
    database: ImageDatabase,
    configs: dict[str, ExperimentConfig],
    share_split: bool = True,
) -> list[ComparisonRow]:
    """Run several labelled experiments, optionally on one shared split.

    Args:
        database: the populated database.
        configs: mapping of label to configuration.
        share_split: compute the split once from the first config so every
            variant ranks the same test images (the paper's protocol for its
            scheme comparisons).
    """
    if not configs:
        raise EvaluationError("run_comparison needs at least one configuration")
    shared: DatabaseSplit | None = None
    rows: list[ComparisonRow] = []
    for label, config in configs.items():
        experiment = RetrievalExperiment(database, config, split=shared)
        if share_split and shared is None:
            shared = experiment.split
        rows.append(ComparisonRow(label=label, result=experiment.run()))
    return rows
