"""Interactive retrieval sessions — the stateful convenience facade.

:class:`RetrievalSession` packages the Section 3.5 workflow ("the user is
asked to select several positive and negative examples ... the system ...
retrieves images in the ranked order") into a small stateful API:

    session = RetrievalSession(db, scheme="inequality", beta=0.5)
    session.add_positive("waterfall-0003")
    session.add_negative("field-0001")
    result = session.train_and_rank()
    for entry in result.top(10):
        print(entry.image_id, entry.distance)

``add_examples`` provides the simulated-user shortcut (seeded selection by
category), and ``mark_false_positives`` implements the manual feedback step
— pick bad results, add them as negatives, train again.

Since the ``repro.api`` redesign the session is a thin wrapper over
:class:`~repro.api.service.RetrievalService`: it keeps the example lists
and the last trained model, while the service resolves the learner from
the registry, caches the bag corpora and performs the actual fit/rank.
Pass ``learner="emdd"`` (or any registered name) to swap the concept
learner without changing the workflow.
"""

from __future__ import annotations

from repro.api.learners import shape_learner_params
from repro.api.service import FittedQuery, RetrievalService
from repro.core.cache import CacheStats
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import TrainingResult
from repro.core.feedback import select_examples
from repro.core.retrieval import RetrievalResult
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError, TrainingError


class RetrievalSession:
    """One user's query session against an image database.

    Args:
        database: the populated image database.
        scheme: weight-control scheme name (default the paper's best
            all-rounder, the inequality constraint).
        beta: constraint level for the inequality scheme.
        alpha: damping constant for the alpha-hack scheme.
        max_iterations: per-start solver cap.
        start_bag_subset: optional Section 4.3 speed-up.
        seed: seed used by ``add_examples`` and the trainer.
        learner: registry name of the concept learner to train with.
        restart_prune_margin: freeze restarts that trail the incumbent best
            by more than this margin (ignored by schemes with no lockstep
            solver: SLSQP, custom).
        learner_params: explicit learner parameters; overrides the mapping
            derived from the DD-style keyword arguments above.
        service: share an existing :class:`RetrievalService` (and its bag
            and concept caches) across sessions; one is created per session
            by default.
    """

    def __init__(
        self,
        database: ImageDatabase,
        scheme: str = "inequality",
        beta: float = 0.5,
        alpha: float = 50.0,
        max_iterations: int = 100,
        start_bag_subset: int | None = None,
        seed: int = 0,
        learner: str = "dd",
        restart_prune_margin: float | None = None,
        learner_params: dict[str, object] | None = None,
        service: RetrievalService | None = None,
    ) -> None:
        self._service = service or RetrievalService(database)
        if self._service.database is not database:
            raise DatabaseError("the shared service must serve the same database")
        self._database = database
        self._seed = seed
        self._learner = learner
        self._params = (
            dict(learner_params)
            if learner_params is not None
            else shape_learner_params(
                learner,
                scheme=scheme,
                beta=beta,
                alpha=alpha,
                max_iterations=max_iterations,
                start_bag_subset=start_bag_subset,
                seed=seed,
                restart_prune_margin=restart_prune_margin,
            )
        )
        self._positive_ids: list[str] = []
        self._negative_ids: list[str] = []
        self._fitted: FittedQuery | None = None

    @property
    def service(self) -> RetrievalService:
        """The retrieval service executing this session's queries."""
        return self._service

    @property
    def learner(self) -> str:
        """The registry name of the learner in use."""
        return self._learner

    @property
    def cache_stats(self) -> CacheStats:
        """Concept-cache counters of the underlying service."""
        return self._service.cache_stats

    # ------------------------------------------------------------------ #
    # Example management                                                  #
    # ------------------------------------------------------------------ #

    @property
    def positive_ids(self) -> tuple[str, ...]:
        """Current positive example ids."""
        return tuple(self._positive_ids)

    @property
    def negative_ids(self) -> tuple[str, ...]:
        """Current negative example ids."""
        return tuple(self._negative_ids)

    def add_positive(self, image_id: str) -> None:
        """Mark one database image as a positive example."""
        self._validate_new_example(image_id)
        self._positive_ids.append(image_id)
        self._fitted = None

    def add_negative(self, image_id: str) -> None:
        """Mark one database image as a negative example."""
        self._validate_new_example(image_id)
        self._negative_ids.append(image_id)
        self._fitted = None

    def _validate_new_example(self, image_id: str) -> None:
        """Check an id can become an example; raises without mutating."""
        if image_id not in self._database:
            raise DatabaseError(f"unknown image id {image_id!r}")
        if image_id in self._positive_ids or image_id in self._negative_ids:
            raise DatabaseError(f"image {image_id!r} is already an example")

    def add_examples(
        self, category: str, n_positive: int = 5, n_negative: int = 5
    ) -> None:
        """Simulated-user shortcut: seeded picks for/against a category."""
        selection = select_examples(
            self._database,
            [i for i in self._database.image_ids if not self._is_example(i)],
            category,
            n_positive=n_positive,
            n_negative=n_negative,
            seed=self._seed,
        )
        self._positive_ids.extend(selection.positive_ids)
        self._negative_ids.extend(selection.negative_ids)
        self._fitted = None

    def _is_example(self, image_id: str) -> bool:
        return image_id in self._positive_ids or image_id in self._negative_ids

    def mark_false_positives(self, image_ids: tuple[str, ...] | list[str]) -> None:
        """Manual feedback: demote retrieved images to negative examples.

        Atomic: every id is validated before any is applied, so one unknown
        or duplicate id leaves the session's examples untouched.

        Raises:
            DatabaseError: on an unknown id, an id that is already an
                example, or a duplicate within ``image_ids``.
        """
        self.apply_edits(false_positive_ids=tuple(image_ids))

    def apply_edits(
        self,
        add_positive_ids: tuple[str, ...] | list[str] = (),
        add_negative_ids: tuple[str, ...] | list[str] = (),
        false_positive_ids: tuple[str, ...] | list[str] = (),
    ) -> None:
        """Apply one round of example edits atomically.

        Every id across all three lists is validated (in the database, not
        already an example, no duplicates) before any is applied, so a
        rejected edit leaves the session untouched — the contract the
        serving layer relies on for safe client retries.  False positives
        become negative examples.

        Raises:
            DatabaseError: on an unknown id, an id that is already an
                example, or a duplicate across the lists (nothing applied).
        """
        ids = (*add_positive_ids, *add_negative_ids, *false_positive_ids)
        seen: set[str] = set()
        for image_id in ids:
            if image_id in seen:
                raise DatabaseError(
                    f"duplicate image id {image_id!r} across example edits"
                )
            self._validate_new_example(image_id)
            seen.add(image_id)
        self._positive_ids.extend(add_positive_ids)
        self._negative_ids.extend(add_negative_ids)
        self._negative_ids.extend(false_positive_ids)
        if ids:
            self._fitted = None

    # ------------------------------------------------------------------ #
    # Training and retrieval                                              #
    # ------------------------------------------------------------------ #

    @property
    def concept(self) -> LearnedConcept:
        """The most recently learned concept.

        Raises:
            TrainingError: if no training has run since the examples
                changed, or the learner does not produce a concept.
        """
        if self._fitted is None:
            raise TrainingError("no current concept; call train() first")
        concept = self._fitted.model.concept
        if concept is None:
            raise TrainingError(
                f"learner {self._learner!r} does not produce a concept"
            )
        return concept

    def peek_concept(self) -> LearnedConcept | None:
        """The current concept, or ``None`` when there is none.

        Unlike :attr:`concept` this never raises — serving endpoints use it
        to report the concept opportunistically (stale examples or a
        non-concept learner simply yield ``None``).
        """
        if self._fitted is None:
            return None
        return self._fitted.model.concept

    def _fit(self) -> None:
        if not self._positive_ids:
            raise TrainingError("add at least one positive example before training")
        self._fitted = self._service.fit(
            self._positive_ids,
            self._negative_ids,
            learner=self._learner,
            params=self._params,
        )

    def train(self) -> TrainingResult:
        """Train the configured learner on the current examples.

        Raises:
            TrainingError: without a positive example, or when the learner
                produces no training diagnostics (the sanity rankers) —
                use :meth:`train_and_rank` or :meth:`rank` with those.
        """
        self._fit()
        training = self._fitted.model.training
        if training is None:
            raise TrainingError(
                f"learner {self._learner!r} produces no training diagnostics; "
                "use train_and_rank() or rank() instead"
            )
        return training

    def rank(
        self,
        ids: tuple[str, ...] | list[str] | None = None,
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
        exclude: tuple[str, ...] | list[str] = (),
    ) -> RetrievalResult:
        """Rank database images (examples excluded) with the current model.

        Args:
            ids: which images to rank; the whole database when ``None``.
            top_k: truncate to the best ``top_k`` entries; the result still
                reports its ``total_candidates``.
            category_filter: rank only candidates of this category.
            exclude: additional image ids to leave out (the session's own
                examples are always excluded).
        """
        if self._fitted is None:
            raise TrainingError("no current concept; call train() first")
        return self._service.rank_with(
            self._fitted,
            candidate_ids=ids,
            exclude=tuple(self._positive_ids)
            + tuple(self._negative_ids)
            + tuple(exclude),
            top_k=top_k,
            category_filter=category_filter,
        )

    def train_and_rank(
        self,
        ids: tuple[str, ...] | list[str] | None = None,
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        """Convenience: train, then rank in one call (works for any learner)."""
        self._fit()
        return self.rank(ids, top_k=top_k, category_filter=category_filter)
