"""The unified learner interface and its string-keyed registry.

Every concept-learning and ranking strategy in the package — the paper's
Diverse Density trainer, the EM-DD extension, the Maron & Lakshmi Ratan
colour baseline and the sanity rankers — is wrapped behind one small
interface so the :class:`~repro.api.service.RetrievalService` (and anything
built on it) can treat them interchangeably:

* :class:`Learner` — ``fit(bag_set) -> LearnedModel``, plus two hooks the
  service calls while assembling a query: :meth:`Learner.bind` (capture the
  database, for learners that need raw pixels) and :meth:`Learner.corpus`
  (which bag/candidate view to rank — the colour baseline swaps in SBN
  colour bags here, everything else uses the database's region bags).
* :class:`LearnedModel` — the fitted artefact: an optional
  :class:`~repro.core.concept.LearnedConcept` plus
  ``rank(corpus, exclude, top_k=..., category_filter=...) ->
  RetrievalResult``, where the corpus is a
  :class:`~repro.core.retrieval.PackedCorpus` (or anything coercible to
  one).
* :func:`register_learner` / :func:`make_learner` /
  :func:`available_learners` — the registry.  Unknown names and bad
  parameters raise :class:`~repro.errors.LearnerError`.

Built-in registry keys: ``dd`` (alias ``diverse-density``), ``emdd``,
``maron-ratan``, ``random`` and ``global-correlation``.
"""

from __future__ import annotations

import abc
import inspect
from typing import Callable, ClassVar, Iterable

import numpy as np

from repro.bags.bag import BagSet
from repro.baselines.maron_ratan import DEFAULT_GRID, ColorCorpus
from repro.baselines.rankers import (
    RandomRanker,
    correlation_ranking,
    correlation_template,
)
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig, TrainingResult
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.core.feedback import Corpus
from repro.core.retrieval import PackedCorpus, Ranker, RetrievalResult
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError, LearnerError, TrainingError


# --------------------------------------------------------------------- #
# Fitted models                                                          #
# --------------------------------------------------------------------- #


class LearnedModel(abc.ABC):
    """What :meth:`Learner.fit` returns: something that can rank a corpus."""

    @property
    def concept(self) -> LearnedConcept | None:
        """The learned concept, when the strategy produces one."""
        return None

    @property
    def training(self) -> TrainingResult | None:
        """Full training diagnostics, when the strategy produces them."""
        return None

    @abc.abstractmethod
    def rank(
        self,
        corpus,
        exclude: Iterable[str] = (),
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        """Rank a corpus, best match first.

        ``corpus`` is a :class:`~repro.core.retrieval.PackedCorpus`, an
        object offering ``packed()``, or an iterable of
        :class:`~repro.core.retrieval.RetrievalCandidate` items
        (compatibility).  ``exclude`` skips ids, ``category_filter`` keeps
        one ground-truth category, ``top_k`` truncates the result while
        preserving ``total_candidates``.
        """


class ConceptModel(LearnedModel):
    """A learned ``(t, w)`` concept ranked by min-instance distance."""

    def __init__(self, training: TrainingResult):
        self._training = training
        self._ranker = Ranker()

    @property
    def concept(self) -> LearnedConcept:
        return self._training.concept

    @property
    def training(self) -> TrainingResult:
        return self._training

    def rank(
        self,
        corpus,
        exclude: Iterable[str] = (),
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        return self._ranker.rank(
            self._training.concept,
            corpus,
            top_k=top_k,
            exclude=exclude,
            category_filter=category_filter,
        )


class _PoolCategories:
    """category_of view over an id -> category mapping (for RandomRanker)."""

    def __init__(self, categories: dict[str, str]):
        self._categories = categories

    def category_of(self, image_id: str) -> str:
        return self._categories[image_id]


def _filtered_pool(
    corpus,
    exclude: Iterable[str],
    category_filter: str | None,
    top_k: int | None,
) -> list[tuple[str, str]]:
    """``(image_id, category)`` pairs surviving exclusion and filtering.

    Also validates ``top_k`` so every model rejects a non-positive value
    the same way the :class:`~repro.core.retrieval.Ranker` does.
    """
    if top_k is not None and top_k < 1:
        raise DatabaseError(f"top_k must be >= 1 or None, got {top_k}")
    packed = PackedCorpus.coerce(corpus)
    excluded = set(exclude)
    return [
        (image_id, category)
        for image_id, category in zip(packed.image_ids, packed.categories)
        if image_id not in excluded
        and (category_filter is None or category == category_filter)
    ]


class RandomOrderModel(LearnedModel):
    """Seeded random ordering (the paper's "completely random retrieval").

    Delegates to :class:`~repro.baselines.rankers.RandomRanker` over the
    id-sorted candidate pool, with a fresh ranker per call so repeated
    ranks from one model are reproducible.
    """

    def __init__(self, seed: int):
        self._seed = seed

    def rank(
        self,
        corpus,
        exclude: Iterable[str] = (),
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        pool = sorted(_filtered_pool(corpus, exclude, category_filter, top_k))
        if not pool:
            return RetrievalResult((), total_candidates=0)
        result = RandomRanker(self._seed).rank(
            _PoolCategories(dict(pool)), [image_id for image_id, _ in pool]
        )
        return result.truncate(top_k)


class CorrelationTemplateModel(LearnedModel):
    """Whole-image correlation to the mean positive example (no MIL)."""

    def __init__(self, database: ImageDatabase, template: np.ndarray, resolution: int):
        self._database = database
        self._template = template
        self._resolution = resolution

    def rank(
        self,
        corpus,
        exclude: Iterable[str] = (),
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        chosen = [
            image_id
            for image_id, _ in _filtered_pool(corpus, exclude, category_filter,
                                              top_k)
        ]
        result = correlation_ranking(
            self._database, self._template, chosen, self._resolution
        )
        return result.truncate(top_k)


# --------------------------------------------------------------------- #
# Learners                                                               #
# --------------------------------------------------------------------- #


class Learner(abc.ABC):
    """One pluggable retrieval-learning strategy.

    The service drives every learner through the same three steps::

        learner.bind(database)                  # optional database capture
        corpus = learner.corpus(database)       # which bag view to use
        model = learner.fit(bag_set)            # train on example bags
        result = model.rank(corpus.packed(), ...)   # rank the packed corpus

    Subclasses set :attr:`name` (the registry key they are usually
    registered under) and implement :meth:`fit`.
    """

    name: ClassVar[str] = ""

    def bind(self, database: ImageDatabase) -> None:
        """Capture the database before fitting (no-op by default)."""

    def corpus(self, database: ImageDatabase) -> Corpus:
        """The corpus the learner's bags and candidates come from."""
        return database

    @property
    def corpus_key(self) -> str:
        """Cache key for the corpus view (learners sharing a key share bags)."""
        return "region-bags"

    @abc.abstractmethod
    def fit(self, bag_set: BagSet) -> LearnedModel:
        """Train on the labelled example bags and return a rankable model."""


class ConceptLearner(Learner):
    """Base for learners that wrap a ``train(bag_set) -> TrainingResult`` trainer."""

    def __init__(self, trainer) -> None:
        self._trainer = trainer

    @property
    def trainer(self):
        """The underlying trainer object."""
        return self._trainer

    @property
    def config(self):
        """The underlying trainer's configuration."""
        return self._trainer.config

    @property
    def fingerprint(self) -> str | None:
        """Concept-cache identity of the wrapped trainer (None if it has none)."""
        fingerprint = getattr(self._trainer, "fingerprint", None)
        return fingerprint if isinstance(fingerprint, str) else None

    def train(self, bag_set: BagSet, extra_starts=()) -> TrainingResult:
        """FeedbackLoop-compatible alias: train and return the full result."""
        if extra_starts:
            return self._trainer.train(bag_set, extra_starts=tuple(extra_starts))
        return self._trainer.train(bag_set)

    def fit(self, bag_set: BagSet) -> ConceptModel:
        return ConceptModel(self.train(bag_set))


class DiverseDensityLearner(ConceptLearner):
    """The paper's multi-restart Diverse Density trainer (registry: ``dd``)."""

    name = "dd"

    def __init__(
        self,
        scheme: str = "inequality",
        beta: float = 0.5,
        alpha: float = 50.0,
        max_iterations: int = 100,
        start_bag_subset: int | None = None,
        start_instance_stride: int = 1,
        seed: int = 0,
        restart_prune_margin: float | None = None,
    ) -> None:
        super().__init__(
            DiverseDensityTrainer(
                TrainerConfig(
                    scheme=scheme,
                    beta=beta,
                    alpha=alpha,
                    max_iterations=max_iterations,
                    start_bag_subset=start_bag_subset,
                    start_instance_stride=start_instance_stride,
                    seed=seed,
                    restart_prune_margin=restart_prune_margin,
                )
            )
        )


class EMDDLearner(ConceptLearner):
    """The EM-DD extension trainer (registry: ``emdd``)."""

    name = "emdd"

    def __init__(
        self,
        inner_scheme: str = "identical",
        beta: float = 0.5,
        alpha: float = 50.0,
        max_em_iterations: int = 10,
        tolerance: float = 1e-6,
        max_inner_iterations: int = 60,
        start_bag_subset: int | None = None,
        start_instance_stride: int = 1,
        seed: int = 0,
        restart_prune_margin: float | None = None,
    ) -> None:
        super().__init__(
            EMDDTrainer(
                EMDDConfig(
                    inner_scheme=inner_scheme,
                    beta=beta,
                    alpha=alpha,
                    max_em_iterations=max_em_iterations,
                    tolerance=tolerance,
                    max_inner_iterations=max_inner_iterations,
                    start_bag_subset=start_bag_subset,
                    start_instance_stride=start_instance_stride,
                    seed=seed,
                    restart_prune_margin=restart_prune_margin,
                )
            )
        )


class MaronRatanLearner(ConceptLearner):
    """Diverse Density over SBN colour bags (registry: ``maron-ratan``).

    The Section 4.2.4 "previous approach": same DD core, colour features.
    Requires a database whose images carry RGB data.
    """

    name = "maron-ratan"

    def __init__(
        self,
        grid: int = DEFAULT_GRID,
        scheme: str = "identical",
        beta: float = 0.5,
        alpha: float = 50.0,
        max_iterations: int = 100,
        start_bag_subset: int | None = None,
        start_instance_stride: int = 1,
        seed: int = 0,
        restart_prune_margin: float | None = None,
    ) -> None:
        super().__init__(
            DiverseDensityTrainer(
                TrainerConfig(
                    scheme=scheme,
                    beta=beta,
                    alpha=alpha,
                    max_iterations=max_iterations,
                    start_bag_subset=start_bag_subset,
                    start_instance_stride=start_instance_stride,
                    seed=seed,
                    restart_prune_margin=restart_prune_margin,
                )
            )
        )
        self._grid = grid

    def corpus(self, database: ImageDatabase) -> ColorCorpus:
        return ColorCorpus(database, grid=self._grid)

    @property
    def corpus_key(self) -> str:
        return f"sbn-color-{self._grid}"


class RandomLearner(Learner):
    """Seeded random baseline (registry: ``random``); ignores the examples."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._seed = seed

    def fit(self, bag_set: BagSet) -> RandomOrderModel:
        return RandomOrderModel(self._seed)


class GlobalCorrelationLearner(Learner):
    """Whole-image correlation baseline (registry: ``global-correlation``).

    No regions, no mirrors, no negative examples, no learning — the
    Figure 3-3 / 3-4 reference the MIL system is measured against.
    """

    name = "global-correlation"

    def __init__(self, resolution: int = 10):
        if resolution < 2:
            raise LearnerError(f"resolution must be >= 2, got {resolution}")
        self._resolution = resolution
        self._database: ImageDatabase | None = None

    def bind(self, database: ImageDatabase) -> None:
        self._database = database

    def fit(self, bag_set: BagSet) -> CorrelationTemplateModel:
        if self._database is None:
            raise LearnerError(
                "global-correlation needs a database; call bind(database) before fit"
            )
        positive_ids = [bag.bag_id for bag in bag_set.positive_bags]
        if not positive_ids:
            raise TrainingError(
                "global correlation ranking needs at least one positive example"
            )
        template = correlation_template(self._database, positive_ids, self._resolution)
        return CorrelationTemplateModel(self._database, template, self._resolution)


# --------------------------------------------------------------------- #
# Registry                                                               #
# --------------------------------------------------------------------- #

_REGISTRY: dict[str, Callable[..., Learner]] = {}


def register_learner(
    name: str, factory: Callable[..., Learner], overwrite: bool = False
) -> None:
    """Register a learner factory under a string key.

    Args:
        name: the registry key (``make_learner(name, ...)`` resolves it).
        factory: callable returning a :class:`Learner`; keyword arguments of
            ``make_learner`` are forwarded to it.
        overwrite: allow replacing an existing registration.

    Raises:
        LearnerError: on an empty name or a duplicate registration.
    """
    if not name:
        raise LearnerError("learner name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise LearnerError(
            f"learner {name!r} is already registered; pass overwrite=True to replace"
        )
    _REGISTRY[name] = factory


def available_learners() -> tuple[str, ...]:
    """All registered learner names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_learner(name: str, **params) -> Learner:
    """Build a learner by registry key.

    Args:
        name: one of :func:`available_learners`.
        **params: forwarded to the registered factory.

    Raises:
        LearnerError: for an unknown name or parameters the factory rejects.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_learners())
        raise LearnerError(f"unknown learner {name!r}; known learners: {known}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise LearnerError(f"invalid parameters for learner {name!r}: {exc}") from None
    learner = factory(**params)
    if not isinstance(learner, Learner):
        raise LearnerError(
            f"factory for {name!r} returned {type(learner).__name__}, not a Learner"
        )
    return learner


def shape_learner_params(
    learner: str,
    scheme: str = "inequality",
    beta: float = 0.5,
    alpha: float = 50.0,
    max_iterations: int = 100,
    start_bag_subset: int | None = None,
    start_instance_stride: int = 1,
    seed: int = 0,
    restart_prune_margin: float | None = None,
) -> dict[str, object]:
    """Map the historical DD-style knobs onto a built-in learner's parameters.

    The session, the CLI and the experiment runner all configure learners
    from the same Diverse-Density-shaped knob set; this is the single place
    that knows how those knobs spell for each learner family (EM-DD renames
    the scheme and iteration cap, the sanity rankers take almost nothing).
    Unknown/custom learners get the DD-shaped mapping; pass explicit params
    instead if they differ.
    """
    if learner == "emdd":
        return {
            "inner_scheme": scheme,
            "beta": beta,
            "alpha": alpha,
            "max_inner_iterations": max_iterations,
            "start_bag_subset": start_bag_subset,
            "start_instance_stride": start_instance_stride,
            "seed": seed,
            "restart_prune_margin": restart_prune_margin,
        }
    if learner == "random":
        return {"seed": seed}
    if learner == "global-correlation":
        return {}
    # dd, diverse-density, maron-ratan and DD-shaped custom learners.
    return {
        "scheme": scheme,
        "beta": beta,
        "alpha": alpha,
        "max_iterations": max_iterations,
        "start_bag_subset": start_bag_subset,
        "start_instance_stride": start_instance_stride,
        "seed": seed,
        "restart_prune_margin": restart_prune_margin,
    }


register_learner("dd", DiverseDensityLearner)
register_learner("diverse-density", DiverseDensityLearner)
register_learner("emdd", EMDDLearner)
register_learner("maron-ratan", MaronRatanLearner)
register_learner("random", RandomLearner)
register_learner("global-correlation", GlobalCorrelationLearner)
