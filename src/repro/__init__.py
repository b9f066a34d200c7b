"""Image database retrieval with multiple-instance learning techniques.

This package reproduces the system of Yang & Lozano-Perez (ICDE 2000):
content-based image retrieval where each image is a *bag* of region-level
feature vectors and the Diverse Density algorithm learns the user's concept
from positive and negative example images.

Layering (bottom to top):

``repro.imaging``
    Gray-scale conversion, smoothing-and-sampling, region families,
    (weighted) correlation and the correlation-to-Euclidean normalisation.
``repro.bags``
    The multiple-instance data model (instances, bags, bag sets) and the
    image-to-bag generation pipeline.
``repro.core``
    The Diverse Density objective, optimisers (unconstrained and
    constrained), weight-control schemes, learned concepts, the retrieval
    ranker and the simulated relevance-feedback loop.
``repro.database``
    The image database: records, store, category catalog, splits and
    persistence.
``repro.datasets``
    Seeded synthetic substitutes for the paper's COREL natural scenes and
    web object images.
``repro.baselines``
    The Maron & Lakshmi Ratan colour-feature comparator and sanity rankers.
``repro.api``
    The public query API: the :class:`Learner` registry unifying the DD,
    EM-DD and baseline strategies, frozen ``Query``/``QueryResult``
    request–response objects, and the :class:`RetrievalService` facade
    with cached bag corpora and multi-worker ``batch_query`` execution.
``repro.serve``
    The serving subsystem: schema-versioned wire codecs, the
    dict-in/dict-out :class:`ServiceApp` facade, token-addressed
    multi-tenant feedback sessions, a stdlib HTTP worker + thin client,
    and warm-worker snapshots (database + packed corpora + concept cache).
``repro.eval``
    Precision/recall machinery, experiment runner and ASCII reporting.
``repro.experiments``
    One configuration per table/figure of the paper's evaluation chapter.

Quickstart (stateful session)::

    from repro import quick_database, RetrievalSession

    db = quick_database("scenes", images_per_category=20, seed=7)
    session = RetrievalSession(db, scheme="inequality", beta=0.5, seed=7)
    session.add_examples(category="waterfall", n_positive=5, n_negative=5)
    result = session.train_and_rank()
    print(result.top(10))

Quickstart (service, any registered learner)::

    from repro import Query, RetrievalService

    service = RetrievalService(db)
    result = service.query(Query(
        positive_ids=session.positive_ids,
        negative_ids=session.negative_ids,
        learner="emdd",
        params={"seed": 7},
        top_k=10,
    ))
    print(result.top())
"""

from repro.version import __version__
from repro.api.learners import (
    Learner,
    LearnedModel,
    available_learners,
    make_learner,
    register_learner,
)
from repro.api.query import Query, QueryResult, QueryTiming
from repro.api.service import RetrievalService
from repro.bags.bag import Bag, BagSet, Instance
from repro.core.cache import CacheStats, ConceptCache
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import (
    DiverseDensityTrainer,
    ExtraStart,
    StartRecord,
    TrainerConfig,
    TrainingResult,
)
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.core.feedback import FeedbackLoop, FeedbackRound
from repro.core.retrieval import (
    PackedCorpus,
    RankedImage,
    Ranker,
    RetrievalResult,
)
from repro.core.schemes import WeightScheme, make_scheme
from repro.database.persistence import load_database, save_database
from repro.database.store import ImageDatabase
from repro.database.splits import DatabaseSplit, split_database
from repro.datasets.loader import build_object_database, build_scene_database, quick_database
from repro.eval.experiment import ExperimentConfig, ExperimentResult, RetrievalExperiment
from repro.session import RetrievalSession
from repro.serve import (
    WIRE_VERSION,
    ReproClient,
    ReproServer,
    ServiceApp,
    SessionStore,
    load_service,
    save_service,
)

__all__ = [
    "__version__",
    "Learner",
    "LearnedModel",
    "available_learners",
    "make_learner",
    "register_learner",
    "Query",
    "QueryResult",
    "QueryTiming",
    "RetrievalService",
    "Bag",
    "BagSet",
    "Instance",
    "CacheStats",
    "ConceptCache",
    "LearnedConcept",
    "DiverseDensityTrainer",
    "ExtraStart",
    "StartRecord",
    "TrainerConfig",
    "TrainingResult",
    "EMDDConfig",
    "EMDDTrainer",
    "FeedbackLoop",
    "FeedbackRound",
    "PackedCorpus",
    "RankedImage",
    "Ranker",
    "RetrievalResult",
    "WeightScheme",
    "make_scheme",
    "ImageDatabase",
    "DatabaseSplit",
    "split_database",
    "save_database",
    "load_database",
    "WIRE_VERSION",
    "ServiceApp",
    "SessionStore",
    "ReproServer",
    "ReproClient",
    "save_service",
    "load_service",
    "build_scene_database",
    "build_object_database",
    "quick_database",
    "ExperimentConfig",
    "ExperimentResult",
    "RetrievalExperiment",
    "RetrievalSession",
]
