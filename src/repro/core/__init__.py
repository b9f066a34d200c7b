"""The Diverse Density core: objective, optimisers, schemes, retrieval.

* :mod:`repro.core.objective` — noisy-or negative log Diverse Density and its
  analytic gradients (Section 2.2).
* :mod:`repro.core.optimizer` — unconstrained minimisers (bespoke Armijo
  gradient descent and L-BFGS-B), each one solver that steps any number of
  restarts in lockstep, with a one-start view.
* :mod:`repro.core.projection` — exact projection onto the weight constraint
  set and projected-gradient (lockstep, with a one-start view) / SLSQP
  constrained minimisers (Section 3.6.3).
* :mod:`repro.core.schemes` — the four weight-control schemes of Section 3.6.
* :mod:`repro.core.engine` — runs a restart population under a scheme on
  its lockstep solver, with per-restart convergence masks and dynamic
  restart pruning.
* :mod:`repro.core.diverse_density` — multi-restart training facade with the
  subset-of-positive-bags speed-up of Section 4.3.
* :mod:`repro.core.cache` — the fingerprint-keyed trained-concept cache.
* :mod:`repro.core.concept` — the learned concept ``(t, w)`` and bag scoring.
* :mod:`repro.core.retrieval` — min-distance ranking over an image database.
* :mod:`repro.core.sharding` — the sharded bound-pruned exact top-k rank
  index (per-bag envelopes, pruning threshold, best-first scan).
* :mod:`repro.core.feedback` — the simulated relevance-feedback loop of
  Section 4.1.
"""

from repro.core.cache import CacheStats, ConceptCache
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import (
    DiverseDensityTrainer,
    ExtraStart,
    StartRecord,
    TrainerConfig,
    TrainingResult,
)
from repro.core.feedback import FeedbackLoop, FeedbackRound
from repro.core.objective import BatchedDiverseDensityObjective, DiverseDensityObjective
from repro.core.optimizer import BatchedArmijoDescent, LockstepLBFGSB
from repro.core.projection import BatchedProjectedDescent
from repro.core.retrieval import (
    AUTO_SHARD_MIN_BAGS,
    PackedCorpus,
    RankedImage,
    Ranker,
    RetrievalResult,
    packed_view,
    rank_by_loop,
)
from repro.core.schemes import WeightScheme, make_scheme
from repro.core.sharding import ShardIndex, ShardedRanker

__all__ = [
    "CacheStats",
    "ConceptCache",
    "LearnedConcept",
    "DiverseDensityTrainer",
    "ExtraStart",
    "StartRecord",
    "TrainerConfig",
    "TrainingResult",
    "BatchedArmijoDescent",
    "BatchedProjectedDescent",
    "LockstepLBFGSB",
    "FeedbackLoop",
    "FeedbackRound",
    "BatchedDiverseDensityObjective",
    "DiverseDensityObjective",
    "AUTO_SHARD_MIN_BAGS",
    "PackedCorpus",
    "RankedImage",
    "Ranker",
    "RetrievalResult",
    "ShardIndex",
    "ShardedRanker",
    "packed_view",
    "rank_by_loop",
    "WeightScheme",
    "make_scheme",
]
