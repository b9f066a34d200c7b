"""Unit tests for the EM-DD extension trainer."""

import numpy as np
import pytest

from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.errors import BagError, TrainingError
from tests.conftest import make_planted_bag_set


class TestEMDDConfig:
    def test_defaults(self):
        config = EMDDConfig()
        assert config.inner_scheme == "identical"
        assert config.max_em_iterations == 10

    def test_invalid_em_iterations(self):
        with pytest.raises(TrainingError):
            EMDDConfig(max_em_iterations=0)

    def test_invalid_tolerance(self):
        with pytest.raises(TrainingError):
            EMDDConfig(tolerance=-1.0)

    def test_resolve_named_scheme(self):
        assert EMDDConfig(inner_scheme="original").resolve_scheme().name == "original"


class TestEMDDTraining:
    def test_recovers_planted_concept(self):
        bag_set, concept = make_planted_bag_set(n_dims=4, seed=31)
        trainer = EMDDTrainer(EMDDConfig(max_inner_iterations=100))
        result = trainer.train(bag_set)
        assert np.linalg.norm(result.concept.t - concept) < 0.5

    def test_nll_comparable_to_dd(self):
        # EM-DD is scored on the full noisy-or objective, so its best NLL
        # should land close to the full DD trainer's on an easy problem.
        bag_set, _ = make_planted_bag_set(n_dims=3, seed=32)
        dd = DiverseDensityTrainer(
            TrainerConfig(scheme="identical", max_iterations=120)
        ).train(bag_set)
        emdd = EMDDTrainer(EMDDConfig(max_inner_iterations=120)).train(bag_set)
        assert emdd.concept.nll <= dd.concept.nll * 1.5 + 1.0

    def test_requires_positive_bags(self):
        from repro.bags.bag import Bag, BagSet

        bag_set = BagSet([Bag(instances=np.zeros((2, 3)), label=False, bag_id="n")])
        with pytest.raises(BagError):
            EMDDTrainer().train(bag_set)

    def test_scheme_label_in_concept(self):
        bag_set, _ = make_planted_bag_set(seed=33)
        result = EMDDTrainer(EMDDConfig(inner_scheme="identical")).train(bag_set)
        assert result.concept.scheme.startswith("emdd(")

    def test_subset_restarts(self):
        bag_set, _ = make_planted_bag_set(
            n_positive=4, instances_per_bag=4, seed=34
        )
        trainer = EMDDTrainer(EMDDConfig(start_bag_subset=2, seed=5))
        result = trainer.train(bag_set)
        assert result.n_starts == 2 * 4
        assert len({record.bag_id for record in result.starts}) == 2

    def test_stride_restarts(self):
        bag_set, _ = make_planted_bag_set(
            n_positive=2, instances_per_bag=6, seed=35
        )
        trainer = EMDDTrainer(EMDDConfig(start_instance_stride=3))
        assert trainer.train(bag_set).n_starts == 4

    def test_deterministic(self):
        bag_set, _ = make_planted_bag_set(seed=36)
        config = EMDDConfig(max_inner_iterations=60)
        first = EMDDTrainer(config).train(bag_set)
        second = EMDDTrainer(config).train(bag_set)
        np.testing.assert_allclose(first.concept.t, second.concept.t)

    def test_constrained_inner_scheme(self):
        from repro.core.projection import is_feasible

        bag_set, _ = make_planted_bag_set(seed=37)
        trainer = EMDDTrainer(
            EMDDConfig(inner_scheme="inequality", beta=0.5, max_inner_iterations=60)
        )
        result = trainer.train(bag_set)
        assert is_feasible(result.concept.w, 0.5, tolerance=1e-5)

    def test_fewer_objective_touches_than_dd(self):
        # The point of EM-DD: each M-step objective touches one instance
        # per bag.  Proxy check: wall time no worse than 3x DD on the same
        # problem with the same restart budget (usually much faster; the
        # loose bound keeps the test robust on shared CI boxes).
        bag_set, _ = make_planted_bag_set(
            n_positive=4, n_negative=4, instances_per_bag=10, seed=38
        )
        dd = DiverseDensityTrainer(
            TrainerConfig(scheme="identical", max_iterations=80)
        ).train(bag_set)
        emdd = EMDDTrainer(EMDDConfig(max_inner_iterations=80)).train(bag_set)
        assert emdd.elapsed_seconds <= max(3.0 * dd.elapsed_seconds, 5.0)

    def test_retrieval_quality_on_real_bags(self, tiny_scene_db):
        from repro.bags.bag import BagSet
        from repro.core.retrieval import Ranker
        from repro.eval.metrics import average_precision

        bag_set = BagSet()
        for image_id in tiny_scene_db.ids_in_category("sunset")[:3]:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=True))
        for image_id in tiny_scene_db.ids_in_category("waterfall")[:3]:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=False))
        concept = EMDDTrainer(EMDDConfig(max_inner_iterations=60)).train(bag_set).concept
        examples = {bag.bag_id for bag in bag_set.bags}
        ranking = Ranker().rank(concept, tiny_scene_db, exclude=examples)
        ap = average_precision(ranking.relevance("sunset"))
        base_rate = 3 / (len(tiny_scene_db) - 6)
        assert ap > base_rate + 0.1
