"""Integration tests: the full stack wired together on small data.

These exercise realistic end-to-end flows (database -> features -> DD ->
retrieval -> evaluation) and the cross-module contracts the unit tests
cannot see.
"""

import numpy as np
import pytest

from repro.baselines.rankers import RandomRanker
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.database.persistence import load_database, save_database
from repro.database.splits import split_database
from repro.eval.experiment import ExperimentConfig, RetrievalExperiment
from repro.eval.metrics import average_precision
from repro.session import RetrievalSession


class TestEndToEndRetrieval:
    def test_mil_beats_random_on_scenes(self, tiny_scene_db):
        config = ExperimentConfig(
            target_category="sunset",
            scheme="identical",
            n_positive=2,
            n_negative=2,
            rounds=2,
            false_positives_per_round=2,
            training_fraction=0.4,
            max_iterations=50,
            seed=1,
        )
        result = RetrievalExperiment(tiny_scene_db, config).run()
        base_rate = result.n_relevant / len(result.relevance)
        # Random ranking has expected AP ~ base rate; demand a clear margin.
        assert result.average_precision > base_rate + 0.1

    def test_mil_beats_random_on_objects(self, tiny_object_db):
        config = ExperimentConfig(
            target_category="car",
            scheme="identical",
            n_positive=2,
            n_negative=2,
            rounds=2,
            false_positives_per_round=2,
            training_fraction=0.5,
            max_iterations=50,
            seed=2,
        )
        result = RetrievalExperiment(tiny_object_db, config).run()
        base_rate = result.n_relevant / len(result.relevance)
        assert result.average_precision > base_rate + 0.1

    def test_random_ranker_near_base_rate(self, tiny_scene_db):
        split = split_database(tiny_scene_db, training_fraction=0.4, seed=0)
        values = []
        for seed in range(8):
            ranking = RandomRanker(seed=seed).rank(tiny_scene_db, split.test_ids)
            values.append(average_precision(ranking.relevance("sunset")))
        base_rate = sum(
            1 for i in split.test_ids if tiny_scene_db.category_of(i) == "sunset"
        ) / len(split.test_ids)
        assert np.mean(values) == pytest.approx(base_rate, abs=0.15)

    def test_feedback_rounds_help_or_hold(self, tiny_scene_db):
        """Three rounds of feedback should not be much worse than one."""
        base = ExperimentConfig(
            target_category="waterfall",
            scheme="identical",
            n_positive=2,
            n_negative=2,
            training_fraction=0.4,
            max_iterations=50,
            seed=3,
            false_positives_per_round=2,
        )
        one = RetrievalExperiment(tiny_scene_db, base.with_overrides(rounds=1)).run()
        three = RetrievalExperiment(tiny_scene_db, base.with_overrides(rounds=3)).run()
        assert three.average_precision >= one.average_precision - 0.25


class TestSessionAgainstExperiment:
    def test_session_matches_engine_ranking(self, tiny_scene_db):
        session = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=50, seed=5
        )
        session.add_examples("field", 2, 2)
        result = session.train_and_rank()
        # Re-rank manually with the same concept; must agree exactly.
        from repro.core.retrieval import Ranker, rank_by_loop

        examples = set(session.positive_ids) | set(session.negative_ids)
        manual = Ranker().rank(session.concept, tiny_scene_db, exclude=examples)
        assert manual.image_ids == result.image_ids
        oracle = rank_by_loop(
            session.concept, tiny_scene_db.retrieval_candidates(), exclude=examples
        )
        assert manual.image_ids == oracle.image_ids


class TestPersistenceRoundtripBehaviour:
    def test_rankings_survive_snapshot(self, tmp_path, tiny_scene_db):
        session = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=40, seed=6
        )
        session.add_examples("sunset", 2, 2)
        before = session.train_and_rank()

        path = save_database(tiny_scene_db, tmp_path / "db.npz")
        restored = load_database(path)
        session2 = RetrievalSession(
            restored, scheme="identical", max_iterations=40, seed=6
        )
        session2.add_examples("sunset", 2, 2)
        after = session2.train_and_rank()
        assert before.image_ids == after.image_ids


class TestTrainerOnRealBags:
    def test_concept_lands_near_positive_instances(self, tiny_scene_db):
        from repro.bags.bag import BagSet

        ids = tiny_scene_db.ids_in_category("waterfall")[:3]
        neg_ids = tiny_scene_db.ids_in_category("field")[:3]
        bag_set = BagSet()
        for image_id in ids:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=True))
        for image_id in neg_ids:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=False))
        trainer = DiverseDensityTrainer(
            TrainerConfig(scheme="identical", max_iterations=50)
        )
        concept = trainer.train(bag_set).concept
        # The concept must be closer to every positive bag than to the
        # farthest negative bag (min-distance semantics).
        pos_distances = [
            concept.bag_distance(tiny_scene_db.instances_for(i)) for i in ids
        ]
        neg_distances = [
            concept.bag_distance(tiny_scene_db.instances_for(i)) for i in neg_ids
        ]
        assert max(pos_distances) < max(neg_distances)

    def test_subset_speedup_preserves_quality(self, tiny_scene_db):
        from repro.bags.bag import BagSet

        bag_set = BagSet()
        for image_id in tiny_scene_db.ids_in_category("sunset")[:4]:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=True))
        for image_id in tiny_scene_db.ids_in_category("mountain")[:3]:
            bag_set.add(tiny_scene_db.bag_for(image_id, label=False))
        full = DiverseDensityTrainer(
            TrainerConfig(scheme="identical", max_iterations=50)
        ).train(bag_set)
        subset = DiverseDensityTrainer(
            TrainerConfig(
                scheme="identical", max_iterations=50, start_bag_subset=2, seed=1
            )
        ).train(bag_set)
        # Fewer starts, same objective landscape: NLL within a tolerance.
        assert subset.concept.nll <= full.concept.nll * 1.5 + 1.0
        assert subset.n_starts < full.n_starts
