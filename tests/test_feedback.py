"""Unit tests for the simulated relevance-feedback loop."""

import numpy as np
import pytest

from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.feedback import (
    ExampleSelection,
    FeedbackLoop,
    select_examples,
)
from repro.core.retrieval import PackedCorpus
from repro.errors import TrainingError


class ToyCorpus:
    """A corpus of 1-instance bags on a line; category 'pos' sits near 0."""

    def __init__(self, n_per_category: int = 8, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._items: dict[str, tuple[str, np.ndarray]] = {}
        for index in range(n_per_category):
            vec = np.array([rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)])
            self._items[f"pos-{index}"] = ("pos", vec.reshape(1, 2))
        for index in range(n_per_category):
            vec = np.array([rng.normal(4.0, 0.3), rng.normal(4.0, 0.3)])
            self._items[f"neg-{index}"] = ("neg", vec.reshape(1, 2))
        # A decoy category living between the clusters.
        for index in range(n_per_category):
            vec = np.array([rng.normal(1.5, 0.3), rng.normal(1.5, 0.3)])
            self._items[f"decoy-{index}"] = ("decoy", vec.reshape(1, 2))

    @property
    def ids(self):
        return tuple(self._items)

    def instances_for(self, image_id: str) -> np.ndarray:
        return self._items[image_id][1]

    def category_of(self, image_id: str) -> str:
        return self._items[image_id][0]

    def packed(self, ids=None):
        chosen = self.ids if ids is None else tuple(ids)
        return PackedCorpus.pack(
            chosen,
            [self.category_of(i) for i in chosen],
            [self.instances_for(i) for i in chosen],
        )


@pytest.fixture()
def corpus():
    return ToyCorpus()


class TestSelectExamples:
    def test_counts(self, corpus):
        selection = select_examples(corpus, corpus.ids, "pos", 3, 4, seed=1)
        assert len(selection.positive_ids) == 3
        assert len(selection.negative_ids) == 4

    def test_positive_ids_in_category(self, corpus):
        selection = select_examples(corpus, corpus.ids, "pos", 3, 3, seed=2)
        assert all(corpus.category_of(i) == "pos" for i in selection.positive_ids)
        assert all(corpus.category_of(i) != "pos" for i in selection.negative_ids)

    def test_deterministic(self, corpus):
        a = select_examples(corpus, corpus.ids, "pos", 3, 3, seed=5)
        b = select_examples(corpus, corpus.ids, "pos", 3, 3, seed=5)
        assert a == b

    def test_different_seeds_differ(self, corpus):
        picks = {
            select_examples(corpus, corpus.ids, "pos", 3, 3, seed=s).positive_ids
            for s in range(6)
        }
        assert len(picks) > 1

    def test_insufficient_positives_raise(self, corpus):
        with pytest.raises(TrainingError):
            select_examples(corpus, corpus.ids, "pos", 100, 3, seed=0)

    def test_insufficient_negatives_raise(self, corpus):
        with pytest.raises(TrainingError):
            select_examples(corpus, corpus.ids, "pos", 3, 100, seed=0)


class TestFeedbackLoop:
    def make_loop(self, corpus, rounds=3, fp=2) -> FeedbackLoop:
        trainer = DiverseDensityTrainer(
            TrainerConfig(scheme="identical", max_iterations=60)
        )
        potential = [i for i in corpus.ids if int(i.split("-")[1]) < 4]
        test = [i for i in corpus.ids if int(i.split("-")[1]) >= 4]
        return FeedbackLoop(
            corpus=corpus,
            trainer=trainer,
            target_category="pos",
            potential_ids=potential,
            test_ids=test,
            rounds=rounds,
            false_positives_per_round=fp,
        )

    def selection(self, corpus) -> ExampleSelection:
        potential = [i for i in corpus.ids if int(i.split("-")[1]) < 4]
        return select_examples(corpus, potential, "pos", 2, 2, seed=0)

    def test_round_count(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        assert len(outcome.rounds) == 3
        assert [r.index for r in outcome.rounds] == [1, 2, 3]

    def test_negatives_grow_by_promotion(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        first, second, final = outcome.rounds
        assert second.n_negative_bags >= first.n_negative_bags
        assert final.added_negative_ids == ()  # no promotion after last round

    def test_promoted_ids_are_false_positives(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        for record in outcome.rounds[:-1]:
            for image_id in record.added_negative_ids:
                assert corpus.category_of(image_id) != "pos"

    def test_test_ranking_excludes_examples(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        ranked_ids = set(outcome.test_ranking.image_ids)
        assert not ranked_ids & set(outcome.example_ids)

    def test_retrieval_finds_target(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        top = outcome.test_ranking.top(3)
        assert all(entry.category == "pos" for entry in top)

    def test_single_round_no_promotion(self, corpus):
        outcome = self.make_loop(corpus, rounds=1).run(self.selection(corpus))
        assert len(outcome.rounds) == 1
        assert outcome.rounds[0].added_negative_ids == ()

    def test_zero_fp_per_round(self, corpus):
        outcome = self.make_loop(corpus, fp=0).run(self.selection(corpus))
        sizes = {r.n_negative_bags for r in outcome.rounds}
        assert sizes == {2}

    def test_invalid_rounds_rejected(self, corpus):
        with pytest.raises(TrainingError):
            self.make_loop(corpus, rounds=0)

    def test_invalid_fp_rejected(self, corpus):
        with pytest.raises(TrainingError):
            self.make_loop(corpus, fp=-1)

    def test_nll_recorded_per_round(self, corpus):
        outcome = self.make_loop(corpus).run(self.selection(corpus))
        assert all(np.isfinite(record.nll) for record in outcome.rounds)
