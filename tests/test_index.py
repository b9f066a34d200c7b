"""Ranking a featurised database through its cached packed view."""

import numpy as np
import pytest

from repro.core.concept import LearnedConcept
from repro.core.retrieval import Ranker, rank_by_loop
from repro.imaging.features import FeatureConfig
from repro.imaging.regions import region_family


@pytest.fixture(scope="module")
def tiny_scene_db_module():
    from repro.datasets.loader import quick_database

    config = FeatureConfig(resolution=6, region_family=region_family("small9"))
    database = quick_database(
        "scenes", images_per_category=5, size=(48, 48), seed=4, feature_config=config
    )
    database.precompute_features()
    return database


def concept_for(database) -> LearnedConcept:
    n_dims = database.feature_config.n_dims
    rng = np.random.default_rng(0)
    return LearnedConcept(t=rng.normal(size=n_dims), w=rng.uniform(0.2, 1, n_dims), nll=0.0)


class TestDatabasePackedView:
    def test_shapes(self, tiny_scene_db_module):
        database = tiny_scene_db_module
        packed = database.packed()
        assert packed.n_bags == len(database)
        assert packed.n_dims == database.feature_config.n_dims
        assert packed.n_instances >= packed.n_bags

    def test_distances_match_per_bag(self, tiny_scene_db_module):
        database = tiny_scene_db_module
        packed = database.packed()
        concept = concept_for(database)
        batch = packed.min_distances(concept)
        for position, image_id in enumerate(packed.image_ids):
            expected = concept.bag_distance(database.instances_for(image_id))
            assert batch[position] == pytest.approx(expected, rel=1e-9)

    def test_ranking_identical_to_loop(self, tiny_scene_db_module):
        database = tiny_scene_db_module
        concept = concept_for(database)
        batch = Ranker().rank(concept, database.packed())
        reference = rank_by_loop(concept, database.retrieval_candidates())
        assert batch.image_ids == reference.image_ids
        np.testing.assert_allclose(batch.distances, reference.distances, rtol=1e-9)

    def test_exclusion(self, tiny_scene_db_module):
        database = tiny_scene_db_module
        concept = concept_for(database)
        skipped = database.image_ids[0]
        result = Ranker().rank(concept, database.packed(), exclude=[skipped])
        assert skipped not in result.image_ids
        assert len(result) == len(database) - 1
        reference = rank_by_loop(
            concept, database.retrieval_candidates(), exclude=[skipped]
        )
        assert result.image_ids == reference.image_ids

    def test_subset_view(self, tiny_scene_db_module):
        database = tiny_scene_db_module
        subset = database.ids_in_category("sunset")
        concept = concept_for(database)
        result = Ranker().rank(concept, database.packed(subset))
        assert set(result.image_ids) == set(subset)
        reference = rank_by_loop(concept, database.retrieval_candidates(subset))
        assert result.image_ids == reference.image_ids

    def test_database_satisfies_the_corpus_protocol(self, tiny_scene_db_module):
        # The database offers packed(), so it can be ranked directly.
        database = tiny_scene_db_module
        concept = concept_for(database)
        via_database = Ranker().rank(concept, database)
        direct = Ranker().rank(concept, database.packed())
        assert via_database.image_ids == direct.image_ids
