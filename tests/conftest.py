"""Shared fixtures for the test suite.

Expensive fixtures (featurised databases, planted MIL problems) are session
scoped; everything in them is deterministic, so sharing is safe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bags.bag import Bag, BagSet
from repro.datasets.loader import quick_database
from repro.imaging.features import FeatureConfig
from repro.imaging.regions import region_family


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A seeded generator for miscellaneous randomness."""
    return np.random.default_rng(12345)


def make_planted_bag_set(
    n_dims: int = 4,
    n_positive: int = 5,
    n_negative: int = 4,
    instances_per_bag: int = 6,
    concept_scale: float = 4.0,
    noise: float = 0.15,
    seed: int = 42,
) -> tuple[BagSet, np.ndarray]:
    """A synthetic MIL problem with a known planted concept point.

    Every positive bag holds one instance near the planted point plus
    distractors; negative bags hold only distractors.  Returns the bag set
    and the planted point.
    """
    generator = np.random.default_rng(seed)
    concept = generator.uniform(-1.0, 1.0, size=n_dims)
    bag_set = BagSet()
    for bag_index in range(n_positive):
        distractors = generator.uniform(-1, 1, size=(instances_per_bag - 1, n_dims))
        distractors *= concept_scale  # far from the concept
        hit = concept + generator.normal(0.0, noise, size=n_dims)
        instances = np.vstack([distractors[: instances_per_bag // 2], hit,
                               distractors[instances_per_bag // 2 :]])
        bag_set.add(Bag(instances=instances, label=True, bag_id=f"pos-{bag_index}"))
    for bag_index in range(n_negative):
        distractors = generator.uniform(-1, 1, size=(instances_per_bag, n_dims))
        distractors *= concept_scale
        # Reject distractors that land near the concept.
        too_close = np.linalg.norm(distractors - concept, axis=1) < 1.0
        distractors[too_close] += 3.0
        bag_set.add(Bag(instances=distractors, label=False, bag_id=f"neg-{bag_index}"))
    return bag_set, concept


@pytest.fixture(scope="session")
def planted() -> tuple[BagSet, np.ndarray]:
    """The default planted MIL problem."""
    return make_planted_bag_set()


@pytest.fixture(scope="session")
def tiny_scene_db():
    """A small featurised scene database shared across tests."""
    config = FeatureConfig(resolution=6, region_family=region_family("small9"))
    database = quick_database(
        "scenes", images_per_category=6, size=(48, 48), seed=2, feature_config=config
    )
    database.precompute_features()
    return database


@pytest.fixture(scope="session")
def tiny_object_db():
    """A small featurised object database shared across tests."""
    config = FeatureConfig(resolution=6, region_family=region_family("small9"))
    database = quick_database(
        "objects", images_per_category=4, size=(48, 48), seed=2, feature_config=config
    )
    database.precompute_features()
    return database
