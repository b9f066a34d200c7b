"""Property-based tests of :class:`~repro.core.retrieval.Ranker` invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.concept import LearnedConcept
from repro.core.retrieval import Ranker, RetrievalCandidate


@st.composite
def retrieval_case(draw):
    n_images = draw(st.integers(min_value=1, max_value=12))
    n_dims = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    candidates = [
        RetrievalCandidate(
            image_id=f"img-{index:03d}",
            category=rng.choice(["a", "b"]),
            instances=rng.normal(size=(int(rng.integers(1, 5)), n_dims)),
        )
        for index in range(n_images)
    ]
    concept = LearnedConcept(
        t=rng.normal(size=n_dims), w=rng.uniform(0.01, 2.0, size=n_dims), nll=0.0
    )
    return concept, candidates


@given(retrieval_case())
@settings(max_examples=150, deadline=None)
def test_ranking_is_permutation_of_input(case):
    concept, candidates = case
    result = Ranker().rank(concept, candidates)
    assert sorted(result.image_ids) == sorted(c.image_id for c in candidates)


@given(retrieval_case())
@settings(max_examples=150, deadline=None)
def test_distances_sorted(case):
    concept, candidates = case
    result = Ranker().rank(concept, candidates)
    distances = result.distances
    assert np.all(np.diff(distances) >= -1e-12)


@given(retrieval_case(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_input_order_invariance(case, shuffle_seed):
    concept, candidates = case
    shuffled = list(candidates)
    np.random.default_rng(shuffle_seed).shuffle(shuffled)
    original = Ranker().rank(concept, candidates)
    reordered = Ranker().rank(concept, shuffled)
    assert original.image_ids == reordered.image_ids


@given(retrieval_case())
@settings(max_examples=100, deadline=None)
def test_exclusion_removes_only_excluded(case):
    concept, candidates = case
    if len(candidates) < 2:
        return
    excluded = candidates[0].image_id
    result = Ranker().rank(concept, candidates, exclude=[excluded])
    assert excluded not in result.image_ids
    assert len(result) == len(candidates) - 1
    # Relative order of the remaining images is unchanged.
    full = Ranker().rank(concept, candidates)
    remaining = [i for i in full.image_ids if i != excluded]
    assert list(result.image_ids) == remaining


@given(retrieval_case(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_uniform_weight_scaling_preserves_order(case, factor):
    concept, candidates = case
    scaled = LearnedConcept(
        t=concept.t, w=concept.w * factor, nll=concept.nll
    )
    original = Ranker().rank(concept, candidates)
    rescaled = Ranker().rank(scaled, candidates)
    assert original.image_ids == rescaled.image_ids


@given(retrieval_case())
@settings(max_examples=100, deadline=None)
def test_batch_index_agrees_with_engine(case):
    """The vectorised kernel must agree with a per-bag distance sort."""
    concept, candidates = case
    reference = Ranker().rank(concept, candidates)

    distances = np.array(
        [concept.bag_distance(c.instances) for c in candidates]
    )
    order = sorted(
        range(len(candidates)),
        key=lambda i: (distances[i], candidates[i].image_id),
    )
    assert tuple(candidates[i].image_id for i in order) == reference.image_ids
