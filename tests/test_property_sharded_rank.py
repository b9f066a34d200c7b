"""Property suite: sharded-pruned vs exhaustive vs loop ranking equivalence.

The sharded rank path's contract is *exact* pruning: for every corpus,
concept, shard partition, chunk size, exclusion set, category filter and
``top_k``, :class:`~repro.core.sharding.ShardedRanker` must produce the
same ordering as the exhaustive :class:`~repro.core.retrieval.Ranker` —
which in turn matches :func:`~repro.core.retrieval.rank_by_loop`.

Instance values, concept points and weights are drawn from *dyadic*
rationals (multiples of 1/4 within a few bits), so every weighted squared
distance is exactly representable in float64 no matter which kernel
computes it.  That makes exact distance ties — the hardest case for a
pruning cutoff, since a tied bag may still win on the id tie-break —
common rather than measure-zero, and makes cross-implementation
comparisons exact instead of tolerance-based.

Re-packing a corpus in clustered-centroid order
(:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`) must
never change a ranking either, and the permutation's id sequence must be
identical for any ingestion order of the same bags.
"""

import numpy as np
import pytest

from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    PackedCorpus,
    Ranker,
    RetrievalCandidate,
    rank_by_loop,
)
from repro.core.sharding import ShardIndex, ShardedRanker, centroid_order

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: Dyadic grid: sums/products of a few of these stay exact in float64.
dyadic = st.integers(-8, 8).map(lambda v: v / 4.0)


@st.composite
def corpora(draw):
    """A small packed corpus with shuffled ids and frequent value ties."""
    n_bags = draw(st.integers(1, 12))
    n_dims = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n_bags)))
    candidates = []
    for position in range(n_bags):
        n_instances = draw(st.integers(1, 3))
        values = draw(
            st.lists(
                dyadic,
                min_size=n_instances * n_dims,
                max_size=n_instances * n_dims,
            )
        )
        candidates.append(
            RetrievalCandidate(
                image_id=f"img-{order[position]:03d}",
                category=draw(st.sampled_from(["a", "b"])),
                instances=np.array(values).reshape(n_instances, n_dims),
            )
        )
    return PackedCorpus.from_candidates(candidates)


@st.composite
def concepts_for(draw, n_dims):
    t = np.array(draw(st.lists(dyadic, min_size=n_dims, max_size=n_dims)))
    w = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                min_size=n_dims,
                max_size=n_dims,
            )
        )
    )
    return LearnedConcept(t=t, w=w, nll=0.0)


def assert_same_ranking(fast, slow):
    assert fast.image_ids == slow.image_ids
    assert fast.total_candidates == slow.total_candidates
    # Dyadic inputs: every path computes the exact same distances.
    np.testing.assert_array_equal(fast.distances, slow.distances)
    assert [e.category for e in fast] == [e.category for e in slow]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), packed=corpora())
def test_sharded_matches_exhaustive_and_loop(data, packed):
    concept = data.draw(concepts_for(packed.n_dims))
    n_bags = packed.n_bags
    top_k = data.draw(
        st.sampled_from([1, min(3, n_bags), n_bags, n_bags + 5, None])
    )
    n_shards = data.draw(st.sampled_from([1, 2, n_bags]))  # incl. 1 bag/shard
    chunk_bags = data.draw(st.sampled_from([1, 2, 1024]))
    exclude = data.draw(st.sets(st.sampled_from(packed.image_ids)))
    category_filter = data.draw(st.sampled_from([None, "a"]))

    sharded = ShardedRanker(n_shards=n_shards, chunk_bags=chunk_bags).rank(
        concept, packed, top_k=top_k, exclude=exclude,
        category_filter=category_filter,
    )
    exhaustive = Ranker(auto_shard=False).rank(
        concept, packed, top_k=top_k, exclude=exclude,
        category_filter=category_filter,
    )
    assert_same_ranking(sharded, exhaustive)

    # The loop reference has no top_k/filter; compare against its prefix.
    survivors = [
        c for c in packed.candidates()
        if category_filter is None or c.category == category_filter
    ]
    loop = rank_by_loop(concept, survivors, exclude=exclude)
    kept = len(sharded)
    assert sharded.image_ids == loop.image_ids[:kept]
    np.testing.assert_array_equal(sharded.distances, loop.distances[:kept])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), packed=corpora())
def test_auto_routed_ranker_is_exact(data, packed):
    concept = data.draw(concepts_for(packed.n_dims))
    top_k = data.draw(st.sampled_from([1, 2, packed.n_bags]))
    routed = Ranker(min_shard_bags=1).rank(concept, packed, top_k=top_k)
    exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=top_k)
    assert_same_ranking(routed, exhaustive)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), packed=corpora())
def test_lower_bounds_are_valid_and_exact_on_dyadic_grids(data, packed):
    concept = data.draw(concepts_for(packed.n_dims))
    index = ShardIndex.build(packed)
    bounds = index.lower_bounds(concept)
    exact = packed.min_distances(concept)
    # Dyadic arithmetic is exact, so the bound inequality holds exactly.
    assert np.all(bounds <= exact)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), packed=corpora())
def test_threaded_scan_is_deterministic(data, packed):
    concept = data.draw(concepts_for(packed.n_dims))
    top_k = min(3, packed.n_bags)
    reference = ShardedRanker(n_shards=packed.n_bags, workers=1).rank(
        concept, packed, top_k=top_k
    )
    for _ in range(3):
        threaded = ShardedRanker(n_shards=packed.n_bags, workers=4).rank(
            concept, packed, top_k=top_k
        )
        assert threaded.image_ids == reference.image_ids
        np.testing.assert_array_equal(
            threaded.distances, reference.distances
        )


def test_mutation_invalidates_the_cached_index():
    """Adding an image rebuilds the packed view, so no stale index serves."""
    from repro.datasets.loader import quick_database
    from repro.imaging.features import FeatureConfig
    from repro.imaging.regions import region_family

    database = quick_database(
        "scenes", images_per_category=3, size=(48, 48), seed=5,
        feature_config=FeatureConfig(
            resolution=5, region_family=region_family("small9")
        ),
    )
    packed_before = database.packed()
    index_before = packed_before.shard_index()
    assert packed_before.cached_shard_index is index_before

    rng = np.random.default_rng(0)
    new_id = database.add_image(
        rng.uniform(0.0, 1.0, size=(48, 48)), "sunset"
    )
    packed_after = database.packed()
    assert packed_after is not packed_before
    assert packed_after.cached_shard_index is None  # fresh view, fresh index

    concept = LearnedConcept(
        t=rng.normal(size=packed_after.n_dims),
        w=rng.uniform(0.1, 1.0, packed_after.n_dims),
        nll=0.0,
    )
    routed = Ranker(min_shard_bags=1).rank(concept, packed_after, top_k=5)
    exhaustive = Ranker(auto_shard=False).rank(concept, packed_after, top_k=5)
    assert routed.image_ids == exhaustive.image_ids
    assert new_id in packed_after.image_ids
    assert packed_after.cached_shard_index is not None


@settings(max_examples=60, deadline=None)
@given(data=st.data(), packed=corpora())
def test_reordered_ranking_matches_exhaustive_and_loop(data, packed):
    concept = data.draw(concepts_for(packed.n_dims))
    n_bags = packed.n_bags
    top_k = data.draw(
        st.sampled_from([1, min(3, n_bags), n_bags, n_bags + 5, None])
    )
    group_size = data.draw(st.sampled_from([1, 2, 64]))
    exclude = data.draw(st.sets(st.sampled_from(packed.image_ids)))
    category_filter = data.draw(st.sampled_from([None, "a"]))

    reordered, permutation = packed.reordered_by_centroid(
        group_size=group_size
    )
    assert sorted(permutation.tolist()) == list(range(n_bags))
    fast = Ranker().rank(
        concept, reordered, top_k=top_k, exclude=exclude,
        category_filter=category_filter,
    )
    exhaustive = Ranker(auto_shard=False).rank(
        concept, packed, top_k=top_k, exclude=exclude,
        category_filter=category_filter,
    )
    assert_same_ranking(fast, exhaustive)

    # The loop reference has no top_k/filter; compare against its prefix.
    survivors = [
        c for c in packed.candidates()
        if category_filter is None or c.category == category_filter
    ]
    loop = rank_by_loop(concept, survivors, exclude=exclude)
    kept = len(fast)
    assert fast.image_ids == loop.image_ids[:kept]
    np.testing.assert_array_equal(fast.distances, loop.distances[:kept])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), packed=corpora())
def test_centroid_order_ids_are_ingestion_order_independent(data, packed):
    group_size = data.draw(st.sampled_from([1, 2, 64]))
    shuffle = data.draw(st.permutations(range(packed.n_bags)))
    shuffled = packed.select(
        tuple(packed.image_ids[position] for position in shuffle)
    )
    ids_a = [
        packed.image_ids[i]
        for i in centroid_order(packed, group_size=group_size)
    ]
    ids_b = [
        shuffled.image_ids[i]
        for i in centroid_order(shuffled, group_size=group_size)
    ]
    assert ids_a == ids_b


def clustered_packed(n_bags=240, n_dims=6, seed=7, shuffle_seed=None):
    """A packed corpus of gaussian clusters, optionally shuffled."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(8, n_dims))
    ids, cats, mats = [], [], []
    for i in range(n_bags):
        center = centers[i % len(centers)]
        ids.append(f"img{i:05d}")
        cats.append(f"cat{i % len(centers)}")
        mats.append(center + rng.normal(0.0, 0.05, size=(4, n_dims)))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n_bags)
        ids = [ids[j] for j in order]
        cats = [cats[j] for j in order]
        mats = [mats[j] for j in order]
    return PackedCorpus.pack(ids, cats, mats)


class TestCentroidReordering:
    def test_permutation_is_id_stable_across_ingestion_orders(self):
        a = clustered_packed()
        b = clustered_packed(shuffle_seed=3)
        ids_a = [a.image_ids[i] for i in centroid_order(a)]
        ids_b = [b.image_ids[i] for i in centroid_order(b)]
        assert ids_a == ids_b

    def test_reordered_view_keeps_every_bag(self):
        packed = clustered_packed()
        reordered, permutation = packed.reordered_by_centroid()
        assert sorted(reordered.image_ids) == sorted(packed.image_ids)
        assert sorted(permutation.tolist()) == list(range(packed.n_bags))
        np.testing.assert_array_equal(
            reordered.bag_instances(packed.image_ids[5]),
            packed.bag_instances(packed.image_ids[5]),
        )

    def test_reordered_ranking_is_ordering_identical(self):
        packed = clustered_packed()
        reordered, _ = packed.reordered_by_centroid()
        concept = LearnedConcept(
            t=np.full(packed.n_dims, 0.25), w=np.ones(packed.n_dims), nll=0.0
        )
        for top_k in (None, 7):
            before = Ranker().rank(concept, packed, top_k=top_k)
            after = Ranker().rank(concept, reordered, top_k=top_k)
            assert before.image_ids == after.image_ids
            np.testing.assert_array_equal(before.distances, after.distances)
