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

Dyadic grids hide rounding, so a second family of properties draws
*normal-distributed* values (plus byte-identical copies of some bags, so
exact ties still occur) and requires bitwise-equal distances: the kernel
is row-invariant, so :meth:`~repro.core.retrieval.PackedCorpus.min_distances_at`
over any gathered subset equals the full pass, and the exhaustive, sharded
(any partition, group size or chunk size, including chunks smaller than a
group) and merged-fragment paths return identical results, as does every
fragment over an unaligned range against the exhaustive ranking of just
that range.

Re-packing a corpus in clustered-centroid order
(:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`) must
never change a ranking either, and the permutation's id sequence must be
identical for any ingestion order of the same bags.
"""

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro.core import retrieval
from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    PackedCorpus,
    Ranker,
    RetrievalCandidate,
    build_result,
    keep_mask,
    rank_by_loop,
    rank_exhaustive,
    top_order,
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
    group_size = data.draw(st.sampled_from([1, 2, 3, 64]))
    chunk_bags = data.draw(st.sampled_from([1, 2, 1024]))
    exclude = data.draw(st.sets(st.sampled_from(packed.image_ids)))
    category_filter = data.draw(st.sampled_from([None, "a"]))

    sharded = ShardedRanker(chunk_bags=chunk_bags).rank(
        concept, packed, top_k=top_k, exclude=exclude,
        category_filter=category_filter,
        index=ShardIndex.build(
            packed, n_shards=n_shards, group_size=group_size
        ),
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
    with mock.patch.object(retrieval, "AUTO_SHARD_MIN_BAGS", 1):
        routed = Ranker().rank(concept, packed, top_k=top_k)
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
    # Scans running at once on several caller threads answer exactly as
    # one scan alone does.
    concept = data.draw(concepts_for(packed.n_dims))
    top_k = min(3, packed.n_bags)
    index = ShardIndex.build(packed, n_shards=packed.n_bags, group_size=2)
    reference = ShardedRanker().rank(concept, packed, top_k=top_k, index=index)
    with ThreadPoolExecutor(max_workers=4) as callers:
        answers = list(callers.map(
            lambda _: ShardedRanker(chunk_bags=1).rank(
                concept, packed, top_k=top_k, index=index
            ),
            range(8),
        ))
    for threaded in answers:
        assert threaded.image_ids == reference.image_ids
        np.testing.assert_array_equal(threaded.distances, reference.distances)


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
    routed = ShardedRanker().rank(concept, packed_after, top_k=5)
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


@st.composite
def normal_corpora(draw):
    """A small packed corpus of normal-distributed (non-dyadic) values.

    Coordinates get their own scale and offset, so the expanded kernel's
    terms differ in magnitude; some bags are byte-identical copies of
    others (exact ties), and the row count takes every residue mod 4.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bags = draw(st.integers(1, 40))
    n_dims = draw(st.integers(1, 9))
    scale = rng.uniform(0.1, 10.0, size=n_dims)
    shift = rng.normal(scale=5.0, size=n_dims)
    matrices = [
        rng.normal(size=(int(rng.integers(1, 6)), n_dims)) * scale + shift
        for _ in range(n_bags)
    ]
    for _ in range(draw(st.integers(0, n_bags // 2))):
        source, target = rng.integers(n_bags, size=2)
        matrices[target] = matrices[source].copy()
    ids = [f"img-{position:03d}" for position in rng.permutation(n_bags)]
    categories = rng.choice(["a", "b"], size=n_bags).tolist()
    return PackedCorpus.pack(ids, categories, matrices)


@st.composite
def normal_concepts(draw, packed):
    """A concept near one instance (so top ranks are contested) with
    random non-negative weights, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchor = packed.instances[rng.integers(packed.n_instances)]
    t = anchor + rng.normal(scale=draw(st.sampled_from([0.0, 0.01, 1.0])),
                            size=packed.n_dims)
    w = rng.uniform(0.0, 2.0, size=packed.n_dims)
    w[rng.random(packed.n_dims) < 0.2] = 0.0
    return LearnedConcept(t=t, w=w, nll=0.0)


def assert_identical_results(got, want):
    assert got.image_ids == want.image_ids
    assert [e.category for e in got] == [e.category for e in want]
    assert [e.rank for e in got] == [e.rank for e in want]
    assert got.total_candidates == want.total_candidates
    np.testing.assert_array_equal(got.distances, want.distances)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), packed=normal_corpora())
def test_min_distances_at_is_bitwise_min_distances(data, packed):
    concept = data.draw(normal_concepts(packed))
    order = np.array(data.draw(st.permutations(range(packed.n_bags))))
    size = data.draw(st.integers(1, packed.n_bags))
    chunk = data.draw(st.integers(1, packed.n_bags))
    # Before the full pass: squares computed per gather, not cached.
    gathered = packed.min_distances_at(concept, order)
    full = packed.min_distances(concept)
    np.testing.assert_array_equal(gathered, full[order])
    np.testing.assert_array_equal(
        packed.min_distances_at(concept, order[:size]), full[order[:size]]
    )
    pieces = [
        packed.min_distances_at(concept, order[i : i + chunk])
        for i in range(0, order.size, chunk)
    ]
    np.testing.assert_array_equal(np.concatenate(pieces), full[order])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), packed=normal_corpora())
def test_every_rank_path_returns_identical_results(data, packed):
    concept = data.draw(normal_concepts(packed))
    n_bags = packed.n_bags
    top_k = data.draw(
        st.sampled_from([1, min(3, n_bags), n_bags, n_bags + 5, None])
    )
    exclude = data.draw(st.sets(st.sampled_from(packed.image_ids)))
    category_filter = data.draw(st.sampled_from([None, "a"]))
    group_size = data.draw(st.sampled_from([1, 2, 3, 5, 64]))
    query = dict(top_k=top_k, exclude=exclude, category_filter=category_filter)

    exhaustive = Ranker(auto_shard=False).rank(concept, packed, **query)
    for n_shards in sorted({1, 3, n_bags}):
        index = ShardIndex.build(
            packed, n_shards=n_shards, group_size=group_size
        )
        # Chunks below, at and above the group size.
        for chunk_bags in sorted({1, 3, group_size, 1024}):
            sharded = ShardedRanker(chunk_bags=chunk_bags).rank(
                concept, packed, index=index, **query
            )
            assert_identical_results(sharded, exhaustive)

    keep = keep_mask(packed, exclude, category_filter)
    total = int(np.count_nonzero(keep))
    if top_k is not None and top_k < total:
        cuts = sorted(
            {0, n_bags, *data.draw(st.lists(st.integers(0, n_bags), max_size=4))}
        )
        index = ShardIndex.build(packed, group_size=group_size)
        fragments = [
            ShardedRanker(chunk_bags=1).fragment_candidates(
                concept, packed, top_k=top_k, start=a, stop=b,
                exclude=exclude, category_filter=category_filter, index=index,
            )
            for a, b in zip(cuts, cuts[1:])
        ]
        positions = np.concatenate([f[0] for f in fragments])
        distances = np.concatenate([f[1] for f in fragments])
        ids = packed.id_array[positions]
        merged = build_result(
            ids, packed.category_array[positions], distances,
            top_order(ids, distances, top_k), total,
        )
        assert_identical_results(merged, exhaustive)

    survivors = [
        c for c in packed.candidates()
        if category_filter is None or c.category == category_filter
    ]
    loop = rank_by_loop(concept, survivors, exclude=exclude)
    assert exhaustive.image_ids == loop.image_ids[: len(exhaustive)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), packed=normal_corpora())
def test_fragment_over_an_unaligned_range_is_that_range_exhaustively(
    data, packed
):
    # A fragment's candidates, merged alone, are the exhaustive top-k of
    # just its range: ranges cut groups anywhere, and chunks may be
    # smaller than a group.
    concept = data.draw(normal_concepts(packed))
    n_bags = packed.n_bags
    start = data.draw(st.integers(0, n_bags - 1))
    stop = data.draw(st.integers(start + 1, n_bags))
    group_size = data.draw(st.sampled_from([1, 2, 3, 4, 7]))
    chunk_bags = data.draw(st.integers(1, group_size + 1))
    top_k = data.draw(st.integers(1, n_bags))
    category_filter = data.draw(st.sampled_from([None, "a"]))
    keep = keep_mask(packed, (), category_filter)
    keep[:start] = False
    keep[stop:] = False
    total = int(np.count_nonzero(keep))
    positions, distances, _ = ShardedRanker(
        chunk_bags=chunk_bags
    ).fragment_candidates(
        concept, packed, top_k=top_k, start=start, stop=stop,
        category_filter=category_filter,
        index=ShardIndex.build(packed, group_size=group_size),
    )
    ids = packed.id_array[positions]
    merged = build_result(
        ids, packed.category_array[positions], distances,
        top_order(ids, distances, top_k), total,
    )
    assert_identical_results(
        merged, rank_exhaustive(concept, packed, keep, top_k)
    )


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
