"""Unit tests for the sharded bound-pruned rank index (repro.core.sharding)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.service import RetrievalService
from repro.core import retrieval, sharding
from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    AUTO_SHARD_MIN_BAGS,
    PackedCorpus,
    Ranker,
    RetrievalCandidate,
    packed_view,
    rank_by_loop,
)
from repro.core.sharding import (
    DEFAULT_SHARD_BAGS,
    MAX_AUTO_SHARDS,
    ShardIndex,
    ShardedRanker,
    envelope_bounds,
    shard_boundaries,
)
from repro.errors import DatabaseError


def synthetic_packed(n_bags=300, n_dims=8, seed=3, max_instances=5):
    rng = np.random.default_rng(seed)
    candidates = []
    for index in range(n_bags):
        n = int(rng.integers(1, max_instances + 1))
        candidates.append(
            RetrievalCandidate(
                image_id=f"img-{index:05d}",
                category=("even", "odd")[index % 2],
                instances=rng.normal(size=(n, n_dims)),
            )
        )
    return PackedCorpus.from_candidates(candidates)


def seeded_concept(n_dims, seed=7):
    rng = np.random.default_rng(seed)
    return LearnedConcept(
        t=rng.normal(size=n_dims), w=rng.uniform(0.05, 1.0, n_dims), nll=0.0
    )


class TestShardBoundaries:
    def test_automatic_partition_scales_with_bags(self):
        assert shard_boundaries(10).tolist() == [0, 10]
        two = shard_boundaries(2 * DEFAULT_SHARD_BAGS)
        assert len(two) == 3 and two[-1] == 2 * DEFAULT_SHARD_BAGS

    def test_automatic_partition_is_capped(self):
        huge = shard_boundaries(100 * DEFAULT_SHARD_BAGS)
        assert len(huge) == MAX_AUTO_SHARDS + 1

    def test_explicit_count_clamped_to_bags(self):
        assert shard_boundaries(3, 10).tolist() == [0, 1, 2, 3]

    def test_partition_covers_exactly(self):
        bounds = shard_boundaries(1000, 7)
        assert bounds[0] == 0 and bounds[-1] == 1000
        assert np.all(np.diff(bounds) >= 1)

    def test_empty_and_invalid(self):
        assert shard_boundaries(0).tolist() == [0]
        with pytest.raises(DatabaseError):
            shard_boundaries(10, 0)


class TestShardIndex:
    def test_lower_bounds_never_exceed_exact_distances(self):
        packed = synthetic_packed()
        index = ShardIndex.build(packed, 4)
        for seed in range(5):
            concept = seeded_concept(packed.n_dims, seed)
            bounds = index.lower_bounds(concept)
            exact = packed.min_distances(concept)
            assert np.all(bounds <= exact + 1e-9)

    def test_bound_is_tight_for_single_instance_bags(self):
        packed = synthetic_packed(max_instances=1)
        index = ShardIndex.build(packed)
        concept = seeded_concept(packed.n_dims)
        np.testing.assert_allclose(
            index.lower_bounds(concept), packed.min_distances(concept),
            rtol=1e-9,
        )

    def test_dimension_mismatch_rejected(self):
        index = ShardIndex.build(synthetic_packed(20, n_dims=4))
        with pytest.raises(DatabaseError):
            index.lower_bounds(seeded_concept(5))

    def test_empty_corpus(self):
        packed = PackedCorpus.pack([], [], [])
        index = ShardIndex.build(packed)
        assert index.n_bags == 0 and index.n_shards == 1

    def test_malformed_boundaries_rejected(self):
        packed = synthetic_packed(10)
        good = ShardIndex.build(packed, 2)
        with pytest.raises(DatabaseError):
            ShardIndex(packed, good.lower, good.upper, np.array([0, 3]))
        with pytest.raises(DatabaseError):
            ShardIndex(packed, good.upper, good.lower, good.boundaries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_envelopes_rejected(self, bad):
        # A NaN passes the lower > upper check; a persisted index holding
        # one would silently prune its bag and the bag's whole group.
        packed = synthetic_packed(10)
        good = ShardIndex.build(packed, 2)
        for side in ("lower", "upper"):
            arrays = {"lower": good.lower.copy(), "upper": good.upper.copy()}
            arrays[side][3, 0] = bad
            with pytest.raises(DatabaseError, match="finite"):
                ShardIndex(packed, arrays["lower"], arrays["upper"],
                           good.boundaries)

    def test_corpus_caches_index(self):
        packed = synthetic_packed(40)
        assert packed.cached_shard_index is None
        index = packed.shard_index()
        assert packed.cached_shard_index is index
        assert packed.shard_index() is index
        # The partition is the automatic one.
        assert index.boundaries.tolist() == shard_boundaries(40).tolist()

    def test_adopt_rejects_foreign_index(self):
        packed = synthetic_packed(40)
        other = ShardIndex.build(synthetic_packed(10))
        with pytest.raises(DatabaseError):
            packed.adopt_shard_index(other)

    def test_prune_floor_tracks_corpus_and_query_magnitude(self):
        packed = synthetic_packed(20)
        index = ShardIndex.build(packed)
        concept = seeded_concept(packed.n_dims)
        small = index.prune_floor(concept)
        assert small > 0.0
        shifted = LearnedConcept(t=concept.t + 1e8, w=concept.w, nll=0.0)
        # A huge translation inflates the expanded form's cancellation
        # error, so the floor must grow with it.
        assert index.prune_floor(shifted) > 1e10 * small
        with pytest.raises(DatabaseError):
            index.prune_floor(seeded_concept(packed.n_dims + 1))


class TestShardedRankerEquivalence:
    """Sharded output must be ordering-identical to Ranker and the loop."""

    @pytest.mark.parametrize("n_shards,group_size,chunk_bags", [
        (1, 1, 1024), (4, 1, 16), (4, 3, 16), (7, 2, 1),
    ])
    def test_matches_exhaustive_and_loop(
        self, n_shards, group_size, chunk_bags
    ):
        packed = synthetic_packed()
        index = ShardIndex.build(
            packed, n_shards=n_shards, group_size=group_size
        )
        candidates = list(packed.candidates())
        sharded = ShardedRanker(chunk_bags=chunk_bags)
        for seed in range(3):
            concept = seeded_concept(packed.n_dims, seed)
            for top_k in (1, 10, packed.n_bags, packed.n_bags + 7, None):
                fast = sharded.rank(concept, packed, top_k=top_k, index=index)
                slow = Ranker(auto_shard=False).rank(concept, packed,
                                                     top_k=top_k)
                assert fast.image_ids == slow.image_ids
                assert fast.total_candidates == slow.total_candidates
                np.testing.assert_array_equal(fast.distances, slow.distances)
            loop = rank_by_loop(concept, candidates)
            top = sharded.rank(concept, packed, top_k=25, index=index)
            assert top.image_ids == loop.image_ids[:25]

    def test_exclude_and_category_filter(self):
        packed = synthetic_packed()
        concept = seeded_concept(packed.n_dims)
        excluded = packed.image_ids[::13]
        fast = ShardedRanker(chunk_bags=7).rank(
            concept, packed, top_k=9, exclude=excluded, category_filter="odd",
            index=ShardIndex.build(packed, n_shards=5),
        )
        slow = Ranker(auto_shard=False).rank(
            concept, packed, top_k=9, exclude=excluded, category_filter="odd"
        )
        assert fast.image_ids == slow.image_ids
        assert fast.total_candidates == slow.total_candidates
        assert fast.is_truncated and slow.is_truncated

    def test_single_bag_shards(self):
        packed = synthetic_packed(30)
        concept = seeded_concept(packed.n_dims)
        fast = ShardedRanker(chunk_bags=1).rank(
            concept, packed, top_k=5,
            index=ShardIndex.build(packed, n_shards=packed.n_bags),
        )
        slow = Ranker(auto_shard=False).rank(concept, packed, top_k=5)
        assert fast.image_ids == slow.image_ids

    def test_ties_at_the_top_k_boundary(self):
        # Five identical bags tie; k=3 must cut by id, exactly like the
        # exhaustive path, even when pruning is active.
        rng = np.random.default_rng(2)
        shared = rng.normal(size=(2, 4))
        names = ["m-2", "a-9", "z-1", "a-1", "m-1"]
        candidates = [
            RetrievalCandidate(name, "tied", shared.copy()) for name in names
        ] + [
            RetrievalCandidate(f"far-{i}", "far", shared + 40.0 + i)
            for i in range(20)
        ]
        packed = PackedCorpus.from_candidates(candidates)
        concept = seeded_concept(4)
        fast = ShardedRanker(chunk_bags=2).rank(
            concept, packed, top_k=3, index=ShardIndex.build(packed, n_shards=6)
        )
        slow = Ranker(auto_shard=False).rank(concept, packed, top_k=3)
        assert fast.image_ids == slow.image_ids == ("a-1", "a-9", "m-1")

    @pytest.mark.parametrize("n_shards,group_size", [(1, 1), (3, 2)])
    def test_zero_threshold_cancellation_regime(self, n_shards, group_size):
        # Regression (review of PR 5): relative slack alone gives the
        # cutoff zero width once the running kth-best distance is 0.  A
        # huge translation puts the expanded-form kernel deep in
        # cancellation: bags sitting exactly at ``t`` score a computed 0,
        # and the bag offset by 1e-4 (true distance 1e-8) *also* clamps to
        # 0 — while its clip-form bound is a clean positive 1e-8.  Without
        # the absolute prune floor that bag is skipped even though it ties
        # the kth-best and wins the id tie-break, diverging from the
        # exhaustive ranker.
        t = 1e8
        candidates = [
            RetrievalCandidate(
                "aaa-extra", "x", np.array([[t + 1e-4]])
            )
        ] + [
            RetrievalCandidate(f"zzz-{i:03d}", "x", np.array([[t]]))
            for i in range(6)
        ]
        packed = PackedCorpus.from_candidates(candidates)
        concept = LearnedConcept(t=np.array([t]), w=np.array([1.0]), nll=0.0)
        assert packed.min_distances(concept)[0] == 0.0  # the clamped tie
        fast = ShardedRanker().rank(
            concept, packed, top_k=2,
            index=ShardIndex.build(
                packed, n_shards=n_shards, group_size=group_size
            ),
        )
        slow = Ranker(auto_shard=False).rank(concept, packed, top_k=2)
        assert fast.image_ids == slow.image_ids == ("aaa-extra", "zzz-000")

    def test_explicit_prebuilt_index(self):
        packed = synthetic_packed(60)
        index = ShardIndex.build(packed, 3)
        concept = seeded_concept(packed.n_dims)
        fast = ShardedRanker().rank(concept, packed, top_k=4, index=index)
        slow = Ranker(auto_shard=False).rank(concept, packed, top_k=4)
        assert fast.image_ids == slow.image_ids
        assert packed.cached_shard_index is None  # explicit index, no cache

    def test_mismatched_index_rejected(self):
        packed = synthetic_packed(60)
        foreign = ShardIndex.build(synthetic_packed(10))
        with pytest.raises(DatabaseError):
            ShardedRanker().rank(
                seeded_concept(packed.n_dims), packed, top_k=4, index=foreign
            )
        # Same shape is not enough: an index over different instances
        # would prune silently wrong, so corpus identity is required.
        twin = ShardIndex.build(synthetic_packed(60, seed=99))
        with pytest.raises(DatabaseError):
            ShardedRanker().rank(
                seeded_concept(packed.n_dims), packed, top_k=4, index=twin
            )

    def test_invalid_parameters(self):
        with pytest.raises(DatabaseError):
            ShardedRanker(chunk_bags=0)
        with pytest.raises(DatabaseError):
            ShardedRanker().rank(
                seeded_concept(4), synthetic_packed(10, n_dims=4), top_k=0
            )

    def test_wrong_dimension_concept_rejected_before_index_build(self):
        packed = synthetic_packed(60, n_dims=4)
        with pytest.raises(DatabaseError, match="dims"):
            ShardedRanker().rank(seeded_concept(5), packed, top_k=4)
        assert packed.cached_shard_index is None
        with pytest.raises(DatabaseError, match="dims"):
            ShardedRanker().fragment_candidates(
                seeded_concept(5), packed, top_k=4, start=0, stop=30
            )
        assert packed.cached_shard_index is None

    def test_one_shot_exclude_iterator_survives_the_fallback(self):
        # top_k >= total routes to the exhaustive fallback, which must not
        # re-consume an already-exhausted exclude generator.
        packed = synthetic_packed(20, n_dims=4)
        concept = seeded_concept(4)
        excluded = packed.image_ids[:3]
        result = ShardedRanker().rank(
            concept, packed, top_k=packed.n_bags, exclude=iter(excluded)
        )
        assert not set(excluded) & set(result.image_ids)
        assert result.total_candidates == packed.n_bags - 3

    def test_empty_and_fully_excluded(self):
        empty = PackedCorpus.pack([], [], [])
        concept = seeded_concept(4)
        assert len(ShardedRanker().rank(concept, empty, top_k=3)) == 0
        packed = synthetic_packed(12, n_dims=4)
        result = ShardedRanker().rank(
            concept, packed, top_k=3, exclude=packed.image_ids,
            index=ShardIndex.build(packed, n_shards=3),
        )
        assert len(result) == 0 and result.total_candidates == 0


@pytest.fixture()
def low_threshold(monkeypatch):
    """Route corpora of 10 or more bags, so routing tests stay small."""
    monkeypatch.setattr(retrieval, "AUTO_SHARD_MIN_BAGS", 10)


class TestRankerRouting:
    def test_default_ranker_never_routes_small_corpora(self):
        packed = synthetic_packed(50)
        Ranker().rank(seeded_concept(packed.n_dims), packed, top_k=5)
        assert packed.cached_shard_index is None

    def test_low_threshold_ranker_routes_and_caches_the_index(
        self, low_threshold
    ):
        packed = synthetic_packed(50)
        concept = seeded_concept(packed.n_dims)
        routed = Ranker().rank(concept, packed, top_k=5)
        assert packed.cached_shard_index is not None
        exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=5)
        assert routed.image_ids == exhaustive.image_ids
        np.testing.assert_array_equal(routed.distances, exhaustive.distances)

    def test_full_rankings_never_route(self, low_threshold):
        packed = synthetic_packed(50)
        Ranker().rank(seeded_concept(packed.n_dims), packed)
        assert packed.cached_shard_index is None

    def test_policy_disables_routing(self, low_threshold):
        packed = synthetic_packed(50)
        packed.configure_rank_index(enabled=False)
        Ranker().rank(seeded_concept(packed.n_dims), packed, top_k=5)
        assert packed.cached_shard_index is None
        routable = synthetic_packed(50)
        Ranker(auto_shard=False).rank(
            seeded_concept(routable.n_dims), routable, top_k=5
        )
        assert routable.cached_shard_index is None

    def test_pinned_shard_count_never_touches_the_cached_index(self):
        # A prebuilt k-shard index is private to the call, so a test or
        # benchmark varying k cannot re-partition the index every other
        # caller of the corpus shares.
        packed = synthetic_packed(50)
        concept = seeded_concept(packed.n_dims)
        shared = packed.shard_index()
        pinned = ShardedRanker().rank(
            concept, packed, top_k=5, index=ShardIndex.build(packed, 5)
        )
        assert packed.cached_shard_index is shared
        assert shared.n_shards == 1
        exhaustive = Ranker(auto_shard=False).rank(concept, packed, top_k=5)
        assert pinned.image_ids == exhaustive.image_ids

    def test_views_packed_on_the_spot_never_route(self, low_threshold):
        # Regression (review of PR 5): packed_view's throwaway creations
        # — id subsets and raw-iterable packs — die with the call, so
        # routing them would build a discarded shard index on every
        # query.  They come back non-routable; caller-held views stay
        # routable.
        packed = synthetic_packed(30, n_dims=4)
        assert packed_view(packed).rank_index_enabled
        assert not packed_view(packed, packed.image_ids[:10]).rank_index_enabled

        rng = np.random.default_rng(5)
        candidates = [
            RetrievalCandidate(f"img-{i:03d}", "c", rng.normal(size=(2, 4)))
            for i in range(30)
        ]
        assert not packed_view(candidates).rank_index_enabled
        # A low-threshold Ranker fed the raw list stays exhaustive — and
        # correct.
        concept = seeded_concept(4)
        routed = Ranker().rank(concept, candidates, top_k=3)
        exhaustive = Ranker(auto_shard=False).rank(concept, candidates, top_k=3)
        assert routed.image_ids == exhaustive.image_ids


class TestMinDistancesAt:
    def test_matches_full_kernel_subset(self):
        packed = synthetic_packed()
        concept = seeded_concept(packed.n_dims)
        full = packed.min_distances(concept)
        chosen = np.array([17, 3, 250, 3, 0, 299])
        np.testing.assert_array_equal(
            packed.min_distances_at(concept, chosen), full[chosen]
        )

    def test_matches_after_squared_cache_exists(self):
        packed = synthetic_packed(40)
        concept = seeded_concept(packed.n_dims)
        before = packed.min_distances_at(concept, [5, 1])
        packed.min_distances(concept)  # builds the squared cache
        after = packed.min_distances_at(concept, [5, 1])
        np.testing.assert_array_equal(before, after)

    def test_validates_inputs(self):
        packed = synthetic_packed(10)
        concept = seeded_concept(packed.n_dims)
        assert packed.min_distances_at(concept, []).size == 0
        with pytest.raises(DatabaseError):
            packed.min_distances_at(concept, [10])
        with pytest.raises(DatabaseError):
            packed.min_distances_at(concept, [-1])
        with pytest.raises(DatabaseError):
            packed.min_distances_at(seeded_concept(packed.n_dims + 1), [0])


class TestServiceKnobs:
    def test_subset_queries_never_index_the_ephemeral_view(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db)
        fitted = service.fit(
            tiny_scene_db.ids_in_category("sunset")[:2], learner="random"
        )
        subset = tiny_scene_db.image_ids[:8]
        result = service.rank_with(fitted, candidate_ids=subset, top_k=3)
        assert result.total_candidates == len(subset)
        cached = tiny_scene_db.cached_packed
        if cached is not None:  # the full view, if built, stays routable
            assert cached.rank_index_enabled is True

    def test_stats_report_the_policy(self, tiny_scene_db):
        stats = RetrievalService(tiny_scene_db).stats()
        assert stats["rank_index"] == {
            "mode": "exact",
            "reorder_bags": False,
        }

    def test_default_threshold_constant_is_sane(self):
        assert AUTO_SHARD_MIN_BAGS >= 1024


class TestBestFirstScan:
    def test_concurrent_queries_stay_exact(self):
        # More querying threads than cores, switching as often as the
        # interpreter allows, each running its own scan; every answer
        # stays exact.
        packed = synthetic_packed(400, n_dims=4)
        index = ShardIndex.build(packed, n_shards=7)
        concepts = [seeded_concept(4, seed) for seed in range(6)]
        expected = [
            Ranker(auto_shard=False).rank(c, packed, top_k=5) for c in concepts
        ]

        def query(i):
            c = i % len(concepts)
            got = ShardedRanker(chunk_bags=8).rank(
                concepts[c], packed, top_k=5, index=index
            )
            return got.image_ids == expected[c].image_ids and np.array_equal(
                got.distances, expected[c].distances
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as clients:
                answers = list(clients.map(query, range(48), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(answers)

    @pytest.mark.parametrize("chunk_bags", [1, 16, 1024])
    def test_no_bag_bound_past_the_final_cutoff(self, monkeypatch, chunk_bags):
        # Per-bag bounds are computed only for groups the running cutoff
        # admits, and the sweep stops at the first group past it.  With
        # at most one group per step that is exactly the groups within
        # the final cutoff; a wider step may bound the rest of the step
        # in which the cutoff reached its final value.
        group = 16
        rng = np.random.default_rng(5)
        centers = rng.uniform(-10.0, 10.0, size=(20, 4))
        packed = PackedCorpus.pack(
            [f"img-{i:05d}" for i in range(2008)],
            ["c"] * 2008,
            # 20 tight clusters, ingested cluster by cluster, plus 8 edge
            # bags past the last whole group.
            [centers[i * 20 // 2008] + 0.1 * rng.normal(size=(3, 4))
             for i in range(2008)],
        )
        index = ShardIndex.build(packed, group_size=group)
        concept = LearnedConcept(
            t=centers[7], w=rng.uniform(0.5, 1.0, 4), nll=0.0
        )
        top_k = 10
        rows = []

        def recording(lower, upper, c):
            rows.append(lower.shape[0])
            return envelope_bounds(lower, upper, c)

        monkeypatch.setattr(sharding, "envelope_bounds", recording)
        got = ShardedRanker(chunk_bags=chunk_bags).rank(
            concept, packed, top_k=top_k, index=index
        )
        monkeypatch.undo()
        want = Ranker(auto_shard=False).rank(concept, packed, top_k=top_k)
        assert got.image_ids == want.image_ids
        np.testing.assert_array_equal(got.distances, want.distances)

        n_groups = packed.n_bags // group
        assert rows[0] == n_groups  # one group-bound pass, then per-bag rows
        cutoff = sharding._cutoff(
            float(want.distances[-1]), index.prune_floor(concept)
        )
        group_bounds = envelope_bounds(
            index.group_lower[:n_groups], index.group_upper[:n_groups],
            concept,
        )
        admitted = int(np.count_nonzero(group_bounds <= cutoff))
        edges = packed.n_bags - n_groups * group
        step = max(1, chunk_bags // group)
        assert sum(rows[1:]) <= edges + (admitted + step - 1) * group
        if step == 1:
            assert sum(rows[1:]) <= edges + admitted * group
        assert admitted < n_groups // 4  # the scan really stopped early
