"""Equivalence suite: the vectorized Ranker vs the legacy per-bag loop.

The redesign's core claim is that :class:`~repro.core.retrieval.Ranker`
(broadcast weighted distances + ``np.minimum.reduceat`` + id-tie-broken
lexsort over a :class:`~repro.core.retrieval.PackedCorpus`) produces
**bit-identical orderings** to :func:`~repro.core.retrieval.rank_by_loop`
(per-bag Python loop over candidates).  This suite asserts that across:

* a seeded region-bag corpus (the paper's feature pipeline),
* a seeded SBN colour corpus (the Maron-Ratan baseline family),
* synthetic corpora with exact distance ties,
* byte-identical bags at the first and last row of the stacked matrix,
* exclusion, category filtering and ``top_k`` truncation.
"""

import numpy as np
import pytest

from repro.baselines.maron_ratan import ColorCorpus
from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    PackedCorpus,
    Ranker,
    RetrievalCandidate,
    rank_by_loop,
)
from repro.core.sharding import ShardedRanker, ShardIndex


def seeded_concepts(n_dims: int, n_concepts: int = 3, seed: int = 99):
    rng = np.random.default_rng(seed)
    return [
        LearnedConcept(
            t=rng.normal(size=n_dims),
            w=rng.uniform(0.05, 1.0, size=n_dims),
            nll=0.0,
        )
        for _ in range(n_concepts)
    ]


def assert_equivalent(vectorized, reference):
    # The ordering contract is bit-identical; distances may differ by ~1 ulp
    # because BLAS accumulates a full-matrix product differently from the
    # per-bag products the loop issues.
    assert vectorized.image_ids == reference.image_ids
    np.testing.assert_allclose(
        vectorized.distances, reference.distances, rtol=1e-12, atol=0.0
    )
    assert [e.category for e in vectorized] == [e.category for e in reference]
    assert [e.rank for e in vectorized] == [e.rank for e in reference]


class TestRegionBagEquivalence:
    """Seeded region-bag corpus: packed kernel == per-bag loop."""

    def test_full_ranking(self, tiny_scene_db):
        packed = tiny_scene_db.packed()
        candidates = list(packed.candidates())
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed),
                rank_by_loop(concept, candidates),
            )

    def test_with_exclusions(self, tiny_scene_db):
        packed = tiny_scene_db.packed()
        candidates = list(packed.candidates())
        excluded = packed.image_ids[::3]
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed, exclude=excluded),
                rank_by_loop(concept, candidates, exclude=excluded),
            )

    def test_subset_corpus(self, tiny_scene_db):
        subset = tiny_scene_db.image_ids[1::2]
        packed = tiny_scene_db.packed(subset)
        candidates = tiny_scene_db.retrieval_candidates(subset)
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed),
                rank_by_loop(concept, candidates),
            )

    def test_category_filter_matches_manual_filtering(self, tiny_scene_db):
        packed = tiny_scene_db.packed()
        target = tiny_scene_db.categories()[0]
        only_target = [
            c for c in packed.candidates() if c.category == target
        ]
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed, category_filter=target),
                rank_by_loop(concept, only_target),
            )

    def test_top_k_is_a_prefix_of_the_full_ranking(self, tiny_scene_db):
        packed = tiny_scene_db.packed()
        concept = seeded_concepts(packed.n_dims, n_concepts=1)[0]
        full = Ranker().rank(concept, packed)
        truncated = Ranker().rank(concept, packed, top_k=7)
        assert truncated.image_ids == full.image_ids[:7]
        assert truncated.total_candidates == len(full)
        assert truncated.is_truncated


class TestColorCorpusEquivalence:
    """Seeded SBN colour corpus: the baseline family shares the fast path."""

    @pytest.fixture(scope="class")
    def color_corpus(self, tiny_scene_db):
        return ColorCorpus(tiny_scene_db, grid=4)

    def test_full_ranking(self, color_corpus, tiny_scene_db):
        packed = color_corpus.packed()
        assert packed.n_bags == len(tiny_scene_db)
        candidates = list(packed.candidates())
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed),
                rank_by_loop(concept, candidates),
            )

    def test_with_exclusions(self, color_corpus):
        packed = color_corpus.packed()
        excluded = packed.image_ids[:5]
        for concept in seeded_concepts(packed.n_dims):
            assert_equivalent(
                Ranker().rank(concept, packed, exclude=excluded),
                rank_by_loop(concept, packed.candidates(), exclude=excluded),
            )


class TestTieBreaking:
    """Exact distance ties must break by image id in both implementations."""

    def make_tied_candidates(self):
        rng = np.random.default_rng(7)
        shared = rng.normal(size=(3, 4))
        # Interleave ids so insertion order disagrees with id order, and give
        # several bags the *same* instance matrix (exact distance ties).
        names = ["m-2", "a-9", "z-1", "a-1", "m-1", "z-0"]
        return [
            RetrievalCandidate(
                image_id=name,
                category="tied" if index % 2 == 0 else "other",
                instances=shared.copy(),
            )
            for index, name in enumerate(names)
        ] + [
            RetrievalCandidate(
                image_id="far-0", category="other",
                instances=shared + 50.0,
            )
        ]

    def test_ties_broken_identically(self):
        candidates = self.make_tied_candidates()
        packed = PackedCorpus.from_candidates(candidates)
        for concept in seeded_concepts(4):
            vectorized = Ranker().rank(concept, packed)
            reference = rank_by_loop(concept, candidates)
            assert_equivalent(vectorized, reference)
            # All tied bags sort by id, ahead of the far bag.
            assert vectorized.image_ids == (
                "a-1", "a-9", "m-1", "m-2", "z-0", "z-1", "far-0"
            )

    def test_ties_with_exclusion_and_top_k(self):
        candidates = self.make_tied_candidates()
        packed = PackedCorpus.from_candidates(candidates)
        concept = seeded_concepts(4, n_concepts=1)[0]
        vectorized = Ranker().rank(concept, packed, exclude=["a-1"], top_k=3)
        reference = rank_by_loop(concept, candidates, exclude=["a-1"])
        assert vectorized.image_ids == reference.image_ids[:3]
        assert vectorized.total_candidates == len(reference)


class TestByteIdenticalBags:
    """Regression: byte-identical bags tie wherever their rows sit.

    ``aaa`` holds the first row of the stacked matrix and ``zzz`` the
    last.  BLAS ``gemv`` computes the last ``n mod 4`` rows of a call with
    a remainder kernel, so a kernel built on it could score the two
    differently and rank ``zzz`` first.  ``rank_by_loop`` scores them
    alike and orders them by id, and so must every rank path.
    """

    N_CORPORA = 48

    @staticmethod
    def corpus(seed):
        rng = np.random.default_rng([seed, 20])
        n_dims = int(rng.integers(2, 20))
        shared = rng.normal(scale=3.0, size=(1, n_dims))
        ids, matrices = ["aaa"], [shared.copy()]
        for index in range(int(rng.integers(10, 120))):
            ids.append(f"mid-{index:03d}")
            matrices.append(
                rng.normal(scale=3.0, size=(int(rng.integers(1, 5)), n_dims))
            )
        # Single-row fillers put the total row count at every residue
        # mod 4 across the seeds.
        while (sum(len(m) for m in matrices) + 1) % 4 != seed % 4:
            ids.append(f"pad-{len(ids):03d}")
            matrices.append(rng.normal(scale=3.0, size=(1, n_dims)))
        ids.append("zzz")
        matrices.append(shared.copy())
        packed = PackedCorpus.pack(ids, ["x"] * len(ids), matrices)
        concept = LearnedConcept(
            t=shared[0] + rng.normal(scale=0.5, size=n_dims),
            w=rng.uniform(0.05, 2.0, size=n_dims),
            nll=0.0,
        )
        return packed, concept

    @staticmethod
    def tie_problem(result):
        ids = result.image_ids
        first, last = ids.index("aaa"), ids.index("zzz")
        if result.ranked[first].distance != result.ranked[last].distance:
            return "distances differ"
        if first > last:
            return "zzz ranked before aaa"
        return None

    def assert_ties(self, rank):
        problems = {}
        for seed in range(self.N_CORPORA):
            packed, concept = self.corpus(seed)
            loop = rank_by_loop(concept, packed.candidates())
            assert self.tie_problem(loop) is None
            why = self.tie_problem(rank(packed, concept, loop))
            if why is not None:
                problems[seed] = why
        assert problems == {}

    def test_exhaustive_path(self):
        self.assert_ties(
            lambda packed, concept, loop: Ranker(auto_shard=False).rank(
                concept, packed
            )
        )

    def test_sharded_path(self):
        def sharded(packed, concept, loop):
            top_k = loop.image_ids.index("zzz") + 2
            return ShardedRanker().rank(
                concept, packed, top_k=top_k,
                index=ShardIndex.build(packed, n_shards=3),
            )

        self.assert_ties(sharded)


class TestEngineDelegation:
    """A plain candidate list (packed on the spot) must equal the loop too."""

    def test_engine_matches_loop(self, tiny_scene_db):
        candidates = tiny_scene_db.retrieval_candidates()
        concept = seeded_concepts(tiny_scene_db.feature_config.n_dims, 1)[0]
        assert_equivalent(
            Ranker().rank(concept, candidates),
            rank_by_loop(concept, candidates),
        )
