"""Unit tests for the retrieval kernels, packed corpora and ranking results."""

import numpy as np
import pytest

from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    PackedCorpus,
    RankedImage,
    Ranker,
    RetrievalCandidate,
    RetrievalResult,
    packed_view,
    rank_by_loop,
)
from repro.errors import DatabaseError


def concept_at(point: np.ndarray) -> LearnedConcept:
    return LearnedConcept(t=point, w=np.ones(point.size), nll=0.0)


def candidate(image_id: str, category: str, *vectors) -> RetrievalCandidate:
    return RetrievalCandidate(
        image_id=image_id, category=category, instances=np.array(vectors, dtype=float)
    )


@pytest.fixture()
def corpus():
    return [
        candidate("close", "target", [0.1, 0.0], [5.0, 5.0]),
        candidate("mid", "other", [1.0, 1.0], [3.0, 3.0]),
        candidate("far", "other", [4.0, 4.0]),
        candidate("closest", "target", [0.0, 0.05]),
    ]


def rank(concept, items, exclude=()):
    """:class:`Ranker` over a candidate list, checked against the loop oracle."""
    result = Ranker().rank(concept, items, exclude=exclude)
    oracle = rank_by_loop(concept, items, exclude=exclude)
    assert result.image_ids == oracle.image_ids
    np.testing.assert_allclose(result.distances, oracle.distances, rtol=1e-12)
    return result


class TestEngine:
    def test_orders_by_min_instance_distance(self, corpus):
        result = rank(concept_at(np.zeros(2)), corpus)
        assert result.image_ids == ("closest", "close", "mid", "far")

    def test_distances_nondecreasing(self, corpus):
        result = rank(concept_at(np.zeros(2)), corpus)
        distances = result.distances
        assert np.all(np.diff(distances) >= -1e-12)

    def test_min_not_mean_instance_used(self):
        # An image with one great instance and many bad ones must beat an
        # image with uniformly mediocre instances.
        items = [
            candidate("one-good", "a", [0.0, 0.0], [9.0, 9.0], [9.0, -9.0]),
            candidate("all-okay", "b", [1.0, 1.0], [1.0, -1.0]),
        ]
        result = rank(concept_at(np.zeros(2)), items)
        assert result.image_ids[0] == "one-good"

    def test_exclude_removes_ids(self, corpus):
        result = rank(
            concept_at(np.zeros(2)), corpus, exclude=["closest", "far"]
        )
        assert result.image_ids == ("close", "mid")

    def test_ties_broken_by_id(self):
        items = [
            candidate("b", "x", [1.0, 0.0]),
            candidate("a", "x", [0.0, 1.0]),
        ]
        result = rank(concept_at(np.zeros(2)), items)
        assert result.image_ids == ("a", "b")

    def test_weighted_distance_respected(self):
        concept = LearnedConcept(
            t=np.zeros(2), w=np.array([100.0, 0.01]), nll=0.0
        )
        items = [
            candidate("off-axis-0", "x", [0.5, 0.0]),
            candidate("off-axis-1", "x", [0.0, 0.5]),
        ]
        result = rank(concept, items)
        assert result.image_ids[0] == "off-axis-1"

    def test_empty_corpus_gives_empty_result(self):
        result = rank(concept_at(np.zeros(2)), [])
        assert len(result) == 0

    def test_duplicate_candidate_ids_raise_database_error(self):
        # The columnar representation cannot hold duplicate ids.
        items = [
            candidate("twin", "x", [1.0, 0.0]),
            candidate("twin", "x", [0.0, 2.0]),
            candidate("solo", "x", [3.0, 3.0]),
        ]
        with pytest.raises(DatabaseError, match="duplicate image ids"):
            PackedCorpus.from_candidates(items)
        with pytest.raises(DatabaseError, match="duplicate image ids"):
            Ranker().rank(concept_at(np.zeros(2)), items)


class TestPackedCorpus:
    def make_packed(self) -> PackedCorpus:
        return PackedCorpus.pack(
            image_ids=["a", "b", "c"],
            categories=["x", "y", "x"],
            matrices=[
                np.zeros((2, 3)),
                np.ones((1, 3)),
                np.full((4, 3), 2.0),
            ],
        )

    def test_shapes(self):
        packed = self.make_packed()
        assert packed.n_bags == len(packed) == 3
        assert packed.n_instances == 7
        assert packed.n_dims == 3
        assert list(packed.lengths) == [2, 1, 4]
        assert list(packed.offsets) == [0, 2, 3, 7]

    def test_bag_instances_views(self):
        packed = self.make_packed()
        np.testing.assert_array_equal(packed.bag_instances("b"), np.ones((1, 3)))
        with pytest.raises(DatabaseError, match="unknown image id"):
            packed.bag_instances("nope")

    def test_contains(self):
        packed = self.make_packed()
        assert "a" in packed and "nope" not in packed

    def test_candidates_round_trip(self):
        packed = self.make_packed()
        rebuilt = PackedCorpus.from_candidates(packed.candidates())
        assert rebuilt.image_ids == packed.image_ids
        assert rebuilt.categories == packed.categories
        np.testing.assert_array_equal(rebuilt.instances, packed.instances)
        np.testing.assert_array_equal(rebuilt.offsets, packed.offsets)

    def test_select_preserves_order_and_rows(self):
        packed = self.make_packed()
        subset = packed.select(["c", "a"])
        assert subset.image_ids == ("c", "a")
        assert subset.categories == ("x", "x")
        np.testing.assert_array_equal(subset.bag_instances("c"), np.full((4, 3), 2.0))
        np.testing.assert_array_equal(subset.bag_instances("a"), np.zeros((2, 3)))

    def test_select_unknown_id(self):
        with pytest.raises(DatabaseError, match="unknown image id"):
            self.make_packed().select(["a", "nope"])

    def test_select_empty(self):
        subset = self.make_packed().select([])
        assert subset.n_bags == 0
        assert subset.n_dims == 3

    def test_empty_pack(self):
        packed = PackedCorpus.pack([], [], [])
        assert packed.n_bags == 0 and packed.n_instances == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatabaseError, match="duplicate"):
            PackedCorpus.pack(
                ["a", "a"], ["x", "x"], [np.zeros((1, 2)), np.ones((1, 2))]
            )

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DatabaseError, match="dims"):
            PackedCorpus.pack(
                ["a", "b"], ["x", "x"], [np.zeros((1, 2)), np.ones((1, 3))]
            )

    def test_empty_bag_rejected(self):
        with pytest.raises(DatabaseError):
            PackedCorpus.pack(["a"], ["x"], [np.zeros((0, 2))])

    def test_bad_offsets_rejected(self):
        with pytest.raises(DatabaseError):
            PackedCorpus(
                instances=np.zeros((2, 2)),
                offsets=np.array([0, 1]),  # does not span the matrix
                image_ids=("a",),
                categories=("x",),
            )

    def test_immutable(self):
        packed = self.make_packed()
        with pytest.raises(AttributeError):
            packed.instances = np.zeros((1, 1))

    def test_min_distances_dimension_mismatch(self):
        packed = self.make_packed()
        concept = LearnedConcept(t=np.zeros(5), w=np.ones(5), nll=0.0)
        with pytest.raises(DatabaseError, match="dims"):
            packed.min_distances(concept)

    def test_min_distances_matches_bag_distance(self):
        packed = self.make_packed()
        concept = LearnedConcept(
            t=np.array([1.0, 0.0, 2.0]), w=np.array([1.0, 0.5, 2.0]), nll=0.0
        )
        batch = packed.min_distances(concept)
        for index, image_id in enumerate(packed.image_ids):
            expected = concept.bag_distance(packed.bag_instances(image_id))
            assert batch[index] == pytest.approx(expected, rel=1e-12)

    def test_coerce_spellings(self, corpus):
        from_list = PackedCorpus.coerce(corpus)
        assert from_list.image_ids == tuple(c.image_id for c in corpus)
        assert PackedCorpus.coerce(from_list) is from_list

    def test_legacy_only_corpus_raises_typed_error(self):
        # A corpus offering only retrieval_candidates() (no packed()) is
        # no longer re-packed; every rank entry point names packed().
        class LegacyCorpus:
            def retrieval_candidates(self, ids):
                return [
                    RetrievalCandidate(
                        image_id=i, category="x", instances=np.zeros((1, 2))
                    )
                    for i in ids
                ]

        concept = LearnedConcept(t=np.zeros(2), w=np.ones(2), nll=0.0)
        with pytest.raises(DatabaseError, match=r"packed\(\)"):
            packed_view(LegacyCorpus(), ["p", "q"])
        with pytest.raises(DatabaseError, match=r"packed\(\)"):
            Ranker().rank(concept, LegacyCorpus(), top_k=1)
        with pytest.raises(DatabaseError, match=r"packed\(\)"):
            PackedCorpus.coerce(["not", "candidates"])

    def test_packed_view_selects_from_packed_corpus(self):
        packed = self.make_packed()
        assert packed_view(packed) is packed
        assert packed_view(packed, ["b"]).image_ids == ("b",)


class TestRanker:
    def test_top_k_truncates_and_reports_total(self, corpus):
        result = Ranker().rank(concept_at(np.zeros(2)), corpus, top_k=2)
        assert result.image_ids == ("closest", "close")
        assert len(result) == 2
        assert result.total_candidates == 4
        assert result.is_truncated

    def test_top_k_larger_than_corpus(self, corpus):
        result = Ranker().rank(concept_at(np.zeros(2)), corpus, top_k=99)
        assert len(result) == 4
        assert not result.is_truncated

    def test_invalid_top_k(self, corpus):
        with pytest.raises(DatabaseError, match="top_k"):
            Ranker().rank(concept_at(np.zeros(2)), corpus, top_k=0)

    def test_category_filter(self, corpus):
        result = Ranker().rank(
            concept_at(np.zeros(2)), corpus, category_filter="target"
        )
        assert result.image_ids == ("closest", "close")
        assert result.total_candidates == 2

    def test_category_filter_with_exclude_and_top_k(self, corpus):
        result = Ranker().rank(
            concept_at(np.zeros(2)),
            corpus,
            category_filter="other",
            exclude=["far"],
            top_k=1,
        )
        assert result.image_ids == ("mid",)
        assert result.total_candidates == 1

    def test_unmatched_filter_gives_empty_result(self, corpus):
        result = Ranker().rank(
            concept_at(np.zeros(2)), corpus, category_filter="nope"
        )
        assert len(result) == 0
        assert result.total_candidates == 0

    def test_accepts_packed_corpus(self, corpus):
        packed = PackedCorpus.from_candidates(corpus)
        result = Ranker().rank(concept_at(np.zeros(2)), packed)
        assert result.image_ids == ("closest", "close", "mid", "far")


class TestRetrievalResult:
    def make_result(self) -> RetrievalResult:
        return RetrievalResult(
            [
                RankedImage(0, "a", "target", 0.1),
                RankedImage(1, "b", "other", 0.2),
                RankedImage(2, "c", "target", 0.3),
                RankedImage(3, "d", "other", 0.4),
            ]
        )

    def test_rank_consistency_enforced(self):
        with pytest.raises(DatabaseError):
            RetrievalResult([RankedImage(1, "a", "x", 0.0)])

    def test_top(self):
        result = self.make_result()
        assert [e.image_id for e in result.top(2)] == ["a", "b"]
        assert result.top(0) == ()
        with pytest.raises(DatabaseError):
            result.top(-1)

    def test_relevance_mask(self):
        result = self.make_result()
        np.testing.assert_array_equal(
            result.relevance("target"), [True, False, True, False]
        )

    def test_false_positives(self):
        result = self.make_result()
        fps = result.false_positives("target", limit=5)
        assert [e.image_id for e in fps] == ["b", "d"]

    def test_false_positives_limit(self):
        result = self.make_result()
        fps = result.false_positives("target", limit=1)
        assert [e.image_id for e in fps] == ["b"]

    def test_false_positives_exclude(self):
        result = self.make_result()
        fps = result.false_positives("target", limit=5, exclude=["b"])
        assert [e.image_id for e in fps] == ["d"]

    def test_false_positives_negative_limit(self):
        with pytest.raises(DatabaseError):
            self.make_result().false_positives("target", limit=-1)

    def test_precision_at(self):
        result = self.make_result()
        assert result.precision_at(1, "target") == pytest.approx(1.0)
        assert result.precision_at(2, "target") == pytest.approx(0.5)
        assert result.precision_at(4, "target") == pytest.approx(0.5)

    def test_precision_at_invalid_k(self):
        with pytest.raises(DatabaseError):
            self.make_result().precision_at(0, "target")

    def test_top_beyond_length_returns_everything(self):
        # k past the end never invents entries and never raises — complete
        # or truncated, `top` returns what is there.
        result = self.make_result()
        assert [e.image_id for e in result.top(99)] == ["a", "b", "c", "d"]
        truncated = result.truncate(2)
        assert [e.image_id for e in truncated.top(99)] == ["a", "b"]

    def test_precision_beyond_complete_ranking_uses_full_ranking(self):
        # On a complete ranking there is nothing below the end, so
        # precision@99 equals precision over the full ranking.
        result = self.make_result()
        assert result.precision_at(99, "target") == pytest.approx(0.5)

    def test_precision_beyond_truncated_prefix_raises(self):
        # On a truncated ranking the tail is unknown; guessing would be
        # silently wrong, so the helper refuses.
        truncated = self.make_result().truncate(2)
        assert truncated.precision_at(2, "target") == pytest.approx(0.5)
        with pytest.raises(DatabaseError, match="truncated"):
            truncated.precision_at(3, "target")

    def test_truncate_preserves_total_candidates(self):
        result = self.make_result()
        truncated = result.truncate(2)
        assert len(truncated) == 2
        assert truncated.total_candidates == 4
        assert truncated.is_truncated
        assert not result.is_truncated
        assert result.truncate(None) is result
        assert result.truncate(10) is result
        with pytest.raises(DatabaseError):
            result.truncate(-1)

    def test_total_candidates_validation(self):
        with pytest.raises(DatabaseError, match="total_candidates"):
            RetrievalResult(
                [RankedImage(0, "a", "x", 0.0)], total_candidates=0
            )

    def test_truncated_repr(self):
        assert "top 2 of 4" in repr(self.make_result().truncate(2))

    def test_iteration(self):
        result = self.make_result()
        assert [e.image_id for e in result] == ["a", "b", "c", "d"]
        assert len(result) == 4

    def test_repr(self):
        assert "4 images" in repr(self.make_result())
