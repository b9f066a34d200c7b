"""Ranking an image database against a learned concept (Section 3.5).

After training, the system "goes to the image database and ranks all images
based on their weighted Euclidean distances to the ideal point", where an
image's distance is the minimum over its instances.  This module implements
that ranking over a *corpus* in columnar form:

* :class:`PackedCorpus` — the canonical corpus representation: one stacked
  ``(N, d)`` instance matrix for all images, bag-boundary offsets, and
  parallel id/category arrays.  Storage layers
  (:class:`~repro.database.store.ImageDatabase`, the colour corpora) build
  and cache packed views; anything yielding
  :class:`RetrievalCandidate` items can be packed with
  :meth:`PackedCorpus.from_candidates`.
* :class:`Ranker` — the vectorised ranking kernel: one broadcast weighted
  distance over the whole matrix, a segmented minimum per bag
  (``np.minimum.reduceat``) and an id-tie-broken argsort, with ``top_k``
  truncation, id exclusion and category filtering.
* :func:`rank_by_loop` — the legacy per-bag reference implementation, kept
  as the test oracle and for the loop-vs-vectorised benchmark
  (``benchmarks/bench_rank_corpus.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.concept import LearnedConcept
from repro.errors import DatabaseError


@dataclass(frozen=True)
class RetrievalCandidate:
    """One rankable image: its id, ground-truth category and instances."""

    image_id: str
    category: str
    instances: np.ndarray


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` integer ranges.

    The gather idiom behind every fancy-index row collection in the rank
    path (bag sub-selection, chunked evaluation, group sweeps): one
    ``arange`` offset by per-range start/cursor differences — no Python
    loop over ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    index = np.repeat(starts - (ends - lengths), lengths)
    index += np.arange(total, dtype=np.int64)
    return index


def _expanded_min_kernel(
    rows: np.ndarray, squares: np.ndarray, concept, reduce_offsets: np.ndarray
) -> np.ndarray:
    """Per-bag min of the expanded weighted-distance quadratic form.

    The single definition of the exact scoring kernel::

        sum_j w_j (x_j - t_j)^2  =  (X^2) @ w  -  2 X @ (w t)  +  w . t^2

    behind every rank path (:meth:`PackedCorpus.min_distances` over the
    whole corpus, :meth:`PackedCorpus.min_distances_at` over gathered
    bags).  Each instance's value depends only on its own row: both row
    products are ``np.einsum`` reductions, which sum every row with the
    same instruction sequence however many rows the call holds.  (BLAS
    ``gemv`` does not — it computes the last ``n mod 4`` rows of a call
    with a remainder kernel, so a row could round differently depending
    on how many rows were gathered with it.)  A bag's distance is
    therefore bitwise the same whether it is scored with the full corpus,
    in a shard, in a chunk of any size or in a scatter fragment, and
    byte-identical bags always tie and order by id.
    """
    weighted_t = concept.w * concept.t
    per_instance = np.einsum("ij,j->i", squares, concept.w)
    per_instance -= 2.0 * np.einsum("ij,j->i", rows, weighted_t)
    per_instance += float(weighted_t @ concept.t)
    np.maximum(per_instance, 0.0, out=per_instance)
    return np.minimum.reduceat(per_instance, reduce_offsets)


class PackedCorpus:
    """A corpus in columnar form: stacked instances plus parallel metadata.

    Attributes:
        instances: ``(N, d)`` float64 matrix — every image's instances,
            stacked in bag order.
        offsets: ``(n_bags + 1,)`` int64 bag boundaries; bag ``i`` owns the
            rows ``instances[offsets[i]:offsets[i + 1]]``.
        image_ids: image ids, parallel to the bags.
        categories: ground-truth categories, parallel to the bags.

    The arrays are validated on construction (monotone offsets covering the
    matrix exactly, unique ids, matching lengths, at least one instance per
    bag) and should be treated as immutable.
    """

    __slots__ = (
        "instances",
        "offsets",
        "image_ids",
        "categories",
        "_id_array",
        "_category_array",
        "_position",
        "_squared",
        "_shard_index",
        "_rank_index_enabled",
    )

    def __init__(
        self,
        instances: np.ndarray,
        offsets: np.ndarray,
        image_ids: Sequence[str],
        categories: Sequence[str],
    ) -> None:
        # C order keeps every instance row contiguous, which the row
        # invariance of the scoring kernel relies on.
        matrix = np.asarray(instances, dtype=np.float64, order="C")
        if matrix.ndim != 2:
            raise DatabaseError(
                f"packed instances must form a 2-D matrix, got shape {matrix.shape}"
            )
        bounds = np.asarray(offsets, dtype=np.int64).reshape(-1)
        ids = tuple(image_ids)
        labels = tuple(categories)
        if len(labels) != len(ids):
            raise DatabaseError(
                f"{len(ids)} image ids but {len(labels)} categories"
            )
        if len(set(ids)) != len(ids):
            raise DatabaseError("packed corpus contains duplicate image ids")
        if bounds.size != len(ids) + 1:
            raise DatabaseError(
                f"offsets must hold n_bags + 1 entries, got {bounds.size} "
                f"for {len(ids)} bags"
            )
        if bounds[0] != 0 or bounds[-1] != matrix.shape[0]:
            raise DatabaseError(
                f"offsets must span the instance matrix exactly "
                f"(got [{bounds[0]}, {bounds[-1]}] over {matrix.shape[0]} rows)"
            )
        if np.any(np.diff(bounds) < 1):
            raise DatabaseError("every packed bag needs at least one instance")
        object.__setattr__(self, "instances", matrix)
        object.__setattr__(self, "offsets", bounds)
        object.__setattr__(self, "image_ids", ids)
        object.__setattr__(self, "categories", labels)
        object.__setattr__(self, "_id_array", np.array(ids, dtype=np.str_))
        object.__setattr__(self, "_category_array", np.array(labels, dtype=np.str_))
        object.__setattr__(self, "_position", {i: p for p, i in enumerate(ids)})
        object.__setattr__(self, "_squared", None)
        object.__setattr__(self, "_shard_index", None)
        object.__setattr__(self, "_rank_index_enabled", True)

    def __setattr__(self, name: str, value: object) -> None:  # immutability guard
        raise AttributeError("PackedCorpus is immutable")

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #

    @classmethod
    def pack(
        cls,
        image_ids: Sequence[str],
        categories: Sequence[str],
        matrices: Sequence[np.ndarray],
    ) -> "PackedCorpus":
        """Stack per-image instance matrices into one packed corpus."""
        ids = tuple(image_ids)
        if len(matrices) != len(ids):
            raise DatabaseError(
                f"{len(ids)} image ids but {len(matrices)} instance matrices"
            )
        coerced = []
        for image_id, matrix in zip(ids, matrices):
            block = np.asarray(matrix, dtype=np.float64)
            if block.ndim == 1:
                block = block.reshape(1, -1)
            if block.ndim != 2 or block.shape[0] == 0 or block.shape[1] == 0:
                raise DatabaseError(
                    f"image {image_id!r} has an unusable instance matrix "
                    f"of shape {np.shape(matrix)}"
                )
            if coerced and block.shape[1] != coerced[0].shape[1]:
                raise DatabaseError(
                    f"image {image_id!r} has {block.shape[1]}-dim instances "
                    f"but the corpus holds {coerced[0].shape[1]} dims"
                )
            coerced.append(block)
        if not coerced:
            return cls(
                instances=np.zeros((0, 0)),
                offsets=np.zeros(1, dtype=np.int64),
                image_ids=(),
                categories=(),
            )
        counts = np.array([block.shape[0] for block in coerced], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return cls(
            instances=np.vstack(coerced),
            offsets=offsets,
            image_ids=ids,
            categories=tuple(categories),
        )

    @classmethod
    def from_candidates(
        cls, candidates: Iterable[RetrievalCandidate]
    ) -> "PackedCorpus":
        """Pack an iterable of :class:`RetrievalCandidate` items."""
        items = list(candidates)
        return cls.pack(
            image_ids=[c.image_id for c in items],
            categories=[c.category for c in items],
            matrices=[c.instances for c in items],
        )

    @classmethod
    def coerce(cls, corpus) -> "PackedCorpus":
        """Accept any corpus spelling and return a packed view.

        ``corpus`` may be a :class:`PackedCorpus` (returned as-is), an
        object offering ``packed()`` (the
        :class:`~repro.core.feedback.Corpus` protocol), or a plain iterable
        of :class:`RetrievalCandidate` items (packed on the spot).

        Raises:
            DatabaseError: for anything else.
        """
        return packed_view(corpus)

    # ------------------------------------------------------------------ #
    # Shape and access                                                    #
    # ------------------------------------------------------------------ #

    @property
    def n_bags(self) -> int:
        """Number of packed images."""
        return len(self.image_ids)

    @property
    def n_instances(self) -> int:
        """Total instances across all packed images."""
        return self.instances.shape[0]

    @property
    def n_dims(self) -> int:
        """Feature dimensionality."""
        return self.instances.shape[1]

    @property
    def lengths(self) -> np.ndarray:
        """Per-bag instance counts."""
        return np.diff(self.offsets)

    @property
    def id_array(self) -> np.ndarray:
        """Image ids as a numpy string array (parallel to the bags)."""
        return self._id_array

    @property
    def category_array(self) -> np.ndarray:
        """Categories as a numpy string array (parallel to the bags)."""
        return self._category_array

    def __len__(self) -> int:
        return self.n_bags

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._position

    def bag_instances(self, image_id: str) -> np.ndarray:
        """The instance rows of one image (a view into the stacked matrix).

        Raises:
            DatabaseError: for an unknown id.
        """
        try:
            index = self._position[image_id]
        except KeyError:
            raise DatabaseError(f"unknown image id {image_id!r}") from None
        return self.instances[self.offsets[index] : self.offsets[index + 1]]

    def instances_for(self, image_id: str) -> np.ndarray:
        """Corpus-protocol alias of :meth:`bag_instances`.

        Lets a bare :class:`PackedCorpus` stand in for a storage-layer
        corpus (the snapshot layer restores warmed corpora as packed views
        with no backing image store).
        """
        return self.bag_instances(image_id)

    def category_of(self, image_id: str) -> str:
        """Ground-truth category of one packed image (corpus protocol).

        Raises:
            DatabaseError: for an unknown id.
        """
        try:
            index = self._position[image_id]
        except KeyError:
            raise DatabaseError(f"unknown image id {image_id!r}") from None
        return self.categories[index]

    def packed(self, ids: Sequence[str] | None = None) -> "PackedCorpus":
        """Corpus-protocol spelling: itself (or a sub-selection)."""
        return self if ids is None else self.select(tuple(ids))

    def candidates(self) -> Iterator[RetrievalCandidate]:
        """Compatibility iterator over per-image candidates (views)."""
        for index, (image_id, category) in enumerate(
            zip(self.image_ids, self.categories)
        ):
            yield RetrievalCandidate(
                image_id=image_id,
                category=category,
                instances=self.instances[
                    self.offsets[index] : self.offsets[index + 1]
                ],
            )

    def select(self, ids: Sequence[str]) -> "PackedCorpus":
        """A packed sub-corpus holding ``ids`` in the given order.

        Raises:
            DatabaseError: for an unknown id.
        """
        chosen = tuple(ids)
        try:
            indices = np.array(
                [self._position[image_id] for image_id in chosen], dtype=np.int64
            )
        except KeyError as exc:
            raise DatabaseError(f"unknown image id {exc.args[0]!r}") from None
        if not chosen:
            return PackedCorpus(
                instances=np.zeros((0, self.n_dims)),
                offsets=np.zeros(1, dtype=np.int64),
                image_ids=(),
                categories=(),
            )
        lengths = self.lengths[indices]
        starts = self.offsets[:-1][indices]
        new_offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        # Gather the selected bags' rows in one fancy-index pass.
        row_index = concat_ranges(starts, lengths)
        return PackedCorpus(
            instances=self.instances[row_index],
            offsets=new_offsets,
            image_ids=chosen,
            categories=tuple(self.categories[i] for i in indices),
        )

    # ------------------------------------------------------------------ #
    # Scoring kernel                                                      #
    # ------------------------------------------------------------------ #

    def min_distances(self, concept: LearnedConcept) -> np.ndarray:
        """Per-image min weighted squared distance to the concept.

        Evaluates :func:`_expanded_min_kernel` over the stacked matrix
        ``X``, with ``X^2`` squared once per corpus and cached, so each
        query costs two row-product passes plus a segmented minimum per bag
        (``np.minimum.reduceat``) — no per-query ``(N, d)`` temporaries.
        Bitwise equal to :meth:`min_distances_at` for every bag.

        Raises:
            DatabaseError: if the concept's dimensionality does not match
                the corpus.
        """
        if self.n_bags == 0:
            return np.zeros(0)
        self._check_concept(concept)
        if self._squared is None:
            object.__setattr__(self, "_squared", self.instances * self.instances)
        return _expanded_min_kernel(
            self.instances, self._squared, concept, self.offsets[:-1]
        )

    def min_distances_at(
        self, concept: LearnedConcept, bag_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Per-bag min weighted squared distances for a subset of bags.

        The pruned rank path evaluates surviving bags in memory-bounded
        chunks: the selected bags' rows are gathered in one ``take``
        pass and scored with the same kernel as :meth:`min_distances`
        (reusing the cached squares when they exist), so
        ``min_distances_at(c, order)`` equals ``min_distances(c)[order]``
        bit for bit, whatever the order or size of the subset.

        Args:
            bag_indices: positions (0-based) of the bags to score, in the
                order the distances should come back.

        Raises:
            DatabaseError: on an out-of-range index or a concept whose
                dimensionality does not match the corpus.
        """
        self._check_concept(concept)
        chosen = np.asarray(bag_indices, dtype=np.int64).reshape(-1)
        if chosen.size == 0:
            return np.zeros(0)
        if chosen.min() < 0 or chosen.max() >= self.n_bags:
            raise DatabaseError(
                f"bag indices must lie in [0, {self.n_bags}), got "
                f"[{chosen.min()}, {chosen.max()}]"
            )
        starts = self.offsets[chosen]
        lengths = self.offsets[chosen + 1] - starts
        row_index = concat_ranges(starts, lengths)
        rows = self.instances.take(row_index, axis=0)
        squares = (
            self._squared.take(row_index, axis=0)
            if self._squared is not None
            else np.square(rows)
        )
        return _expanded_min_kernel(
            rows, squares, concept, np.cumsum(lengths) - lengths
        )

    def _check_concept(self, concept: LearnedConcept) -> None:
        """Raise :class:`DatabaseError` unless the concept's dims match."""
        if concept.n_dims != self.n_dims:
            raise DatabaseError(
                f"concept has {concept.n_dims} dims but the packed corpus "
                f"holds {self.n_dims}"
            )

    # ------------------------------------------------------------------ #
    # Rank index (repro.core.sharding)                                    #
    # ------------------------------------------------------------------ #

    def shard_index(self):
        """The (cached) bound-pruning shard index over this corpus.

        Built lazily on first use — one min/max ``reduceat`` pass over the
        stacked matrix, partitioned automatically
        (:func:`~repro.core.sharding.shard_boundaries`) — and cached on the
        corpus, so the build cost is amortised across every subsequent
        query.  Because storage adapters drop their packed view on
        mutation, a stale index can never survive a database change.
        """
        from repro.core.sharding import ShardIndex

        if self._shard_index is None:
            object.__setattr__(self, "_shard_index", ShardIndex.build(self))
        return self._shard_index

    @property
    def cached_shard_index(self):
        """The cached shard index, or ``None`` — never triggers a build.

        The snapshot layer uses this to decide whether the index rides
        along with a warm-worker snapshot.
        """
        return self._shard_index

    def adopt_shard_index(self, index) -> None:
        """Install an externally built shard index (snapshot restore path).

        Raises:
            DatabaseError: if the index does not describe this corpus.
        """
        if index.n_bags != self.n_bags or index.n_dims != self.n_dims:
            raise DatabaseError(
                f"adopted shard index covers {index.n_bags} bags x "
                f"{index.n_dims} dims but the corpus holds "
                f"{self.n_bags} x {self.n_dims}"
            )
        object.__setattr__(self, "_shard_index", index)

    def reordered_by_centroid(
        self, *, group_size: int | None = None
    ) -> "tuple[PackedCorpus, np.ndarray]":
        """The same bags re-packed in clustered-centroid order.

        Returns ``(reordered corpus, permutation)`` where
        ``permutation[i]`` is the old position of the bag now at position
        ``i`` (:func:`repro.core.sharding.centroid_order` — id-stable, so the
        produced bag sequence is identical for any ingestion order of the
        same bags).  Rankings over the reordered corpus are
        ordering-identical to the original (results order by ``(distance,
        image_id)`` only — property-tested against ``rank_by_loop``);
        what changes is pruning efficiency, because consecutive bags now
        share tight group envelopes regardless of ingestion order.  The
        reordered view inherits whether this view may route through the
        rank index; its shard-index cache starts empty (the index is
        position-dependent).
        """
        from repro.core.sharding import centroid_order

        permutation = centroid_order(self, group_size=group_size)
        ordered = self.select(tuple(self._id_array[permutation].tolist()))
        ordered.configure_rank_index(enabled=self._rank_index_enabled)
        return ordered, permutation

    def configure_rank_index(self, *, enabled: bool) -> None:
        """Allow or forbid routing this view through the rank index.

        Cache state, like the squared-instance cache, not corpus data:
        :func:`packed_view` forbids it on every view no cache owns, so
        :class:`Ranker` ranks those exhaustively instead of paying for a
        throwaway index build.
        """
        object.__setattr__(self, "_rank_index_enabled", bool(enabled))

    @property
    def rank_index_enabled(self) -> bool:
        """Whether :class:`Ranker` may route this corpus through the index."""
        return self._rank_index_enabled

    def __repr__(self) -> str:
        return (
            f"PackedCorpus({self.n_bags} images, {self.n_instances} instances, "
            f"{self.n_dims} dims)"
        )


class CorpusPacker:
    """Cache-or-pack policy shared by the corpus adapters.

    Every adapter (the image database, the colour corpora) wants the same
    behaviour: pack the *full* corpus once and cache it, answer subset
    requests from the cache, pack a subset directly when the cache does
    not exist yet (never touching images outside the subset — they may be
    unfeaturisable), and drop the cache when the owner's ``version``
    (a mutation counter) changes.
    """

    def __init__(self) -> None:
        self._packed: PackedCorpus | None = None
        self._version = None

    def cached(self, version=None) -> PackedCorpus | None:
        """The cached full view, or ``None`` when absent or stale.

        Lets persistence snapshot the packed corpus without forcing a
        (potentially expensive) build on databases that never ranked.
        """
        if self._version != version:
            return None
        return self._packed

    def adopt(self, packed: PackedCorpus, version=None) -> None:
        """Install an externally built full view (snapshot restore path)."""
        self._packed = packed
        self._version = version

    def packed(
        self,
        ids: Sequence[str] | None,
        *,
        all_ids: Sequence[str],
        category_of,
        instances_for,
        version=None,
    ) -> PackedCorpus:
        """The packed view for ``ids`` (the full corpus when ``None``).

        Args:
            ids: requested image ids, in order; ``None`` means all.
            all_ids: every id the corpus covers, in canonical order.
            category_of: ``image_id -> category`` lookup.
            instances_for: ``image_id -> (n, d) matrix`` lookup.
            version: the owner's mutation counter; a change invalidates
                the cached full view.
        """
        if self._version != version:
            self._packed = None
        if self._packed is not None:
            return self._packed if ids is None else self._packed.select(tuple(ids))
        chosen = tuple(all_ids if ids is None else ids)
        packed = PackedCorpus.pack(
            image_ids=chosen,
            categories=tuple(category_of(i) for i in chosen),
            matrices=[instances_for(i) for i in chosen],
        )
        if ids is None:
            self._packed = packed
            self._version = version
        return packed


@dataclass(frozen=True)
class RankedImage:
    """One entry of a retrieval ranking.

    Attributes:
        rank: 0-based position in the ranking (0 = best match).
        image_id: the image's database id.
        category: ground-truth category (used only for evaluation).
        distance: the image's min-instance weighted distance to the concept.
    """

    rank: int
    image_id: str
    category: str
    distance: float


class RetrievalResult:
    """An ordered retrieval ranking with evaluation helpers.

    A result may be *truncated*: a ``top_k`` ranking keeps only the best
    ``k`` entries while :attr:`total_candidates` still reports how many
    images competed.  Helpers that need unseen tail entries
    (:meth:`precision_at` beyond the kept prefix) refuse to guess on a
    truncated result.
    """

    def __init__(
        self, ranked: Sequence[RankedImage], total_candidates: int | None = None
    ) -> None:
        self._ranked = tuple(ranked)
        for position, entry in enumerate(self._ranked):
            if entry.rank != position:
                raise DatabaseError(
                    f"ranking entry {entry.image_id!r} has rank {entry.rank}, "
                    f"expected {position}"
                )
        if total_candidates is None:
            total_candidates = len(self._ranked)
        if total_candidates < len(self._ranked):
            raise DatabaseError(
                f"total_candidates ({total_candidates}) cannot be smaller "
                f"than the ranking length ({len(self._ranked)})"
            )
        self._total_candidates = int(total_candidates)

    @property
    def ranked(self) -> tuple[RankedImage, ...]:
        """All kept entries, best match first."""
        return self._ranked

    @property
    def total_candidates(self) -> int:
        """How many images competed, including any truncated away."""
        return self._total_candidates

    @property
    def is_truncated(self) -> bool:
        """True when a ``top_k`` request dropped lower-ranked entries."""
        return len(self._ranked) < self._total_candidates

    def truncate(self, k: int | None) -> "RetrievalResult":
        """The same ranking keeping only the best ``k`` entries.

        ``total_candidates`` is preserved, so the result remembers how many
        images it was ranked against.  ``None`` returns ``self`` unchanged.
        """
        if k is None:
            return self
        if k < 0:
            raise DatabaseError(f"k must be >= 0, got {k}")
        if k >= len(self._ranked):
            return self
        return RetrievalResult(
            self._ranked[:k], total_candidates=self._total_candidates
        )

    def top(self, k: int) -> tuple[RankedImage, ...]:
        """The best ``k`` matches.

        When ``k`` exceeds the (possibly truncated) ranking length, every
        kept entry is returned — ``top`` never invents entries and never
        raises for an over-large ``k``.
        """
        if k < 0:
            raise DatabaseError(f"k must be >= 0, got {k}")
        return self._ranked[:k]

    @property
    def image_ids(self) -> tuple[str, ...]:
        """Image ids in ranked order."""
        return tuple(entry.image_id for entry in self._ranked)

    @property
    def distances(self) -> np.ndarray:
        """Distances in ranked order (non-decreasing)."""
        return np.array([entry.distance for entry in self._ranked])

    def relevance(self, target_category: str) -> np.ndarray:
        """Boolean relevance mask in ranked order for a target category."""
        return np.array(
            [entry.category == target_category for entry in self._ranked], dtype=bool
        )

    def false_positives(
        self, target_category: str, limit: int, exclude: Iterable[str] = ()
    ) -> tuple[RankedImage, ...]:
        """The top-ranked *incorrect* images (the feedback loop's fodder).

        Operates on the kept entries only; on a truncated result the tail
        beyond ``top_k`` is never consulted.

        Args:
            target_category: what the user is searching for.
            limit: how many false positives to return at most.
            exclude: image ids to skip (e.g. existing examples).
        """
        if limit < 0:
            raise DatabaseError(f"limit must be >= 0, got {limit}")
        excluded = set(exclude)
        found: list[RankedImage] = []
        for entry in self._ranked:
            if len(found) >= limit:
                break
            if entry.category != target_category and entry.image_id not in excluded:
                found.append(entry)
        return tuple(found)

    def precision_at(self, k: int, target_category: str) -> float:
        """Precision among the top ``k`` results.

        When ``k`` exceeds the length of a *complete* ranking, precision is
        computed over the full ranking (there is nothing below it).  On a
        *truncated* ranking the entries beyond the kept prefix are unknown,
        so asking for ``k`` past the prefix raises instead of silently
        returning a wrong number.

        Raises:
            DatabaseError: for ``k < 1``, or ``k`` beyond the kept prefix
                of a truncated ranking.
        """
        if k < 1:
            raise DatabaseError(f"k must be >= 1, got {k}")
        if k > len(self._ranked) and self.is_truncated:
            raise DatabaseError(
                f"precision@{k} is undefined: the ranking was truncated to "
                f"its top {len(self._ranked)} of {self._total_candidates} "
                "candidates"
            )
        top = self._ranked[:k]
        if not top:
            return 0.0
        hits = sum(1 for entry in top if entry.category == target_category)
        return hits / len(top)

    def __len__(self) -> int:
        return len(self._ranked)

    def __iter__(self) -> Iterator[RankedImage]:
        return iter(self._ranked)

    def __repr__(self) -> str:
        if self.is_truncated:
            return (
                f"RetrievalResult(top {len(self._ranked)} of "
                f"{self._total_candidates} images)"
            )
        return f"RetrievalResult({len(self._ranked)} images)"


def _ephemeral_view(packed: PackedCorpus) -> PackedCorpus:
    """Mark a view no cache owns as non-routable for the rank index.

    A shard index built on such a view dies with it when the caller
    returns, so routing would pay an index build *plus* the bound pass on
    every query — strictly more than one exhaustive kernel pass.
    """
    if packed.rank_index_enabled:
        packed.configure_rank_index(enabled=False)
    return packed


def packed_view(corpus, ids: Sequence[str] | None = None) -> PackedCorpus:
    """The packed view a corpus offers for the given ids.

    Accepts a :class:`PackedCorpus` (sub-selected when ``ids`` is given),
    an object offering ``packed(ids)`` (answered from its cache), or a
    plain iterable of :class:`RetrievalCandidate` items (``ids`` must be
    ``None``).

    Views this function creates that no adapter cache owns — id subsets
    and raw-iterable packs — come back with the rank index disabled
    (:meth:`PackedCorpus.configure_rank_index`): they are discarded when
    the caller returns, so :class:`Ranker` must never build a throwaway
    shard index on them.  Caller-held views (a :class:`PackedCorpus`
    passed directly, an adapter's cached full view) stay routable.

    Raises:
        DatabaseError: for a corpus offering neither ``packed()`` nor an
            iterable of :class:`RetrievalCandidate` items.
    """
    if isinstance(corpus, PackedCorpus):
        if ids is None:
            return corpus
        return _ephemeral_view(corpus.select(tuple(ids)))
    packer = getattr(corpus, "packed", None)
    if callable(packer):
        view = packer(ids)
        return view if ids is None else _ephemeral_view(view)
    try:
        items = list(corpus)
    except TypeError:
        items = None
    if items is None or not all(
        isinstance(item, RetrievalCandidate) for item in items
    ):
        raise DatabaseError(
            f"cannot rank a {type(corpus).__name__}: a corpus must offer "
            "packed() or be an iterable of RetrievalCandidate items"
        )
    return _ephemeral_view(PackedCorpus.from_candidates(items))


#: Bag count above which :class:`Ranker` routes a ``top_k`` query through
#: the bound-pruned shard index by default.  Below it the exhaustive kernel
#: is already a handful of microseconds and the index build would never pay
#: for itself.
AUTO_SHARD_MIN_BAGS = 4096


def top_order(
    ids: np.ndarray, distances: np.ndarray, top_k: int | None
) -> np.ndarray:
    """Indices of the best entries in ``(distance, image_id)`` order.

    The exact prefix of the full id-tie-broken lexsort.  When ``top_k`` is
    set and smaller than the pool, an ``np.partition`` pass finds the kth
    smallest distance and only the contenders at or below it (distance ties
    kept, so id tie-breaking stays exact) are lexsorted — O(N + c log c)
    instead of the O(N log N) full sort the serving path used to pay.
    """
    if top_k is None or top_k >= ids.size:
        return np.lexsort((ids, distances))[:top_k]
    kth = np.partition(distances, top_k - 1)[top_k - 1]
    contenders = np.nonzero(distances <= kth)[0]
    order = contenders[np.lexsort((ids[contenders], distances[contenders]))]
    return order[:top_k]


def keep_mask(
    packed: PackedCorpus,
    exclude: Iterable[str] = (),
    category_filter: str | None = None,
) -> np.ndarray:
    """Boolean mask of the bags surviving id exclusion and category filtering."""
    keep = np.ones(packed.n_bags, dtype=bool)
    excluded = set(exclude)
    if excluded:
        keep &= ~np.isin(packed.id_array, sorted(excluded))
    if category_filter is not None:
        keep &= packed.category_array == category_filter
    return keep


def build_result(
    ids: np.ndarray,
    categories: np.ndarray,
    distances: np.ndarray,
    order: np.ndarray,
    total: int,
) -> RetrievalResult:
    """Materialise a :class:`RetrievalResult` from ordered array indices.

    ``tolist()`` converts to native str/float in bulk — far cheaper than
    per-element numpy scalar coercion when building the result.
    """
    ranked = [
        RankedImage(rank=position, image_id=image_id, category=category,
                    distance=distance)
        for position, (image_id, category, distance) in enumerate(
            zip(
                ids[order].tolist(),
                categories[order].tolist(),
                distances[order].tolist(),
            )
        )
    ]
    return RetrievalResult(ranked, total_candidates=total)


def rank_exhaustive(
    concept: LearnedConcept,
    packed: PackedCorpus,
    keep: np.ndarray,
    top_k: int | None,
) -> RetrievalResult:
    """Score every kept bag in one kernel pass and order by ``(distance, id)``.

    The selection both rankers end in when nothing is pruned: the
    exhaustive branch of :meth:`Ranker.rank`, and
    :meth:`~repro.core.sharding.ShardedRanker.rank` when ``top_k`` covers
    every surviving bag.
    """
    if not keep.any():
        return RetrievalResult((), total_candidates=0)
    distances = packed.min_distances(concept)[keep]
    ids = packed.id_array[keep]
    categories = packed.category_array[keep]
    order = top_order(ids, distances, top_k)
    return build_result(ids, categories, distances, order, int(ids.size))


class Ranker:
    """Vectorised top-k ranking of a corpus against a learned concept.

    The serving hot path: scores every candidate with one broadcast
    weighted-distance kernel (:meth:`PackedCorpus.min_distances`), orders by
    ``(distance, image_id)`` — identical tie-breaking to the legacy loop,
    via :func:`top_order`'s partial sort when ``top_k`` is set — and
    truncates to the best ``top_k`` while preserving
    :attr:`RetrievalResult.total_candidates`.

    Large corpora take the bound-pruned path instead: a ``top_k`` query
    over a :class:`PackedCorpus` of at least :data:`AUTO_SHARD_MIN_BAGS`
    bags is routed through :class:`repro.core.sharding.ShardedRanker`,
    which skips every bag whose geometric lower bound proves it cannot
    enter the top ``k``.  Both paths score bags with the same row-invariant
    kernel, so the routed ranking equals the exhaustive one, distances
    included, and routing is purely a performance decision.  A corpus view
    no cache owns (every ephemeral view :func:`packed_view` creates) is
    always ranked exhaustively, so no query pays for a throwaway index
    build.

    Args:
        auto_shard: allow routing through the shard index (default on).
    """

    def __init__(self, *, auto_shard: bool = True) -> None:
        self._auto_shard = auto_shard

    def rank(
        self,
        concept: LearnedConcept,
        corpus,
        *,
        top_k: int | None = None,
        exclude: Iterable[str] = (),
        category_filter: str | None = None,
    ) -> RetrievalResult:
        """Rank a corpus, best match first.

        Args:
            concept: the learned ``(t, w)``.
            corpus: a :class:`PackedCorpus`, an object offering
                ``packed()``, or an iterable of
                :class:`RetrievalCandidate` items.
            top_k: keep only the best ``top_k`` entries (``None`` keeps
                the full ranking); the result still reports
                ``total_candidates``.
            exclude: image ids to leave out (e.g. the training examples).
            category_filter: keep only candidates of this ground-truth
                category (evaluation workflows).

        Ties in distance are broken by image id so rankings are
        deterministic across runs.

        Raises:
            DatabaseError: on a non-positive ``top_k`` or a concept whose
                dimensionality does not match the corpus.
        """
        if top_k is not None and top_k < 1:
            raise DatabaseError(f"top_k must be >= 1 or None, got {top_k}")
        packed = PackedCorpus.coerce(corpus)
        if (
            self._auto_shard
            and top_k is not None
            and packed.rank_index_enabled
            and packed.n_bags >= AUTO_SHARD_MIN_BAGS
        ):
            from repro.core.sharding import ShardedRanker

            return ShardedRanker().rank(
                concept,
                packed,
                top_k=top_k,
                exclude=exclude,
                category_filter=category_filter,
            )
        return rank_exhaustive(
            concept, packed, keep_mask(packed, exclude, category_filter), top_k
        )


def rank_by_loop(
    concept: LearnedConcept,
    candidates: Iterable[RetrievalCandidate],
    exclude: Iterable[str] = (),
) -> RetrievalResult:
    """The legacy per-bag ranking loop, kept as the reference implementation.

    Scores one candidate at a time with :meth:`LearnedConcept.bag_distance`
    and sorts in Python.  The vectorised :class:`Ranker` is asserted
    order-identical to this function by the equivalence suite
    (``tests/test_rank_equivalence.py``) and raced against it in
    ``benchmarks/bench_rank_corpus.py``; production code should use
    :class:`Ranker`.
    """
    excluded = set(exclude)
    scored: list[tuple[float, str, str]] = []
    for candidate in candidates:
        if candidate.image_id in excluded:
            continue
        distance = concept.bag_distance(candidate.instances)
        scored.append((distance, candidate.image_id, candidate.category))
    scored.sort(key=lambda item: (item[0], item[1]))
    ranked = [
        RankedImage(rank=position, image_id=image_id, category=category, distance=distance)
        for position, (distance, image_id, category) in enumerate(scored)
    ]
    return RetrievalResult(ranked)
