"""Sharded, bound-pruned exact top-k ranking (the serving rank index).

The exhaustive :class:`~repro.core.retrieval.Ranker` streams every instance
of the corpus through the weighted-distance kernel on every query.  MIL's
ranking score — the *minimum* over a bag's instances — admits a cheap and
provably exact per-bag lower bound: for a bag whose instances lie inside
the coordinate box ``[lo, hi]`` (the per-coordinate min/max envelope over
its instances), every instance ``x`` satisfies

    sum_j w_j (x_j - t_j)^2  >=  sum_j w_j * clip_j^2,
    clip_j = max(0, lo_j - t_j, t_j - hi_j)

because each coordinate of ``x`` lies in ``[lo_j, hi_j]`` and the weights
are non-negative.  The bound costs O(n_bags * d) per query — one envelope
pass instead of one pass per instance — and any bag whose bound exceeds
the current kth-best *exact* distance can be skipped without evaluating a
single instance.  Pruning is deliberately conservative: the cutoff is the
threshold widened by the relative :data:`PRUNE_SLACK` *and* an absolute
floor scaled to the corpus/query magnitude
(:meth:`ShardIndex.prune_floor` — together absorbing the formula
difference between the clip-form bound and the expanded-form kernel,
including its cancellation error near distance 0) and ties at the cutoff
are always evaluated, so a bag whose exact distance
ties the kth-best (and might win on the id tie-break) is never skipped.
Evaluated bags are scored by the same row-invariant kernel as the
exhaustive path, so the pruned ranking equals the exhaustive one,
distances included, asserted by the equivalence suites.

:class:`ShardIndex` precomputes the envelopes once per corpus (cached on
the :class:`~repro.core.retrieval.PackedCorpus`, so corpus mutation —
which rebuilds the packed view — can never serve a stale index).
:class:`ShardedRanker` answers a query with one best-first scan on the
calling thread: it sorts the coarse group bounds once, evaluates bags
group by group in ascending-bound order in memory-bounded chunks, and
stops at the first group whose bound exceeds the running kth-best cutoff
— every later group is pruned without computing a single per-bag bound.
The survivors are merged with the same id-tie-broken partial sort the
exhaustive path uses.  The index's contiguous shard partition plays no
part in a query; it only cuts the fragments that cross-process scatter
(:mod:`repro.serve.scatter`) hands to its workers.

Group envelopes are only as tight as the bags that share them.
:func:`centroid_order` is the pack-time permutation
(:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`) that
puts bags near in centroid space into the same group, whatever order the
corpus was ingested in.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.concept import LearnedConcept
from repro.core.retrieval import (
    PackedCorpus,
    RetrievalResult,
    build_result,
    concat_ranges,
    keep_mask,
    rank_exhaustive,
    top_order,
)
from repro.errors import DatabaseError

#: Target bags per shard when the shard count is chosen automatically.
DEFAULT_SHARD_BAGS = 16384
#: Cap on automatically chosen shard counts (scatter's fragment width).
MAX_AUTO_SHARDS = 16
#: Bags evaluated per chunk of a scan (memory bound: one chunk of gathered
#: instance rows is the largest per-query temporary); also sets how many
#: groups (``DEFAULT_CHUNK_BAGS // group_size``) the sweep takes per step.
DEFAULT_CHUNK_BAGS = 1024
#: Bags per group envelope (the coarse first pruning level).  A group's
#: envelope is the union box of its bags' envelopes, so one group-bound
#: comparison can rule out all of its bags before any per-bag bound is
#: computed — the per-query bound pass drops from O(n_bags x d) to
#: O(n_bags / group_size x d) plus the surviving groups.
DEFAULT_GROUP_BAGS = 64
#: Relative slack applied to the pruning threshold.  The bound (clip form)
#: and the exact kernel (expanded form) compute the same real quantity
#: through different floating-point formulas, so on non-dyadic data the
#: computed bound of a boundary bag can land a few ulps *above* its
#: computed exact distance; widening the cutoff by this factor keeps every
#: such bag in the evaluated set.  Slack only ever causes extra exact
#: evaluations — it can never prune a candidate — so exactness is
#: preserved and the cost is a handful of borderline bags per query.
PRUNE_SLACK = 1e-9
#: Surviving bags sampled by :func:`seed_threshold` when the coordinator
#: pre-tightens the pruning threshold for a scattered query.  The sample is
#: a deterministic stride over the survivors, so the seed — and therefore
#: the amount of work each worker skips — is reproducible run to run.
SEED_SAMPLE_BAGS = 4096
#: Safety factor on the absolute cutoff floor (:meth:`ShardIndex.prune_floor`).
#: The floor bounds the expanded quadratic form's cancellation error; the
#: analytic bound is ~``n_dims * eps * kernel_scale`` and this factor covers
#: the accumulation constants the analysis elides.  Like :data:`PRUNE_SLACK`,
#: a generous floor only costs extra exact evaluations, never exactness.
PRUNE_FLOOR_SAFETY = 8.0


def _cutoff(threshold: float, floor: float) -> float:
    """The widened pruning cutoff for a running kth-best distance.

    Relative slack alone collapses to zero width when the running
    threshold is 0 — exactly the regime where the expanded-form kernel's
    cancellation error (clamped at 0 by ``min_distances``) is largest
    relative to the clip-form bound, so a bag whose computed exact
    distance rounds to the threshold could still be pruned by its
    positive bound.  The absolute ``floor`` (scaled to the corpus/query
    magnitude, see :meth:`ShardIndex.prune_floor`) keeps the cutoff wider
    than that cancellation error at every threshold.
    """
    return threshold + max(PRUNE_SLACK * threshold, floor)


def shard_boundaries(n_bags: int, n_shards: int | None = None) -> np.ndarray:
    """Contiguous shard boundaries (``n_shards + 1`` offsets) over the bags.

    ``n_shards=None`` picks one shard per :data:`DEFAULT_SHARD_BAGS` bags,
    capped at :data:`MAX_AUTO_SHARDS`.  An explicit count is clamped to the
    bag count (a shard is never empty) and must be positive.

    Raises:
        DatabaseError: on a non-positive explicit ``n_shards``.
    """
    if n_shards is not None and n_shards < 1:
        raise DatabaseError(f"n_shards must be >= 1, got {n_shards}")
    if n_bags <= 0:
        return np.zeros(1, dtype=np.int64)
    if n_shards is None:
        n_shards = max(1, min(MAX_AUTO_SHARDS, -(-n_bags // DEFAULT_SHARD_BAGS)))
    n_shards = min(n_shards, n_bags)
    return np.array(
        [i * n_bags // n_shards for i in range(n_shards + 1)], dtype=np.int64
    )


class ShardIndex:
    """Per-bag pruning envelopes plus a shard partition over one corpus.

    Attributes:
        corpus: the :class:`PackedCorpus` the index describes.
        lower / upper: ``(n_bags, d)`` per-bag coordinate min/max envelopes.
        boundaries: ``(n_shards + 1,)`` contiguous bag-range offsets.
        group_size: bags per coarse group envelope.
        group_lower / group_upper: ``(n_groups, d)`` union envelopes of
            each block of ``group_size`` consecutive bags (derived from the
            per-bag envelopes on construction, never persisted).
        extent: ``(d,)`` per-coordinate max absolute value over all bag
            envelopes — the corpus-magnitude input to :meth:`prune_floor`
            (derived on construction, never persisted).
    """

    __slots__ = (
        "corpus",
        "lower",
        "upper",
        "boundaries",
        "group_size",
        "group_lower",
        "group_upper",
        "extent",
    )

    def __init__(
        self,
        corpus: PackedCorpus,
        lower: np.ndarray,
        upper: np.ndarray,
        boundaries: np.ndarray,
        group_size: int = DEFAULT_GROUP_BAGS,
        *,
        _derived: tuple | None = None,
    ) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        bounds = np.asarray(boundaries, dtype=np.int64).reshape(-1)
        expected = (corpus.n_bags, corpus.n_dims)
        if lower.shape != expected or upper.shape != expected:
            raise DatabaseError(
                f"shard index envelopes must have shape {expected}, got "
                f"{lower.shape} and {upper.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            # A NaN slips past ``lower > upper`` and would silently prune
            # its bag (and its whole group) from every ranking.
            raise DatabaseError("shard index envelopes must be finite")
        if np.any(lower > upper):
            raise DatabaseError("shard index envelope has lower > upper")
        if (
            bounds.size < 1
            or bounds[0] != 0
            or bounds[-1] != corpus.n_bags
            or (bounds.size > 1 and np.any(np.diff(bounds) < 1))
        ):
            raise DatabaseError(
                f"shard boundaries must partition [0, {corpus.n_bags}] into "
                f"non-empty ranges, got {bounds.tolist()}"
            )
        if group_size < 1:
            raise DatabaseError(f"group_size must be >= 1, got {group_size}")
        self.corpus = corpus
        self.lower = lower
        self.upper = upper
        self.boundaries = bounds
        self.group_size = int(group_size)
        if _derived is not None:
            # Derived arrays handed over by a caller that already holds
            # them (shared-memory attach), saving the O(n_bags x d) pass.
            self.group_lower, self.group_upper, self.extent = _derived
        elif lower.shape[0] == 0:
            self.group_lower = lower
            self.group_upper = upper
            self.extent = np.zeros(lower.shape[1])
        else:
            self.extent = np.maximum(np.abs(lower), np.abs(upper)).max(axis=0)
            group_starts = np.arange(0, lower.shape[0], group_size,
                                     dtype=np.int64)
            self.group_lower = np.minimum.reduceat(lower, group_starts, axis=0)
            self.group_upper = np.maximum.reduceat(upper, group_starts, axis=0)

    @classmethod
    def build(
        cls,
        corpus,
        n_shards: int | None = None,
        group_size: int = DEFAULT_GROUP_BAGS,
    ) -> "ShardIndex":
        """Build the index for a corpus: one min/max pass over the matrix."""
        packed = PackedCorpus.coerce(corpus)
        if packed.n_bags == 0:
            empty = np.zeros((0, packed.n_dims))
            return cls(packed, empty, empty.copy(), np.zeros(1, dtype=np.int64),
                       group_size)
        lower = np.minimum.reduceat(packed.instances, packed.offsets[:-1], axis=0)
        upper = np.maximum.reduceat(packed.instances, packed.offsets[:-1], axis=0)
        return cls(packed, lower, upper,
                   shard_boundaries(packed.n_bags, n_shards), group_size)

    @property
    def n_bags(self) -> int:
        """Bags covered by the index."""
        return self.lower.shape[0]

    @property
    def n_dims(self) -> int:
        """Feature dimensionality."""
        return self.lower.shape[1]

    @property
    def n_shards(self) -> int:
        """Number of shards in the partition."""
        return max(1, self.boundaries.size - 1)

    def lower_bounds(self, concept: LearnedConcept) -> np.ndarray:
        """Exact per-bag lower bounds on the min weighted squared distance.

        Never exceeds :meth:`PackedCorpus.min_distances` (asserted by the
        unit suite); equals it when a bag's envelope is a point.

        Raises:
            DatabaseError: on a concept whose dimensionality does not match.
        """
        if concept.n_dims != self.n_dims:
            raise DatabaseError(
                f"concept has {concept.n_dims} dims but the shard index "
                f"holds {self.n_dims}"
            )
        return envelope_bounds(self.lower, self.upper, concept)

    def prune_floor(self, concept: LearnedConcept) -> float:
        """Absolute cutoff slack covering the exact kernel's rounding error.

        ``min_distances`` evaluates the expanded quadratic form
        ``(X^2) @ w - 2 X @ (w t) + w . t^2``, whose terms can each reach
        ``kernel_scale = w @ (extent + |t|)^2`` in magnitude; catastrophic
        cancellation between them (clamped at 0) can therefore push a
        computed distance below its true value — and below the clip-form
        bound — by up to ``O(n_dims * eps * kernel_scale)``.  The floor
        (that bound times :data:`PRUNE_FLOOR_SAFETY`) widens the pruning
        cutoff by at least this error at every threshold, so a bag whose
        computed exact distance ties the running kth-best is never pruned
        on the strength of its (more accurate) bound, even when the
        threshold itself is 0 and relative slack has no width.  O(d) per
        query.
        """
        if concept.n_dims != self.n_dims:
            raise DatabaseError(
                f"concept has {concept.n_dims} dims but the shard index "
                f"holds {self.n_dims}"
            )
        scale = float(concept.w @ (self.extent + np.abs(concept.t)) ** 2)
        eps = float(np.finfo(np.float64).eps)
        return PRUNE_FLOOR_SAFETY * max(1, self.n_dims) * eps * scale

    def __repr__(self) -> str:
        return (
            f"ShardIndex({self.n_bags} bags, {self.n_dims} dims, "
            f"{self.n_shards} shards)"
        )


def index_payload(index: ShardIndex, prefix: str, arrays: dict) -> dict:
    """Stash an index's persistent arrays under ``prefix``; returns its manifest.

    Only the partition-dependent essentials are persisted (per-bag
    envelopes, shard boundaries, group size); the group envelopes and the
    extent are rederived on restore.  Snapshot formats (database format
    v3, serve snapshots) and the shared-memory worker layout all encode
    the index through this one helper.
    """
    arrays[f"{prefix}_lower"] = index.lower
    arrays[f"{prefix}_upper"] = index.upper
    arrays[f"{prefix}_boundaries"] = index.boundaries
    return {
        "lower": f"{prefix}_lower",
        "upper": f"{prefix}_upper",
        "boundaries": f"{prefix}_boundaries",
        "group_size": int(index.group_size),
    }


def adopt_index_payload(packed: PackedCorpus, info, arrays) -> None:
    """Rebuild and adopt a persisted shard index onto a restored corpus.

    ``info`` is an :func:`index_payload` manifest (``None`` is a no-op, so
    callers can pass ``manifest.get(...)`` directly).

    Raises:
        DatabaseError: when the index arrays are missing or do not
            describe the corpus (a corrupt snapshot must not silently
            serve wrong prunings).
    """
    if info is None:
        return
    try:
        lower = arrays[info["lower"]]
        upper = arrays[info["upper"]]
        boundaries = arrays[info["boundaries"]]
    except (KeyError, TypeError) as exc:
        raise DatabaseError(
            f"snapshot manifest references missing shard-index arrays: {exc}"
        ) from exc
    packed.adopt_shard_index(
        ShardIndex(
            packed,
            lower=lower,
            upper=upper,
            boundaries=boundaries,
            # Payloads predating the group_size field restore the default.
            group_size=int(info.get("group_size", DEFAULT_GROUP_BAGS)),
        )
    )


def centroid_order(corpus, *, group_size: int | None = None) -> np.ndarray:
    """An id-stable, spatially clustered permutation of the bag positions.

    Recursive median split over the bag centroids: at every level the set
    splits at the median of its widest-spread coordinate (max - min, which
    is summation-order independent, so shuffled ingestion cannot flip the
    choice), ties broken by image id; blocks of at most ``group_size``
    bags are emitted in id order.  Bags that are near in centroid space
    therefore land in the same :class:`ShardIndex` group, which tightens
    the group envelopes regardless of ingestion order — and because the
    permutation is keyed by ``(coordinate, id)`` at every level, the *id
    sequence* it produces is identical for any ingestion order of the same
    bags.

    Raises:
        DatabaseError: on a non-positive ``group_size``.
    """
    packed = PackedCorpus.coerce(corpus)
    if group_size is None:
        group_size = DEFAULT_GROUP_BAGS
    if group_size < 1:
        raise DatabaseError(f"group_size must be >= 1, got {group_size}")
    if packed.n_bags == 0:
        return np.zeros(0, dtype=np.int64)
    centroids = (
        np.add.reduceat(packed.instances, packed.offsets[:-1], axis=0)
        / packed.lengths[:, None]
    )
    ids = packed.id_array
    blocks: list[np.ndarray] = []
    stack = [np.arange(packed.n_bags, dtype=np.int64)]
    while stack:
        positions = stack.pop()
        if positions.size <= group_size:
            blocks.append(positions[np.argsort(ids[positions], kind="stable")])
            continue
        points = centroids[positions]
        dim = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
        order = np.lexsort((ids[positions], points[:, dim]))
        half = positions.size // 2
        stack.append(positions[order[half:]])
        stack.append(positions[order[:half]])
    return np.concatenate(blocks)


def envelope_bounds(
    lower: np.ndarray, upper: np.ndarray, concept: LearnedConcept
) -> np.ndarray:
    """The box lower bound for each envelope row: ``w . clip(t,lo,hi)-t)^2``.

    ``clip`` projects the concept point onto each bag's box, so the result
    is the exact weighted squared distance from ``t`` to the box — the
    infimum of the instance kernel over it.  One clip, one in-place square
    and one matrix-vector product; no O(bags x dims) temporary beyond the
    clipped matrix itself.
    """
    gap = np.clip(concept.t, lower, upper)
    gap -= concept.t
    np.multiply(gap, gap, out=gap)
    return gap @ concept.w


def seed_threshold(
    packed: PackedCorpus,
    index: ShardIndex,
    concept: LearnedConcept,
    keep: np.ndarray,
    top_k: int,
    *,
    sample_bags: int = SEED_SAMPLE_BAGS,
) -> float:
    """A safe initial pruning threshold from a small evaluated sample.

    Strides deterministically over the surviving bag positions, keeps the
    ``top_k`` smallest *envelope bounds* of the sample (one
    ``np.argpartition`` — no sort), exactly evaluates just those bags, and
    returns their kth-smallest exact distance.  The kth-smallest distance
    over any subset of the survivors can only over-estimate the global
    kth-best, so seeding a scan's threshold with this value is safe for
    exactly the reason the scan's own running kth-best is — pruning
    against it skips work but can never skip a top-k contender.  Returns
    ``inf`` (a no-op seed) when the sample cannot fill a top-k.

    The scatter coordinator computes this once per query and ships it to
    every worker, so even the *first* chunk a late worker evaluates prunes
    against an already tight threshold instead of rediscovering one from
    scratch per fragment.

    Raises:
        DatabaseError: on a non-positive ``top_k`` / ``sample_bags``, an
            index built over a different corpus, or a mismatched concept.
    """
    if top_k < 1:
        raise DatabaseError(f"top_k must be >= 1, got {top_k}")
    if sample_bags < 1:
        raise DatabaseError(f"sample_bags must be >= 1, got {sample_bags}")
    if index.corpus is not packed:
        raise DatabaseError(
            "the shard index was built over a different corpus than the "
            "one being seeded"
        )
    if concept.n_dims != index.n_dims:
        raise DatabaseError(
            f"concept has {concept.n_dims} dims but the shard index "
            f"holds {index.n_dims}"
        )
    positions = np.nonzero(keep)[0]
    if positions.size > sample_bags:
        stride = -(-positions.size // sample_bags)
        positions = positions[::stride]
    if positions.size <= top_k:
        # Fewer sampled bags than k: the sample's maximum says nothing
        # about the global kth-best, so no safe seed exists.
        return float("inf")
    bounds = envelope_bounds(
        index.lower[positions], index.upper[positions], concept
    )
    pick = np.argpartition(bounds, top_k - 1)[:top_k]
    distances = packed.min_distances_at(concept, positions[pick])
    return float(np.partition(distances, top_k - 1)[top_k - 1])


class ShardedRanker:
    """Exact top-k ranking that skips bags the lower bound rules out.

    Produces the same result as the exhaustive
    :class:`~repro.core.retrieval.Ranker`, distances included, and the
    same ordering as :func:`~repro.core.retrieval.rank_by_loop` for every
    input: the bound is geometric, the pruning cutoff slack-widened
    (:data:`PRUNE_SLACK` plus the absolute
    :meth:`ShardIndex.prune_floor`), and every evaluated bag is scored by
    the row-invariant kernel the exhaustive path uses, so no tie-break or
    rounding case can diverge.
    Queries that cannot prune (``top_k`` ``None`` or at least the
    surviving pool size) take the exhaustive selection
    (:func:`~repro.core.retrieval.rank_exhaustive`).  Every other query is
    one best-first scan on the calling thread (:meth:`_shard_candidates`):
    no thread fan-out, and no per-bag bound past the first group the
    running cutoff prunes.

    Args:
        chunk_bags: bags evaluated per kernel call (the memory bound: one
            chunk of gathered instance rows is the largest per-query
            temporary); the sweep takes ``chunk_bags // group_size``
            groups (at least one) per step.
    """

    def __init__(self, *, chunk_bags: int = DEFAULT_CHUNK_BAGS) -> None:
        if chunk_bags < 1:
            raise DatabaseError(f"chunk_bags must be >= 1, got {chunk_bags}")
        self._chunk_bags = chunk_bags

    def rank(
        self,
        concept: LearnedConcept,
        corpus,
        *,
        top_k: int | None = None,
        exclude: Iterable[str] = (),
        category_filter: str | None = None,
        index: ShardIndex | None = None,
    ) -> RetrievalResult:
        """Rank a corpus, best match first — same contract as ``Ranker.rank``.

        The whole-corpus fragment ``[0, n_bags)`` (:meth:`_scan`, the scan
        behind :meth:`fragment_candidates`) merged with the same
        :func:`~repro.core.retrieval.top_order` +
        :func:`~repro.core.retrieval.build_result` pass scatter uses.

        Args:
            index: a prebuilt :class:`ShardIndex` to use instead of the
                corpus's cached one (benchmark/offline-build workflows).

        Raises:
            DatabaseError: on a non-positive ``top_k``, a mismatched
                concept, or an ``index`` built over a different corpus.
        """
        if top_k is not None and top_k < 1:
            raise DatabaseError(f"top_k must be >= 1 or None, got {top_k}")
        packed = PackedCorpus.coerce(corpus)
        keep = keep_mask(packed, exclude, category_filter)
        total = int(np.count_nonzero(keep))
        if top_k is None or top_k >= total:
            # Nothing can be pruned — every survivor must be ranked.
            return rank_exhaustive(concept, packed, keep, top_k)
        candidate_idx, candidate_dist, _ = self._scan(
            concept, packed, index, keep, top_k, 0, packed.n_bags, np.inf
        )
        ids = packed.id_array[candidate_idx]
        categories = packed.category_array[candidate_idx]
        order = top_order(ids, candidate_dist, top_k)
        return build_result(ids, categories, candidate_dist, order, total)

    def fragment_candidates(
        self,
        concept: LearnedConcept,
        corpus,
        *,
        top_k: int,
        start: int,
        stop: int,
        exclude: Iterable[str] = (),
        category_filter: str | None = None,
        index: ShardIndex | None = None,
        initial_threshold: float = np.inf,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One contiguous bag range's top-k candidates (the scatter half).

        Runs the same bound pass + chunked survivor evaluation as
        :meth:`rank`, restricted to bags in ``[start, stop)``, and returns
        ``(bag positions, exact distances, bags exactly evaluated)`` —
        the compact fragment a scatter worker ships back instead of a full
        ranking.  The candidate set is trimmed to the fragment's own
        kth-smallest distance with ties kept.

        Merging fragments from a disjoint cover of the corpus through
        :func:`~repro.core.retrieval.top_order` reproduces :meth:`rank`
        bit for bit: every fragment keeps each of its bags whose exact
        distance can reach the global top-k (trimming only drops distances
        strictly above the fragment's kth-smallest, which is >= the global
        kth-best because the fragment's candidates are a subset of the
        query's), every bag's distance is bitwise the same however its
        rows were gathered (the kernel is row-invariant), and disjoint ranges mean no bag is
        ever a candidate twice.

        ``initial_threshold`` pre-seeds the scan's pruning threshold; any
        upper bound on the query's true kth-best distance is safe
        (:func:`seed_threshold` computes one), ``inf`` disables seeding.

        Raises:
            DatabaseError: on a non-positive ``top_k``, a range outside
                ``[0, n_bags]``, a mismatched concept, or an ``index``
                built over a different corpus.
        """
        if top_k < 1:
            raise DatabaseError(f"top_k must be >= 1, got {top_k}")
        packed = PackedCorpus.coerce(corpus)
        if not 0 <= start <= stop <= packed.n_bags:
            raise DatabaseError(
                f"fragment range [{start}, {stop}) must lie inside "
                f"[0, {packed.n_bags}]"
            )
        if start == stop:
            return np.zeros(0, dtype=np.int64), np.zeros(0), 0
        keep = keep_mask(packed, tuple(exclude), category_filter)
        return self._scan(
            concept, packed, index, keep, top_k, start, stop, initial_threshold
        )

    def _scan(
        self,
        concept: LearnedConcept,
        packed: PackedCorpus,
        index: ShardIndex | None,
        keep: np.ndarray,
        top_k: int,
        start: int,
        stop: int,
        initial_threshold: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The bound-pruned scan of ``[start, stop)`` shared by :meth:`rank`
        and :meth:`fragment_candidates`.

        Validates the concept (before any index build) and the index, then
        runs one best-first scan of the whole range on the calling thread.
        The range need not follow the index's shard partition (correctness
        is partition-independent).  Returns the trimmed
        ``(bag positions, exact distances, bags exactly evaluated)``.
        """
        if concept.n_dims != packed.n_dims:
            raise DatabaseError(
                f"concept has {concept.n_dims} dims but the packed corpus "
                f"holds {packed.n_dims}"
            )
        if index is None:
            index = packed.shard_index()
        elif index.corpus is not packed:
            # A same-shaped index over *different* instances would prune
            # silently wrong; the index carries its corpus, so identity is
            # checkable for free.
            raise DatabaseError(
                f"the supplied shard index ({index.n_bags} bags x "
                f"{index.n_dims} dims) was built over a different corpus "
                f"than the one being ranked ({packed.n_bags} x "
                f"{packed.n_dims}); build the index over the ranked corpus"
            )
        return self._shard_candidates(
            packed, concept, index, keep, top_k, float(initial_threshold),
            start, stop,
        )

    def _shard_candidates(
        self,
        packed: PackedCorpus,
        concept: LearnedConcept,
        index: ShardIndex,
        keep: np.ndarray,
        k: int,
        threshold: float,
        start: int,
        stop: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One range's top-k candidates:
        ``(bag positions, exact distances, bags exactly evaluated)``.

        A best-first scan over two bound levels.  The group bounds of
        every whole group in the range (``group_size`` bags share one
        union box) are computed once and argsorted.  *Seed*: a small pool
        (the unaligned edge bags plus the lowest-bound groups, until it
        can fill a top-k) gets per-bag bounds, and its ``k`` smallest are
        evaluated first (the pool is small, so one argsort orders it), so
        the running kth-best distance is finite as early as possible.
        *Sweep*: the remaining groups follow in ascending group-bound
        order, ``chunk_bags // group_size`` groups at a time; per-bag
        bounds are computed only for the groups of a chunk whose bound is
        within the running cutoff, and the scan stops at the first group
        whose bound exceeds it — the order is sorted and the cutoff only
        tightens, so every later group is pruned too.  Survivors are
        evaluated in ``chunk_bags`` slices, each re-filtered against the
        tightened cutoff.

        Exactness: a pruned bag's distance is >= its bag bound >= its
        group's bound > the slack-widened cutoff of a valid threshold >=
        the final kth-best distance, so no pruned bag can enter the top-k;
        ties at (or within the :data:`PRUNE_SLACK` / prune-floor widening
        of) the threshold are always evaluated, so id tie-breaking cannot
        diverge.  ``threshold`` is any upper bound on the query's kth-best
        distance (``inf`` for none).  The returned candidates are trimmed
        to the range's own kth-smallest distance with ties kept, which
        preserves every possible member of the global top-k.
        """
        floor = index.prune_floor(concept)
        chunk_bags = self._chunk_bags
        group = index.group_size
        # Whole groups [first_group, last_group) lie inside the range; the
        # (up to 2 * (group - 1)) edge bags at unaligned boundaries join
        # the seed pool.
        first_group = -(-start // group)
        last_group = max(first_group, stop // group)
        edges = np.concatenate([
            np.arange(start, min(first_group * group, stop), dtype=np.int64),
            np.arange(max(last_group * group, start), stop, dtype=np.int64),
        ])
        edges = edges[keep[edges]]
        group_bounds = envelope_bounds(
            index.group_lower[first_group:last_group],
            index.group_upper[first_group:last_group],
            concept,
        )
        group_order = np.argsort(group_bounds)
        group_bounds = group_bounds[group_order]
        group_starts = (first_group + group_order) * group

        kept_idx = [np.zeros(0, dtype=np.int64)]
        kept_dist = [np.zeros(0)]
        best = np.zeros(0)

        def evaluate(positions: np.ndarray, bounds: np.ndarray) -> None:
            # Exactly score the bags whose bound is within the running
            # cutoff, chunk by chunk, tightening the threshold as we go.
            nonlocal best, threshold
            for lo in range(0, positions.size, chunk_bags):
                within = bounds[lo : lo + chunk_bags] <= _cutoff(threshold, floor)
                chunk = positions[lo : lo + chunk_bags][within]
                if chunk.size == 0:
                    continue
                distances = packed.min_distances_at(concept, chunk)
                kept_idx.append(chunk)
                kept_dist.append(distances)
                best = np.concatenate((best, distances))
                if best.size > k:
                    best = np.partition(best, k - 1)[:k]
                if best.size >= k:
                    threshold = min(threshold, float(best.max()))

        def members(first: int, last: int) -> np.ndarray:
            # The kept bags of the sorted groups [first, last).
            starts = group_starts[first:last]
            positions = concat_ranges(starts, np.full(starts.size, group))
            return positions[keep[positions]]

        # Seed: the pool's k smallest per-bag bounds, then its leftovers.
        n_seed_groups = 0
        n_pool = edges.size
        pool_parts = [edges]
        while n_pool < k and n_seed_groups < group_starts.size:
            pool_parts.append(members(n_seed_groups, n_seed_groups + 1))
            n_pool += pool_parts[-1].size
            n_seed_groups += 1
        pool = np.concatenate(pool_parts)
        pool_bounds = envelope_bounds(
            index.lower[pool], index.upper[pool], concept
        )
        order = np.argsort(pool_bounds)
        evaluate(pool[order[:k]], pool_bounds[order[:k]])
        evaluate(pool[order[k:]], pool_bounds[order[k:]])

        # Sweep: the remaining groups, best first, until one is pruned.
        step = max(1, chunk_bags // group)
        lo = n_seed_groups
        while lo < group_starts.size:
            hi = lo + int(np.searchsorted(
                group_bounds[lo : lo + step], _cutoff(threshold, floor),
                side="right",
            ))
            if hi == lo:
                break
            positions = members(lo, hi)
            evaluate(
                positions,
                envelope_bounds(
                    index.lower[positions], index.upper[positions], concept
                ),
            )
            lo = hi

        idx = np.concatenate(kept_idx)
        dist = np.concatenate(kept_dist)
        n_evaluated = int(idx.size)
        if dist.size > k:
            kth = np.partition(dist, k - 1)[k - 1]
            contenders = dist <= kth
            idx = idx[contenders]
            dist = dist[contenders]
        return idx, dist, n_evaluated
