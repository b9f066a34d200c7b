"""The retrieval service: one database, many queries, any learner.

:class:`RetrievalService` is the package's serving facade.  It owns an
:class:`~repro.database.store.ImageDatabase`, caches the precomputed bag
corpora every learner family ranks against (region bags for the paper's
system, SBN colour bags for the Maron–Ratan baseline), and executes
:class:`~repro.api.query.Query` requests:

* :meth:`RetrievalService.query` — resolve the learner from the registry,
  build the example bags, fit, rank (vectorised, over the corpus's cached
  :class:`~repro.core.retrieval.PackedCorpus` view, honouring the query's
  ``top_k`` and ``category_filter``), and time each phase;
* :meth:`RetrievalService.batch_query` — fan a list of queries out over a
  thread pool (multi-user traffic); results come back in request order and
  are bit-identical to sequential execution because every learner is
  seeded and shares no mutable state across queries;
* :meth:`RetrievalService.fit` / :meth:`RetrievalService.rank_with` — the
  two halves of ``query`` for callers that train once and re-rank many
  times (:class:`~repro.session.RetrievalSession` uses these).

Per-query timing is recorded in :attr:`RetrievalService.history` for
throughput monitoring; :meth:`RetrievalService.warm` runs the bulk
preprocessing pass up front so serving latency is not charged the feature
extraction cost.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.api.learners import LearnedModel, Learner, make_learner
from repro.api.query import Query, QueryResult, QueryTiming
from repro.bags.bag import Bag, BagSet
from repro.core.cache import CacheStats, ConceptCache
from repro.core.feedback import Corpus
from repro.core.retrieval import (
    AUTO_SHARD_MIN_BAGS,
    PackedCorpus,
    RetrievalResult,
    packed_view,
)
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError, QueryError


@dataclass(frozen=True)
class QueryRecord:
    """One row of the service's execution log."""

    query_id: str
    learner: str
    n_candidates: int
    timing: QueryTiming


@dataclass(frozen=True)
class FittedQuery:
    """A trained model bound to the corpus it should rank.

    Produced by :meth:`RetrievalService.fit`; consumed by
    :meth:`RetrievalService.rank_with`.
    """

    model: LearnedModel
    learner: Learner
    corpus: Corpus
    fit_seconds: float


class RetrievalService:
    """Executes retrieval queries against one image database.

    Thread-safe: :meth:`query` may be called concurrently (``batch_query``
    does exactly that).  Corpus caches are shared across queries; all
    learners are seeded, so concurrent execution cannot change results.

    Repeated training is short-circuited by a trained-concept cache keyed
    on the learner's configuration fingerprint plus a content hash of the
    example bags: a query whose (learner, params, example images) repeat —
    common under real traffic and in ``batch_query`` bursts — reuses the
    fitted model instead of re-running the multi-start optimisation.  Hits
    are bit-identical to retraining because every learner is deterministic.

    Args:
        database: the populated image database to serve.
        cache_size: capacity of the trained-concept cache; ``0`` or ``None``
            disables caching entirely.
        max_history: keep at most this many per-query timing records
            (oldest dropped first) so long-running servers do not leak
            memory; ``None`` keeps everything.  The lifetime query count
            survives trimming (see :meth:`stats`).
        reorder_bags: re-pack the database's corpus in clustered-centroid
            order at warm time
            (:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`
            — rankings are ordering-identical; pruning tightens because
            group envelopes stop depending on ingestion order).
    """

    def __init__(
        self,
        database: ImageDatabase,
        cache_size: int | None = 128,
        max_history: int | None = 1000,
        reorder_bags: bool = False,
    ) -> None:
        if max_history is not None and max_history < 0:
            raise QueryError(f"max_history must be >= 0 or None, got {max_history}")
        self._database = database
        self._corpora: dict[str, Corpus] = {"region-bags": database}
        self._lock = threading.Lock()
        self._history: list[QueryRecord] = []
        self._max_history = max_history
        self._n_queries = 0
        self._cache = ConceptCache(cache_size) if cache_size else None
        self._reorder_bags = bool(reorder_bags)

    @property
    def database(self) -> ImageDatabase:
        """The database being served."""
        return self._database

    @property
    def concept_cache(self) -> ConceptCache | None:
        """The trained-concept cache (``None`` when disabled)."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the concept cache (zeros when disabled)."""
        if self._cache is None:
            return CacheStats(hits=0, misses=0, entries=0, max_entries=0)
        return self._cache.stats

    @property
    def reorder_bags(self) -> bool:
        """Whether :meth:`warm` re-packs the corpus in centroid order."""
        return self._reorder_bags

    @property
    def history(self) -> tuple[QueryRecord, ...]:
        """Per-query timing records, in completion order.

        Bounded to the most recent ``max_history`` records; the lifetime
        query count is reported by :meth:`stats`.
        """
        with self._lock:
            return tuple(self._history)

    @property
    def max_history(self) -> int | None:
        """The configured history bound (``None`` = unbounded)."""
        return self._max_history

    def stats(self) -> dict:
        """Point-in-time serving counters (plain JSON-safe dict).

        Keys: ``n_queries`` (lifetime, survives history trimming),
        ``history_len`` / ``max_history``, ``n_images`` / ``database_name``,
        ``corpus_keys`` (which bag corpora are warmed), the concept
        cache's ``hits`` / ``misses`` / ``hit_rate`` / ``entries`` /
        ``max_entries``, and the ``rank_index`` layout (``mode`` and
        ``reorder_bags``).
        """
        cache = self.cache_stats
        with self._lock:
            history_len = len(self._history)
            n_queries = self._n_queries
            corpus_keys = sorted(self._corpora)
        return {
            "n_queries": n_queries,
            "history_len": history_len,
            "max_history": self._max_history,
            "n_images": len(self._database),
            # A service can wrap a bare PackedCorpus (sharded synthetic
            # corpora have no database object), which carries no name.
            "database_name": getattr(self._database, "name", ""),
            "corpus_keys": corpus_keys,
            "rank_index": {
                # Kept for stats readers: every ranking is exact.
                "mode": "exact",
                "reorder_bags": self._reorder_bags,
            },
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate,
                "entries": cache.entries,
                "max_entries": cache.max_entries,
            },
        }

    # ------------------------------------------------------------------ #
    # Corpus management                                                   #
    # ------------------------------------------------------------------ #

    def corpus_for(self, learner: Learner) -> Corpus:
        """The (cached) corpus view a learner ranks against."""
        key = learner.corpus_key
        with self._lock:
            corpus = self._corpora.get(key)
            if corpus is None:
                corpus = learner.corpus(self._database)
                self._corpora[key] = corpus
        return corpus

    @property
    def corpus_keys(self) -> tuple[str, ...]:
        """Keys of the currently cached bag corpora (sorted)."""
        with self._lock:
            return tuple(sorted(self._corpora))

    def get_corpus(self, key: str) -> Corpus:
        """The cached corpus under a key (snapshot layer's accessor).

        Raises:
            QueryError: when no corpus is cached under ``key``.
        """
        with self._lock:
            try:
                return self._corpora[key]
            except KeyError:
                raise QueryError(f"no corpus cached under key {key!r}") from None

    def adopt_corpus(self, key: str, corpus: Corpus) -> None:
        """Install a pre-built corpus under a learner family's corpus key.

        The snapshot layer uses this to restore warmed corpora (e.g. the
        colour baseline's SBN bags, rehydrated as a bare
        :class:`~repro.core.retrieval.PackedCorpus`) so a fresh worker
        never re-featurises them.
        """
        if not key:
            raise QueryError("corpus key must be a non-empty string")
        with self._lock:
            self._corpora[key] = corpus

    def warm(self, learner: str = "dd", **params) -> int:
        """Precompute the bag corpus a learner family uses; returns the image count.

        Builds the corpus's cached packed view (the serving hot path ranks
        against it) — and, on corpora large enough for the bound-pruned
        rank path, the shard index too — so neither feature extraction nor
        packing nor the index build is charged to the first query.  The
        index is built by the rule :class:`~repro.core.retrieval.Ranker`
        routes by: a view a cache owns, of at least
        :data:`~repro.core.retrieval.AUTO_SHARD_MIN_BAGS` bags.  A
        ``reorder_bags`` service re-packs the view in clustered-centroid
        order first (adopted back into the adapter's cache, so every later
        caller sees the reordered view).
        """
        resolved = make_learner(learner, **params)
        resolved.bind(self._database)
        corpus = self.corpus_for(resolved)
        packer = getattr(corpus, "packed", None)
        if callable(packer):
            packed = packer()  # featurises every image into the cached view
            if isinstance(packed, PackedCorpus):
                if self._reorder_bags:
                    adopt = getattr(corpus, "adopt_packed", None)
                    if callable(adopt):
                        packed, _ = packed.reordered_by_centroid()
                        adopt(packed)
                    elif packed is self._database:
                        # A bare PackedCorpus database (synthetic corpora)
                        # has no adapter cache to adopt into — the service
                        # itself holds the only reference, so swap it.
                        packed, _ = packed.reordered_by_centroid()
                        self._database = packed
                        with self._lock:
                            self._corpora["region-bags"] = packed
                if (
                    packed.rank_index_enabled
                    and packed.n_bags >= AUTO_SHARD_MIN_BAGS
                ):
                    packed.shard_index()
        else:
            for image_id in self._database.image_ids:
                corpus.instances_for(image_id)
        return len(self._database)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def fit(
        self,
        positive_ids: Sequence[str],
        negative_ids: Sequence[str] = (),
        learner: str = "dd",
        params: Mapping[str, object] | None = None,
    ) -> FittedQuery:
        """Train a learner on example images; returns the fitted model + corpus.

        Raises:
            LearnerError: unknown learner name or bad parameters.
            DatabaseError: an example id is not in the database.
        """
        started_at = time.perf_counter()
        resolved = make_learner(learner, **dict(params or {}))
        resolved.bind(self._database)
        corpus = self.corpus_for(resolved)
        for image_id in (*positive_ids, *negative_ids):
            if image_id not in self._database:
                raise DatabaseError(f"unknown image id {image_id!r}")
        bag_set = BagSet()
        for image_id in positive_ids:
            bag_set.add(
                Bag(instances=corpus.instances_for(image_id), label=True, bag_id=image_id)
            )
        for image_id in negative_ids:
            bag_set.add(
                Bag(instances=corpus.instances_for(image_id), label=False, bag_id=image_id)
            )
        model = self._fit_cached(resolved, bag_set)
        return FittedQuery(
            model=model,
            learner=resolved,
            corpus=corpus,
            fit_seconds=time.perf_counter() - started_at,
        )

    def _fit_cached(self, learner: Learner, bag_set: BagSet) -> LearnedModel:
        """Fit through the concept cache when the learner is fingerprintable.

        Only learners exposing a configuration ``fingerprint`` (the concept
        learners) are cached; the sanity rankers train in microseconds and
        the fingerprint cannot vouch for them.
        """
        fingerprint = getattr(learner, "fingerprint", None)
        if self._cache is None or not isinstance(fingerprint, str):
            return learner.fit(bag_set)
        key = ConceptCache.key_for("model", fingerprint, bag_set)
        model, _ = self._cache.compute_if_absent(key, lambda: learner.fit(bag_set))
        return model

    def rank_with(
        self,
        fitted: FittedQuery,
        candidate_ids: Sequence[str] | None = None,
        exclude: Sequence[str] = (),
        *,
        top_k: int | None = None,
        category_filter: str | None = None,
    ) -> RetrievalResult:
        """Rank database images with an already-fitted model.

        The corpus is consumed in packed (columnar) form — the service asks
        the fitted corpus for its cached
        :class:`~repro.core.retrieval.PackedCorpus` view and hands that to
        the model's vectorised rank path.

        Args:
            fitted: the :meth:`fit` output.
            candidate_ids: which images to rank; all images when ``None``.
            exclude: image ids to leave out (e.g. the training examples).
            top_k: truncate the ranking to the best ``top_k`` entries; the
                result still reports its ``total_candidates``.
            category_filter: rank only candidates of this category.
        """
        chosen = None if candidate_ids is None else tuple(candidate_ids)
        for image_id in chosen or ():
            if image_id not in self._database:
                raise DatabaseError(f"unknown image id {image_id!r}")
        packed = packed_view(fitted.corpus, chosen)
        return fitted.model.rank(
            packed, exclude=exclude, top_k=top_k, category_filter=category_filter
        )

    def packed_database(
        self, candidate_ids: Sequence[str] | None = None
    ) -> PackedCorpus:
        """The database's packed view.

        The one spelling of "give me the corpus the rank path scores"
        shared by the wire ``rank`` endpoint, the ``rank_fragment``
        scatter workers, and the scatter coordinator — all three must
        score the *same* cached view or their results could diverge.
        ``candidate_ids`` selects a subset view (non-routable, see
        :func:`~repro.core.retrieval.packed_view`).
        """
        return packed_view(
            self._database,
            None if candidate_ids is None else tuple(candidate_ids),
        )

    def query(self, query: Query) -> QueryResult:
        """Execute one query end to end (fit + rank + timing)."""
        if not isinstance(query, Query):
            raise QueryError(f"expected a Query, got {type(query).__name__}")
        started_at = time.perf_counter()
        fitted = self.fit(
            query.positive_ids,
            query.negative_ids,
            learner=query.learner,
            params=query.params,
        )
        rank_started_at = time.perf_counter()
        ranking = self.rank_with(
            fitted,
            candidate_ids=query.candidate_ids,
            exclude=query.example_ids,
            top_k=query.top_k,
            category_filter=query.category_filter,
        )
        finished_at = time.perf_counter()
        timing = QueryTiming(
            fit_seconds=fitted.fit_seconds,
            rank_seconds=finished_at - rank_started_at,
            total_seconds=finished_at - started_at,
        )
        with self._lock:
            self._n_queries += 1
            self._history.append(
                QueryRecord(
                    query_id=query.query_id,
                    learner=query.learner,
                    n_candidates=ranking.total_candidates,
                    timing=timing,
                )
            )
            if self._max_history is not None and len(self._history) > self._max_history:
                del self._history[: len(self._history) - self._max_history]
        return QueryResult(
            query=query,
            ranking=ranking,
            concept=fitted.model.concept,
            training=fitted.model.training,
            timing=timing,
        )

    def batch_query(
        self, queries: Sequence[Query], workers: int | None = None
    ) -> list[QueryResult]:
        """Execute many queries; results come back in request order.

        Args:
            queries: the requests to run.
            workers: thread-pool size; ``None`` or 1 runs sequentially.
                Rankings are identical either way — learners are seeded and
                queries share no mutable state.

        Raises:
            QueryError: on a non-positive ``workers``.
        """
        if workers is not None and workers < 1:
            raise QueryError(f"workers must be >= 1 or None, got {workers}")
        queries = list(queries)
        if workers is None or workers == 1 or len(queries) <= 1:
            return [self.query(query) for query in queries]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.query, queries))
