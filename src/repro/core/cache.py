"""The trained-concept cache.

Multi-restart training is the dominant latency of every learner, and the
serving workloads repeat themselves: a user re-issues the same query, a
``batch_query`` carries duplicate requests, a feedback loop retrains on a
bag set it has seen before.  :class:`ConceptCache` closes that loop — a
bounded, thread-safe LRU keyed on *content fingerprints*:

    key = (kind, trainer fingerprint, BagSet fingerprint, extra starts)

where the trainer fingerprint covers the full training configuration
(scheme, solver backend, restart policy, seeds — see
``TrainerConfig.fingerprint``) and the :meth:`~repro.bags.bag.BagSet.fingerprint`
is a content hash of the stacked instances, labels and bag ids.  Equal keys
therefore guarantee bit-identical training results, so a cache hit is
indistinguishable from retraining — except for the wall-clock time.

The cache is owned by :class:`~repro.api.service.RetrievalService` (which
caches fitted models across queries) and optionally by
:class:`~repro.core.feedback.FeedbackLoop` (which caches per-round
``TrainingResult`` objects); both consume the same class with different
``kind`` namespaces.  :attr:`ConceptCache.stats` exposes hit/miss counters
for monitoring.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.bags.bag import BagSet
from repro.core.diverse_density import ExtraStart, TrainingResult
from repro.errors import TrainingError


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that fell through to training.
        entries: entries currently held.
        max_entries: the configured capacity.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ConceptCache:
    """Bounded, thread-safe LRU of trained artefacts keyed by fingerprints.

    Args:
        max_entries: capacity; the least-recently-used entry is evicted
            when a store would exceed it.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise TrainingError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._key_locks: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0

    # Internal helpers; callers hold self._lock.

    def _get_locked(self, key: str) -> Any | None:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def _store_locked(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    @staticmethod
    def key_for(
        kind: str,
        trainer_fingerprint: str,
        bag_set: BagSet,
        extra_starts: Sequence[ExtraStart] = (),
    ) -> str:
        """Build a cache key from a trainer identity and a bag-set content hash.

        Args:
            kind: namespace for the cached value type (``"training"`` for
                ``TrainingResult`` entries, ``"model"`` for fitted models),
                so different consumers sharing one cache cannot collide.
            trainer_fingerprint: the trainer's configuration fingerprint.
            bag_set: the training bags.
            extra_starts: warm-start seeds, hashed by value — a round warm-
                started from a different concept must miss.
        """
        digest = hashlib.sha256()
        digest.update(trainer_fingerprint.encode())
        digest.update(b"\x00")
        digest.update(bag_set.fingerprint().encode())
        for extra in extra_starts:
            digest.update(b"\x00t")
            digest.update(np.ascontiguousarray(extra.t, dtype=np.float64).tobytes())
            if extra.w is not None:
                digest.update(b"w")
                digest.update(np.ascontiguousarray(extra.w, dtype=np.float64).tobytes())
        return f"{kind}:{digest.hexdigest()}"

    def lookup(self, key: str) -> Any | None:
        """The cached value for ``key`` (recording a hit), or ``None`` (a miss)."""
        with self._lock:
            value = self._get_locked(key)
            if value is None:
                self._misses += 1
                return None
            self._hits += 1
            return value

    def store(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail past capacity."""
        with self._lock:
            self._store_locked(key, value)

    def compute_if_absent(self, key: str, factory: Callable[[], Any]) -> tuple[Any, bool]:
        """Return the cached value, computing and storing it on a miss.

        Concurrent callers with the same key are deduplicated: one runs
        ``factory`` while the rest block on a per-key lock and are then
        served the freshly stored value — so a ``batch_query`` burst of
        identical requests trains exactly once.  Exactly one hit or miss
        is recorded per call.  Returns ``(value, was_hit)``.
        """
        with self._lock:
            value = self._get_locked(key)
            if value is not None:
                self._hits += 1
                return value, True
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                value = self._get_locked(key)
                if value is not None:
                    # Another caller computed it while we waited.
                    self._hits += 1
                    self._key_locks.pop(key, None)
                    return value, True
                # Count the miss up front so a raising factory still leaves
                # hits + misses equal to the number of lookups.
                self._misses += 1
            try:
                value = factory()
                with self._lock:
                    self._store_locked(key, value)
            finally:
                with self._lock:
                    self._key_locks.pop(key, None)
        return value, False

    def clear(self) -> None:
        """Drop every entry (the counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def export_entries(self) -> tuple[tuple[str, Any], ...]:
        """Every ``(key, value)`` pair, least-recently-used first.

        The order is chosen so that feeding the pairs back through
        :meth:`import_entries` reproduces the exact LRU state — the snapshot
        layer uses this to persist a warmed cache and restart workers hot.
        Values are returned as-is; serialising them is the caller's job.
        """
        with self._lock:
            return tuple(self._entries.items())

    def import_entries(self, entries: Iterable[tuple[str, Any]]) -> int:
        """Insert ``(key, value)`` pairs in order; returns how many were written.

        Pairs are stored through the normal LRU path, so importing more
        entries than ``max_entries`` keeps only the most recent tail (the
        cache may retain fewer than the returned count).  Counters are not
        touched — imported entries count as neither hits nor misses until
        they are looked up.
        """
        written = 0
        with self._lock:
            for key, value in entries:
                self._store_locked(str(key), value)
                written += 1
        return written

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/occupancy counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                max_entries=self._max_entries,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Train-through helper                                                #
    # ------------------------------------------------------------------ #

    def fetch_or_train(
        self,
        trainer: Any,
        bag_set: BagSet,
        extra_starts: Sequence[ExtraStart] = (),
    ) -> tuple[TrainingResult, bool]:
        """Train through the cache; returns ``(result, was_hit)``.

        Trainers without a string ``fingerprint`` attribute (custom
        strategies the cache cannot identify) are trained directly and do
        not touch the counters.
        """
        fingerprint = getattr(trainer, "fingerprint", None)
        if not isinstance(fingerprint, str):
            return self._train(trainer, bag_set, extra_starts), False
        key = self.key_for("training", fingerprint, bag_set, extra_starts)
        return self.compute_if_absent(
            key, lambda: self._train(trainer, bag_set, extra_starts)
        )

    @staticmethod
    def _train(
        trainer: Any, bag_set: BagSet, extra_starts: Sequence[ExtraStart]
    ) -> TrainingResult:
        # Only pass the keyword when needed so custom trainers with a plain
        # train(bag_set) signature keep working without warm starts.
        if extra_starts:
            return trainer.train(bag_set, extra_starts=tuple(extra_starts))
        return trainer.train(bag_set)
