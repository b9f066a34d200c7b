"""Warm-worker snapshots: persist and restore a serving service.

A cold worker pays three start-up costs before its first fast answer: it
must featurise the database (building the packed region corpus), rebuild
any auxiliary bag corpora (the colour baseline's SBN bags), and retrain
every concept its traffic repeats.  :func:`save_service` captures all
three — the database *with* its cached packed view, every extra corpus in
packed columnar form, and the trained-concept cache's entries serialised
through the versioned wire codec — in one ``.npz``; :func:`load_service`
rebuilds a :class:`~repro.api.service.RetrievalService` that answers a
repeated query with **zero retrains** (the first lookup is a cache hit).

Cache entries whose values the codec cannot express (custom model types
without training diagnostics) are skipped, counted, and reported in the
returned :class:`SnapshotInfo` rather than silently dropped.

:func:`load_corpus_service` is the third way to start a worker: it opens a
sharded synthetic corpus directory (``repro synth generate`` output),
builds the packed view shard by shard, and serves the bare
:class:`~repro.core.retrieval.PackedCorpus` directly — no pixel database
exists for generated corpora, and none is needed to rank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.learners import ConceptModel, LearnedModel
from repro.api.service import RetrievalService
from repro.core.diverse_density import TrainingResult
from repro.core.retrieval import PackedCorpus, packed_view
from repro.core.sharding import adopt_index_payload, index_payload
from repro.database.persistence import database_from_payload, database_payload
from repro.errors import CodecError, ServeError
from repro.serve import codec

_SNAPSHOT_VERSION = 1
#: The database corpus key; its packed view rides inside the database
#: payload, not the extra-corpora section.
_DATABASE_KEY = "region-bags"


@dataclass(frozen=True)
class SnapshotInfo:
    """What a snapshot save/load actually carried.

    Attributes:
        path: the snapshot file.
        n_images: database size.
        corpus_keys: corpora included (packed), database corpus first.
        n_cache_entries: trained-concept cache entries carried.
        n_cache_skipped: cache entries the codec could not serialise
            (skipped on save) or reconstruct (skipped on load).
        n_corpora_skipped: warmed corpora that could not be packed for
            the snapshot (the restored worker rebuilds them cold).
    """

    path: Path
    n_images: int
    corpus_keys: tuple[str, ...]
    n_cache_entries: int
    n_cache_skipped: int
    n_corpora_skipped: int = 0


def encode_cache_entry(key: str, value: object) -> dict | None:
    """The JSON form of one cache entry, or ``None`` when not expressible.

    Shared by serve snapshots and the worker pool's warm-start handoff
    (:mod:`repro.serve.workers`): both carry trained-concept cache entries
    across a process boundary through the versioned wire codec.
    """
    if isinstance(value, TrainingResult):
        return {
            "key": key,
            "value_kind": "training",
            "payload": codec.encode_training_result(value),
        }
    if isinstance(value, LearnedModel) and value.training is not None:
        return {
            "key": key,
            "value_kind": "model",
            "payload": codec.encode_training_result(value.training),
        }
    return None


def decode_cache_entry(entry: dict) -> tuple[str, object] | None:
    """Inverse of :func:`encode_cache_entry` (``None`` for unknown kinds)."""
    value_kind = entry.get("value_kind")
    training = codec.decode_training_result(entry["payload"])
    if value_kind == "training":
        return str(entry["key"]), training
    if value_kind == "model":
        return str(entry["key"]), ConceptModel(training)
    return None


def save_service(service: RetrievalService, path: str | Path) -> SnapshotInfo:
    """Write a warm-worker snapshot; returns what it carried.

    The snapshot holds the database (pixels + cached packed corpus), every
    additional warmed corpus as a bare packed view, the shard index of any
    corpus that built one (so a warm worker's first large ``top_k`` query
    skips the index build too), and the concept cache's serialisable
    entries in LRU order.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    # A snapshot exists to start workers hot — force the packed region
    # corpus to exist so it always rides along.
    service.database.packed()
    # The database's rank index (when built) now rides inside the database
    # payload itself (format v3); serve snapshots no longer duplicate it.
    db_manifest, arrays = database_payload(service.database, key_prefix="db_")

    corpora_manifest: dict[str, dict] = {}
    n_corpora_skipped = 0
    for key in service.corpus_keys:
        if key == _DATABASE_KEY:
            continue
        corpus = service.get_corpus(key)
        try:
            # packed_view answers from the corpus's cache when it has one
            # and packs legacy candidate-iterator corpora on the spot.
            packed = packed_view(corpus)
        except Exception:  # noqa: BLE001 - an unpackable corpus skips, counted
            n_corpora_skipped += 1
            continue
        slug = f"corpus_{len(corpora_manifest):02d}"
        arrays[f"{slug}_instances"] = packed.instances
        arrays[f"{slug}_offsets"] = packed.offsets
        corpora_manifest[key] = {
            "instances": f"{slug}_instances",
            "offsets": f"{slug}_offsets",
            "image_ids": list(packed.image_ids),
            "categories": list(packed.categories),
        }
        if packed.cached_shard_index is not None:
            corpora_manifest[key]["index"] = index_payload(
                packed.cached_shard_index, f"{slug}_index", arrays
            )

    cache_entries: list[dict] = []
    n_skipped = 0
    cache = service.concept_cache
    if cache is not None:
        for key, value in cache.export_entries():
            encoded = encode_cache_entry(key, value)
            if encoded is None:
                n_skipped += 1
            else:
                cache_entries.append(encoded)

    manifest = {
        "version": _SNAPSHOT_VERSION,
        "wire_version": codec.WIRE_VERSION,
        "database": db_manifest,
        "corpora": corpora_manifest,
        "cache": cache_entries,
        "service": {
            "max_history": service.max_history,
            "reorder_bags": service.reorder_bags,
        },
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return SnapshotInfo(
        path=path,
        n_images=len(service.database),
        corpus_keys=(_DATABASE_KEY, *corpora_manifest),
        n_cache_entries=len(cache_entries),
        n_cache_skipped=n_skipped,
        n_corpora_skipped=n_corpora_skipped,
    )


def load_service(
    path: str | Path,
    *,
    cache_size: int | None = 128,
    max_history: int | None = None,
) -> tuple[RetrievalService, SnapshotInfo]:
    """Restore a warm service from a snapshot.

    Fields of the saved ``"service"`` block other than ``max_history``
    (the reorder flag, or the rank mode older writers saved) are ignored:
    the restored corpus already carries its bag order, and every ranking
    is exact.

    Args:
        path: a file written by :func:`save_service`.
        cache_size: concept-cache capacity of the restored service
            (``0``/``None`` disables it — cached concepts are then dropped).
        max_history: history bound; ``None`` keeps the saved service's.

    Returns:
        ``(service, info)`` — the service answers a repeated query without
        retraining, and ``info`` reports what was restored.

    Raises:
        ServeError: missing file or unsupported snapshot version.
        DatabaseError: malformed database payload.
    """
    path = Path(path)
    if not path.exists():
        raise ServeError(f"service snapshot {path} does not exist")
    try:
        archive = np.load(path)
    except (OSError, EOFError, ValueError) as exc:
        raise ServeError(
            f"service snapshot {path} is not a readable .npz archive: {exc}"
        ) from exc
    with archive as payload:
        try:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
        except (KeyError, json.JSONDecodeError) as exc:
            raise ServeError(f"snapshot {path} has no valid manifest: {exc}") from exc
        version = manifest.get("version")
        if version != _SNAPSHOT_VERSION:
            raise ServeError(
                f"snapshot {path} has version {version}, "
                f"expected {_SNAPSHOT_VERSION}"
            )
        database = database_from_payload(manifest["database"], payload)
        saved_service = manifest.get("service", {})
        if max_history is None:
            max_history = saved_service.get("max_history")
        service = RetrievalService(
            database,
            cache_size=cache_size,
            max_history=max_history,
        )
        if database.cached_packed is not None:
            # Snapshots written before database format v3 carried the
            # database's rank index beside the database payload.
            adopt_index_payload(
                database.cached_packed, manifest.get("database_index"), payload
            )
        corpus_keys = [_DATABASE_KEY]
        for key, info in manifest.get("corpora", {}).items():
            packed = PackedCorpus(
                instances=payload[info["instances"]],
                offsets=payload[info["offsets"]],
                image_ids=info["image_ids"],
                categories=info["categories"],
            )
            adopt_index_payload(packed, info.get("index"), payload)
            service.adopt_corpus(key, packed)
            corpus_keys.append(key)

        n_entries = 0
        n_skipped = 0
        cache = service.concept_cache
        if cache is not None:
            restored: list[tuple[str, object]] = []
            for entry in manifest.get("cache", ()):
                try:
                    decoded = decode_cache_entry(entry)
                except (CodecError, KeyError, TypeError):
                    # An entry this codec cannot reconstruct (e.g. written
                    # by a newer wire version) costs a cold cache slot, not
                    # the whole restore.
                    decoded = None
                if decoded is None:
                    n_skipped += 1
                else:
                    restored.append(decoded)
            n_entries = cache.import_entries(restored)
    return service, SnapshotInfo(
        path=path,
        n_images=len(database),
        corpus_keys=tuple(corpus_keys),
        n_cache_entries=n_entries,
        n_cache_skipped=n_skipped,
    )


def load_corpus_service(
    path: str | Path,
    *,
    cache_size: int | None = 128,
    max_history: int | None = 1000,
    reorder_bags: bool = False,
    verify: bool = True,
) -> tuple[RetrievalService, SnapshotInfo]:
    """Serve a sharded synthetic corpus directory directly.

    The directory is a ``repro synth generate`` output
    (:class:`~repro.datasets.synth.store.ShardedCorpusReader` layout).  Its
    packed view becomes the service's database stand-in: ranking, the
    concept cache, ``batch_query`` and the rank index all work unchanged;
    only pixel-level operations (there are no pixels) do not.

    Args:
        path: the corpus directory.
        cache_size / max_history / reorder_bags: as
            :class:`~repro.api.service.RetrievalService`.
        verify: re-checksum every shard while building the packed view.

    Returns:
        ``(service, info)`` — ``info.corpus_keys`` is the region-bag key,
        cache counters are zero (generated corpora carry no trained cache).

    Raises:
        DatasetError: missing/corrupt/incomplete corpus directory.
    """
    from repro.datasets.synth.store import ShardedCorpusReader

    reader = ShardedCorpusReader(path)
    packed = reader.packed(verify=verify)
    service = RetrievalService(
        packed,
        cache_size=cache_size,
        max_history=max_history,
        reorder_bags=reorder_bags,
    )
    return service, SnapshotInfo(
        path=reader.directory,
        n_images=packed.n_bags,
        corpus_keys=(_DATABASE_KEY,),
        n_cache_entries=0,
        n_cache_skipped=0,
    )
