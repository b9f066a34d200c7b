"""Database snapshots: save/load an :class:`ImageDatabase` as ``.npz``.

A snapshot stores every image's pixels (gray plane and, when present, the
RGB plane), its id and category, plus the feature configuration fingerprint.
Features themselves are *not* stored — they are cheap to recompute relative
to their size and depend on the configuration anyway — with one exception:
when the database carries a cached :class:`~repro.core.retrieval.PackedCorpus`
(the columnar view every ranking touches), format version 2 snapshots carry
it along and restore it on load, so a restored serving worker answers its
first query without re-featurising the whole corpus.  Format version 3
additionally persists the packed view's bound-pruned rank index
(:class:`~repro.core.sharding.ShardIndex`) when one was built, so a cold
worker — or every worker of a ``repro serve --workers N`` pool — skips the
O(N·d) envelope build too.  Format version 4 adds the packed view's own bag
order: a view re-packed in clustered-centroid order
(:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`) round-
trips as-is instead of being silently un-reordered on load.  Version 4
files written by older code may also carry a ``packed.ann`` entry (the
arrays of a since-removed hash-coded approximate tier); the loader ignores
it.  Versions 1–3 still load (they simply start with a cold packed cache /
cold index / the ingestion bag order).

The module-level :func:`save_database` / :func:`load_database` pair writes a
standalone ``.npz``; :func:`database_payload` / :func:`database_from_payload`
expose the same encoding as (manifest, arrays) pieces so other snapshot
formats (``repro.serve.snapshot``) can embed a database in a larger archive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.retrieval import PackedCorpus
from repro.core.sharding import adopt_index_payload, index_payload
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError
from repro.imaging.features import FeatureConfig
from repro.imaging.image import GrayImage
from repro.imaging.regions import region_family

_FORMAT_VERSION = 4
#: Snapshot versions :func:`load_database` understands.  Version 1 predates
#: the packed-corpus round-trip; version 2 predates the persisted rank
#: index; version 3 predates the persisted bag order.  All load fine (and
#: simply start with a cold packed cache / cold index / the ingestion bag
#: order).
SUPPORTED_VERSIONS = (1, 2, 3, 4)


def database_payload(
    database: ImageDatabase, key_prefix: str = ""
) -> tuple[dict, dict[str, np.ndarray]]:
    """Encode a database as a JSON manifest plus named arrays.

    Args:
        database: the database to encode.
        key_prefix: prepended to every array key, so several payloads can
            share one ``.npz`` namespace.

    Returns:
        ``(manifest, arrays)``.  The manifest references arrays by key; the
        cached packed corpus rides along (under ``manifest["packed"]``) when
        the database has one.
    """
    config = database.feature_config
    manifest: dict = {
        "version": _FORMAT_VERSION,
        "name": database.name,
        "images": [],
        "config": {
            "resolution": config.resolution,
            "region_family": config.region_family.name,
            "include_mirrors": config.include_mirrors,
            "variance_threshold": config.variance_threshold,
            "keep_full_frame": config.keep_full_frame,
        },
    }
    arrays: dict[str, np.ndarray] = {}
    for index, record in enumerate(database):
        gray_key = f"{key_prefix}gray_{index:06d}"
        arrays[gray_key] = record.image.pixels
        entry = {"id": record.image_id, "category": record.category, "gray": gray_key}
        if record.image.rgb is not None:
            rgb_key = f"{key_prefix}rgb_{index:06d}"
            arrays[rgb_key] = record.image.rgb
            entry["rgb"] = rgb_key
        manifest["images"].append(entry)
    packed = database.cached_packed
    if packed is not None:
        instances_key = f"{key_prefix}packed_instances"
        offsets_key = f"{key_prefix}packed_offsets"
        arrays[instances_key] = packed.instances
        arrays[offsets_key] = packed.offsets
        manifest["packed"] = {"instances": instances_key, "offsets": offsets_key}
        image_order = [entry["id"] for entry in manifest["images"]]
        if list(packed.image_ids) != image_order:
            # A view adopted after centroid reordering: persist the bag
            # order as positions into the manifest's image list, so the
            # load rebuilds the same (reordered) view.
            position_of = {
                image_id: index for index, image_id in enumerate(image_order)
            }
            order_key = f"{key_prefix}packed_order"
            arrays[order_key] = np.asarray(
                [position_of[image_id] for image_id in packed.image_ids],
                dtype=np.int64,
            )
            manifest["packed"]["order"] = order_key
        if packed.cached_shard_index is not None:
            manifest["packed"]["index"] = index_payload(
                packed.cached_shard_index, f"{key_prefix}packed_index", arrays
            )
    return manifest, arrays


def database_from_payload(
    manifest: Mapping, arrays: Mapping[str, np.ndarray]
) -> ImageDatabase:
    """Inverse of :func:`database_payload`.

    Restores the cached packed corpus when the manifest carries one,
    verifying it against the restored images (id coverage, bag structure,
    feature dimensionality) — a snapshot whose packed view does not match
    its own images raises instead of silently serving wrong rankings.

    Raises:
        DatabaseError: on a malformed manifest or an inconsistent packed view.
    """
    version = manifest.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise DatabaseError(
            f"snapshot has version {version}, "
            f"expected one of {SUPPORTED_VERSIONS}"
        )
    try:
        config_info = manifest["config"]
        config = FeatureConfig(
            resolution=int(config_info["resolution"]),
            region_family=region_family(config_info["region_family"]),
            include_mirrors=bool(config_info["include_mirrors"]),
            variance_threshold=float(config_info["variance_threshold"]),
            keep_full_frame=bool(config_info["keep_full_frame"]),
        )
        database = ImageDatabase(feature_config=config, name=manifest.get("name", ""))
        for entry in manifest["images"]:
            gray = arrays[entry["gray"]]
            if "rgb" in entry:
                image = GrayImage(
                    pixels=gray,
                    image_id=entry["id"],
                    category=entry["category"],
                    _rgb=arrays[entry["rgb"]],
                )
                database.add_image(image, entry["category"], image_id=entry["id"])
            else:
                database.add_image(gray, entry["category"], image_id=entry["id"])
        packed_info = manifest.get("packed")
        if packed_info is not None:
            entries = manifest["images"]
            order_key = packed_info.get("order")
            if order_key is not None:
                order = np.asarray(arrays[order_key], dtype=np.int64)
                if (
                    order.shape != (len(entries),)
                    or len(np.unique(order)) != len(entries)
                    or (len(entries) and not 0 <= order.min() <= order.max() < len(entries))
                ):
                    raise DatabaseError(
                        "snapshot packed corpus bag order is not a "
                        "permutation of the image list"
                    )
                entries = [entries[int(position)] for position in order]
            packed = PackedCorpus(
                instances=arrays[packed_info["instances"]],
                offsets=arrays[packed_info["offsets"]],
                image_ids=[entry["id"] for entry in entries],
                categories=[entry["category"] for entry in entries],
            )
            if packed.n_dims != config.n_dims:
                raise DatabaseError(
                    f"snapshot packed corpus has {packed.n_dims}-dim instances "
                    f"but the feature configuration produces {config.n_dims}"
                )
            adopt_index_payload(packed, packed_info.get("index"), arrays)
            database.adopt_packed(packed)
    except KeyError as exc:
        raise DatabaseError(f"snapshot manifest is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        # e.g. "resolution": null, or "images" holding the wrong shape —
        # the loader's contract is DatabaseError, not a raw traceback.
        raise DatabaseError(f"snapshot manifest is malformed: {exc}") from exc
    return database


def save_database(database: ImageDatabase, path: str | Path) -> Path:
    """Write a snapshot; returns the path written.

    The snapshot is a single ``.npz`` with one gray array per image plus a
    JSON manifest entry (ids, categories, configuration).  When the database
    holds a cached packed corpus (it served at least one full ranking), the
    packed arrays are included so :func:`load_database` restores a warm view.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    manifest, arrays = database_payload(database)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_database(path: str | Path) -> ImageDatabase:
    """Read a snapshot back into a fresh :class:`ImageDatabase`.

    Raises:
        DatabaseError: on a missing file, malformed snapshot or unsupported
            format version.
    """
    path = Path(path)
    if not path.exists():
        raise DatabaseError(f"snapshot {path} does not exist")
    try:
        archive = np.load(path)
    except (OSError, EOFError, ValueError) as exc:
        raise DatabaseError(f"snapshot {path} is not a readable .npz archive: {exc}") from exc
    with archive as payload:
        try:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
        except (KeyError, json.JSONDecodeError) as exc:
            raise DatabaseError(f"snapshot {path} has no valid manifest: {exc}") from exc
        return database_from_payload(manifest, payload)
