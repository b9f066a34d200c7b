"""Warm-worker snapshot tests: full save/load round-trip, zero-retrain
restores, corpus rehydration, and failure modes."""

from __future__ import annotations

import pytest

from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.errors import ServeError
from repro.serve.snapshot import load_service, save_service

_PARAMS = {"scheme": "identical", "max_iterations": 25, "seed": 5}


def _query(database, learner="dd", params=None, **kwargs) -> Query:
    ids = database.ids_in_category("waterfall")
    negs = database.ids_in_category("field")
    defaults = dict(
        positive_ids=ids[:2],
        negative_ids=negs[:2],
        learner=learner,
        params=dict(_PARAMS) if params is None else params,
        top_k=5,
    )
    defaults.update(kwargs)
    return Query(**defaults)


@pytest.fixture()
def warmed(tiny_scene_db):
    """A service that has served one query (cache + packed corpus warm)."""
    service = RetrievalService(tiny_scene_db)
    query = _query(tiny_scene_db)
    reference = service.query(query)
    return service, query, reference


class TestRoundTrip:
    def test_restored_worker_answers_with_zero_retrains(self, warmed, tmp_path):
        """The acceptance property: first repeated query is a cache hit."""
        service, query, reference = warmed
        info = save_service(service, tmp_path / "worker.npz")
        assert info.n_cache_entries >= 1
        restored, load_info = load_service(info.path)
        assert load_info.n_cache_entries == info.n_cache_entries
        result = restored.query(query)
        stats = restored.cache_stats
        assert stats.misses == 0, "restored worker retrained"
        assert stats.hits == 1
        assert result.ranking.image_ids == reference.ranking.image_ids
        assert result.ranking.distances.tolist() == (
            reference.ranking.distances.tolist()
        )

    def test_packed_corpus_restored_without_rebuild(self, warmed, tmp_path):
        service, _, _ = warmed
        info = save_service(service, tmp_path / "worker.npz")
        restored, _ = load_service(info.path)
        packed = restored.database.cached_packed
        assert packed is not None, "packed region corpus was not restored"
        original = service.database.cached_packed
        assert packed.image_ids == original.image_ids
        assert packed.instances.shape == original.instances.shape

    def test_shard_index_rides_along(self, warmed, tmp_path):
        """A built rank index is snapshotted and restored without a rebuild."""
        import numpy as np

        from repro.core.sharding import ShardedRanker, ShardIndex

        service, query, reference = warmed
        original = service.database.packed()
        index = ShardIndex.build(original, n_shards=2)
        original.adopt_shard_index(index)
        info = save_service(service, tmp_path / "worker.npz")
        restored, _ = load_service(info.path)
        packed = restored.database.cached_packed
        assert packed is not None
        adopted = packed.cached_shard_index
        assert adopted is not None, "shard index was not restored"
        assert adopted.n_shards == index.n_shards
        np.testing.assert_array_equal(adopted.lower, index.lower)
        np.testing.assert_array_equal(adopted.upper, index.upper)
        # The restored index serves the pruned path with identical output.
        fast = ShardedRanker().rank(
            reference.concept, packed, top_k=5, index=adopted,
            exclude=query.example_ids,
        )
        assert fast.image_ids == reference.ranking.image_ids

    def test_shard_index_group_size_round_trips(self, warmed, tmp_path):
        # Regression: the manifest used to omit group_size, silently
        # restoring a non-default index with DEFAULT_GROUP_BAGS.
        from repro.core.sharding import ShardIndex

        service, _, _ = warmed
        original = service.database.packed()
        original.adopt_shard_index(
            ShardIndex.build(original, 2, group_size=3)
        )
        info = save_service(service, tmp_path / "worker.npz")
        restored, _ = load_service(info.path)
        adopted = restored.database.cached_packed.cached_shard_index
        assert adopted is not None
        assert adopted.group_size == 3

    def test_snapshot_without_index_still_loads(self, tmp_path):
        # A fresh database: the shared fixture may already carry an index.
        from repro.datasets.loader import quick_database
        from repro.imaging.features import FeatureConfig
        from repro.imaging.regions import region_family

        database = quick_database(
            "scenes", images_per_category=2, size=(48, 48), seed=3,
            feature_config=FeatureConfig(
                resolution=5, region_family=region_family("small9")
            ),
        )
        service = RetrievalService(database)
        assert database.packed().cached_shard_index is None
        info = save_service(service, tmp_path / "worker.npz")
        restored, _ = load_service(info.path)
        assert restored.database.cached_packed.cached_shard_index is None

    def test_manifest_with_missing_index_arrays_raises_database_error(
        self, warmed, tmp_path
    ):
        import json

        import numpy as np

        from repro.core.sharding import ShardIndex
        from repro.errors import DatabaseError

        service, _, _ = warmed
        packed = service.database.packed()
        packed.adopt_shard_index(ShardIndex.build(packed, n_shards=2))
        info = save_service(service, tmp_path / "worker.npz")
        with np.load(info.path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        # The index rides inside the database payload (format v3).
        index_info = manifest["database"]["packed"]["index"]
        assert index_info is not None
        del arrays[index_info["lower"]]
        np.savez_compressed(tmp_path / "corrupt.npz", **arrays)
        with pytest.raises(DatabaseError, match="shard-index"):
            load_service(tmp_path / "corrupt.npz")

    def test_non_finite_index_envelope_raises_database_error(
        self, warmed, tmp_path
    ):
        import json

        import numpy as np

        from repro.core.sharding import ShardIndex
        from repro.errors import DatabaseError

        service, _, _ = warmed
        packed = service.database.packed()
        packed.adopt_shard_index(ShardIndex.build(packed, n_shards=2))
        info = save_service(service, tmp_path / "worker.npz")
        with np.load(info.path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        key = manifest["database"]["packed"]["index"]["lower"]
        arrays[key] = arrays[key].copy()
        arrays[key][1, 0] = np.nan
        np.savez_compressed(tmp_path / "nan.npz", **arrays)
        with pytest.raises(DatabaseError, match="finite"):
            load_service(tmp_path / "nan.npz")

    def test_legacy_database_index_key_still_adopted(self, warmed, tmp_path):
        """Old snapshots stashed the index beside the database payload."""
        import json

        import numpy as np

        from repro.core.sharding import ShardIndex

        service, _, _ = warmed
        packed = service.database.packed()
        index = ShardIndex.build(packed, n_shards=2)
        packed.adopt_shard_index(index)
        info = save_service(service, tmp_path / "worker.npz")
        with np.load(info.path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        # Rewrite to the pre-v3 layout: index beside the database payload
        # under the legacy manifest key, nothing inside it.
        index_info = manifest["database"]["packed"].pop("index")
        manifest["database_index"] = index_info
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)
        restored, _ = load_service(legacy)
        adopted = restored.database.cached_packed.cached_shard_index
        assert adopted is not None, "legacy index key was ignored"
        np.testing.assert_array_equal(adopted.lower, index.lower)

    def test_saved_approx_rank_mode_is_ignored(self, warmed, tmp_path):
        """Snapshots written while an approximate rank mode existed saved
        it in the service block; they load and answer exactly."""
        import json

        import numpy as np

        service, query, reference = warmed
        info = save_service(service, tmp_path / "worker.npz")
        with np.load(info.path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        manifest["service"]["rank_mode"] = "approx"
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)
        restored, _ = load_service(legacy)
        assert restored.stats()["rank_index"]["mode"] == "exact"
        result = restored.query(query)
        assert restored.cache_stats.misses == 0
        assert result.ranking.image_ids == reference.ranking.image_ids

    def test_extra_corpora_survive(self, tiny_scene_db, tmp_path):
        """A warmed colour corpus rides along and serves fit + rank."""
        service = RetrievalService(tiny_scene_db)
        service.warm("maron-ratan")
        query = _query(
            tiny_scene_db, learner="maron-ratan",
            params={"max_iterations": 20, "seed": 5},
        )
        reference = service.query(query)
        info = save_service(service, tmp_path / "worker.npz")
        assert set(info.corpus_keys) == set(service.corpus_keys)
        restored, load_info = load_service(info.path)
        assert set(load_info.corpus_keys) == set(info.corpus_keys)
        result = restored.query(query)
        assert restored.cache_stats.misses == 0
        assert result.ranking.image_ids == reference.ranking.image_ids

    def test_history_bound_round_trips_by_default(self, tiny_scene_db, tmp_path):
        service = RetrievalService(tiny_scene_db, max_history=7)
        service.warm("dd")
        info = save_service(service, tmp_path / "worker.npz")
        restored, _ = load_service(info.path)
        assert restored.max_history == 7
        restored2, _ = load_service(info.path, max_history=3)
        assert restored2.max_history == 3

    def test_cache_disabled_on_load_drops_entries(self, warmed, tmp_path):
        service, query, reference = warmed
        info = save_service(service, tmp_path / "worker.npz")
        restored, load_info = load_service(info.path, cache_size=0)
        assert restored.concept_cache is None
        assert load_info.n_cache_entries == 0
        # Still correct — it just has to retrain.
        result = restored.query(query)
        assert result.ranking.image_ids == reference.ranking.image_ids


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ServeError, match="does not exist"):
            load_service(tmp_path / "nope.npz")

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(ServeError, match="not a readable"):
            load_service(path)

    def test_unsupported_snapshot_version(self, warmed, tmp_path, monkeypatch):
        service, _, _ = warmed
        import repro.serve.snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "_SNAPSHOT_VERSION", 99)
        info = save_service(service, tmp_path / "future.npz")
        monkeypatch.undo()
        with pytest.raises(ServeError, match="version 99"):
            load_service(info.path)

    def test_future_wire_cache_entries_are_skipped_not_fatal(
        self, warmed, tmp_path
    ):
        """Unreconstructable cache entries cost a cold slot, not the restore."""
        import json

        import numpy as np

        service, query, reference = warmed
        info = save_service(service, tmp_path / "worker.npz")
        with np.load(info.path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {
                key: payload[key] for key in payload.files if key != "manifest"
            }
        for entry in manifest["cache"]:
            entry["payload"]["version"] = 99  # written by a future codec
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        future = tmp_path / "future-cache.npz"
        np.savez_compressed(future, **arrays)
        restored, load_info = load_service(future)
        assert load_info.n_cache_entries == 0
        assert load_info.n_cache_skipped == len(manifest["cache"])
        # Cold but correct: the query retrains and matches the reference.
        result = restored.query(query)
        assert result.ranking.image_ids == reference.ranking.image_ids

    def test_npz_suffix_is_enforced(self, warmed, tmp_path):
        service, _, _ = warmed
        info = save_service(service, tmp_path / "worker.snap")
        assert info.path.suffix == ".npz"
        restored, _ = load_service(info.path)
        assert len(restored.database) == len(service.database)
