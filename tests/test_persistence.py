"""Unit tests for database snapshots (save/load roundtrips)."""

import numpy as np
import pytest

from repro.database.persistence import load_database, save_database
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError
from repro.imaging.features import FeatureConfig
from repro.imaging.regions import region_family


def make_db() -> ImageDatabase:
    config = FeatureConfig(resolution=5, region_family=region_family("small9"))
    database = ImageDatabase(feature_config=config, name="snap")
    rng = np.random.default_rng(0)
    database.add_image(rng.uniform(0.1, 0.9, (24, 24)), "gray-cat", "g-0")
    database.add_image(rng.uniform(0.1, 0.9, (24, 24, 3)), "rgb-cat", "c-0")
    return database


class TestRoundtrip:
    def test_pixels_and_labels_survive(self, tmp_path):
        database = make_db()
        path = save_database(database, tmp_path / "snap.npz")
        restored = load_database(path)
        assert len(restored) == 2
        assert restored.name == "snap"
        assert restored.categories() == ("gray-cat", "rgb-cat")
        np.testing.assert_allclose(
            restored.record("g-0").image.pixels, database.record("g-0").image.pixels
        )

    def test_rgb_survives(self, tmp_path):
        database = make_db()
        restored = load_database(save_database(database, tmp_path / "s.npz"))
        np.testing.assert_allclose(
            restored.record("c-0").image.rgb, database.record("c-0").image.rgb
        )
        assert restored.record("g-0").image.rgb is None

    def test_feature_config_survives(self, tmp_path):
        database = make_db()
        restored = load_database(save_database(database, tmp_path / "s.npz"))
        assert restored.feature_config.resolution == 5
        assert restored.feature_config.region_family.name == "small9"

    def test_features_identical_after_roundtrip(self, tmp_path):
        database = make_db()
        before = database.instances_for("g-0")
        restored = load_database(save_database(database, tmp_path / "s.npz"))
        np.testing.assert_allclose(restored.instances_for("g-0"), before)

    def test_suffix_added(self, tmp_path):
        path = save_database(make_db(), tmp_path / "noext")
        assert path.suffix == ".npz"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatabaseError):
            load_database(tmp_path / "missing.npz")

    def test_malformed_snapshot(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DatabaseError):
            load_database(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(DatabaseError):
            load_database(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(DatabaseError):
            load_database(path)


class TestPackedRoundTrip:
    """Format v2: the cached PackedCorpus rides along instead of being dropped."""

    def test_cold_database_snapshots_without_packed(self, tmp_path):
        database = make_db()
        assert database.cached_packed is None
        restored = load_database(save_database(database, tmp_path / "cold.npz"))
        assert restored.cached_packed is None  # nothing to carry, nothing invented

    def test_warm_database_restores_packed_without_rebuild(self, tmp_path):
        database = make_db()
        packed_before = database.packed()  # build + cache the columnar view
        restored = load_database(save_database(database, tmp_path / "warm.npz"))
        packed_after = restored.cached_packed
        assert packed_after is not None, "packed corpus was silently dropped"
        assert packed_after.image_ids == packed_before.image_ids
        assert packed_after.categories == packed_before.categories
        np.testing.assert_array_equal(packed_after.instances, packed_before.instances)
        np.testing.assert_array_equal(packed_after.offsets, packed_before.offsets)

    def test_restored_packed_matches_a_fresh_build(self, tmp_path):
        database = make_db()
        database.packed()
        restored = load_database(save_database(database, tmp_path / "warm.npz"))
        adopted = restored.cached_packed
        fresh = make_db().packed()
        np.testing.assert_array_equal(adopted.instances, fresh.instances)

    def test_mutation_invalidates_restored_packed(self, tmp_path):
        database = make_db()
        database.packed()
        restored = load_database(save_database(database, tmp_path / "warm.npz"))
        rng = np.random.default_rng(9)
        restored.add_image(rng.uniform(0.1, 0.9, (24, 24)), "gray-cat", "g-1")
        assert restored.cached_packed is None
        assert len(restored.packed()) == 3

    def test_version_1_snapshots_still_load(self, tmp_path):
        """Pre-packed-era snapshots (format v1) stay readable."""
        import json

        database = make_db()
        path = save_database(database, tmp_path / "v1.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest["version"] = 1
        manifest.pop("packed", None)
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)
        restored = load_database(legacy)
        assert len(restored) == 2
        assert restored.cached_packed is None

    def test_unsupported_version_rejected(self, tmp_path):
        import json

        database = make_db()
        path = save_database(database, tmp_path / "fut.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest["version"] = 99
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        future = tmp_path / "future.npz"
        np.savez_compressed(future, **arrays)
        with pytest.raises(DatabaseError, match="version 99"):
            load_database(future)

    def test_corrupt_packed_arrays_rejected(self, tmp_path):
        """A packed view inconsistent with the images raises, never adopts."""
        import json

        database = make_db()
        database.packed()
        path = save_database(database, tmp_path / "warm.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        # Truncate the instance matrix so the offsets no longer span it.
        arrays["packed_instances"] = arrays["packed_instances"][:-1]
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        corrupt = tmp_path / "corrupt.npz"
        np.savez_compressed(corrupt, **arrays)
        with pytest.raises(DatabaseError):
            load_database(corrupt)


class TestRankIndexRoundTrip:
    """Format v3: the packed view's shard index rides inside the snapshot."""

    def _warm_db_with_index(self):
        database = make_db()
        packed = database.packed()
        index = packed.shard_index()  # build + cache the envelopes
        return database, packed, index

    def test_pinned_shard_count_index_loads_and_ranks_exactly(
        self, tiny_scene_db, tmp_path
    ):
        """v4 files written while callers could pin the shard count carry
        that partition; it loads as persisted and ranks like the loop."""
        from repro.core.concept import LearnedConcept
        from repro.core.retrieval import rank_by_loop
        from repro.core.sharding import ShardedRanker, ShardIndex

        packed = tiny_scene_db.packed()
        pinned = packed.select(packed.image_ids)
        pinned.adopt_shard_index(ShardIndex.build(pinned, n_shards=3))
        tiny_scene_db.adopt_packed(pinned)
        try:
            path = save_database(tiny_scene_db, tmp_path / "pinned.npz")
        finally:
            tiny_scene_db.adopt_packed(packed)
        restored = load_database(path)
        view = restored.cached_packed
        adopted = view.cached_shard_index
        assert adopted is not None and adopted.n_shards == 3
        rng = np.random.default_rng(4)
        for _ in range(3):
            concept = LearnedConcept(
                t=view.instances[rng.integers(view.n_instances)],
                w=rng.uniform(0.1, 1.0, view.n_dims),
                nll=0.0,
            )
            routed = ShardedRanker().rank(concept, view, top_k=7)
            assert view.cached_shard_index is adopted  # the persisted one
            reference = rank_by_loop(concept, restored.retrieval_candidates())
            assert routed.image_ids == reference.image_ids[:7]

    def test_index_survives_roundtrip(self, tmp_path):
        database, _, index_before = self._warm_db_with_index()
        restored = load_database(save_database(database, tmp_path / "v3.npz"))
        index_after = restored.cached_packed.cached_shard_index
        assert index_after is not None, "rank index was silently dropped"
        np.testing.assert_array_equal(index_after.lower, index_before.lower)
        np.testing.assert_array_equal(index_after.upper, index_before.upper)
        np.testing.assert_array_equal(
            index_after.boundaries, index_before.boundaries
        )
        assert index_after.group_size == index_before.group_size

    def test_cold_index_snapshots_without_index(self, tmp_path):
        database = make_db()
        database.packed()  # packed view, but no index built
        restored = load_database(save_database(database, tmp_path / "v3.npz"))
        assert restored.cached_packed is not None
        assert restored.cached_packed.cached_shard_index is None

    def test_version_2_snapshots_still_load(self, tmp_path):
        """Pre-rank-index snapshots (format v2) stay readable."""
        import json

        database, _, _ = self._warm_db_with_index()
        path = save_database(database, tmp_path / "v3.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest["version"] = 2
        index_info = manifest["packed"].pop("index")
        for key in (index_info["lower"], index_info["upper"],
                    index_info["boundaries"]):
            arrays.pop(key)
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        legacy = tmp_path / "v2.npz"
        np.savez_compressed(legacy, **arrays)
        restored = load_database(legacy)
        assert restored.cached_packed is not None
        assert restored.cached_packed.cached_shard_index is None

    def test_corrupt_index_payload_rejected(self, tmp_path):
        """An index manifest pointing at missing arrays raises, never adopts."""
        import json

        database, _, _ = self._warm_db_with_index()
        path = save_database(database, tmp_path / "v3.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        arrays.pop(manifest["packed"]["index"]["lower"])
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        corrupt = tmp_path / "corrupt.npz"
        np.savez_compressed(corrupt, **arrays)
        with pytest.raises(DatabaseError, match="shard-index"):
            load_database(corrupt)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_index_envelope_rejected(self, side):
        """A NaN in a persisted envelope passes ``lower > upper``; loading
        it would silently prune that bag (and its group) from every
        ranking, so the restore raises instead."""
        from repro.database.persistence import (
            database_from_payload,
            database_payload,
        )

        database, _, _ = self._warm_db_with_index()
        manifest, arrays = database_payload(database)
        key = manifest["packed"]["index"][side]
        tampered = dict(arrays)
        tampered[key] = arrays[key].copy()
        tampered[key][0, 0] = np.nan
        with pytest.raises(DatabaseError, match="finite"):
            database_from_payload(manifest, tampered)
        restored = database_from_payload(manifest, arrays)
        assert restored.cached_packed.cached_shard_index is not None

    def test_restored_index_ranks_identically(self, tmp_path):
        """Ranking over the restored packed view matches the original."""
        from repro.core.concept import LearnedConcept
        from repro.core.retrieval import Ranker

        database, packed_before, _ = self._warm_db_with_index()
        restored = load_database(save_database(database, tmp_path / "v3.npz"))
        packed_after = restored.cached_packed
        concept = LearnedConcept(
            t=packed_after.instances[0], w=np.ones(packed_after.n_dims), nll=0.0
        )
        fresh = Ranker().rank(concept, packed_before)
        again = Ranker().rank(concept, packed_after)
        assert [e.image_id for e in fresh] == [e.image_id for e in again]


class TestMalformedManifestTypes:
    def test_type_malformed_manifest_raises_database_error(self, tmp_path):
        """Wrong-typed manifest values surface as DatabaseError, not TypeError."""
        import json

        path = save_database(make_db(), tmp_path / "ok.npz")
        with np.load(path) as payload:
            manifest = json.loads(bytes(payload["manifest"]).decode("utf-8"))
            arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest["config"]["resolution"] = None
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        broken = tmp_path / "broken.npz"
        np.savez_compressed(broken, **arrays)
        with pytest.raises(DatabaseError, match="malformed"):
            load_database(broken)


def _snapshot_parts(path):
    import json

    with np.load(path) as archive:
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        arrays = {key: archive[key] for key in archive.files if key != "manifest"}
    return manifest, arrays


def _write_snapshot(path, manifest, arrays):
    import json

    arrays = dict(arrays)
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


class TestPersistenceV4:
    """Format v4: the packed view's own (possibly reordered) bag order."""

    def test_reordered_corpus_round_trips(self, tiny_scene_db, tmp_path):
        packed = tiny_scene_db.packed()
        reordered, _ = packed.reordered_by_centroid()
        tiny_scene_db.adopt_packed(reordered)
        try:
            path = save_database(tiny_scene_db, tmp_path / "snap.npz")
        finally:
            # The session-scoped db must not leak the reordered view into
            # other tests.
            tiny_scene_db.adopt_packed(packed)
        packed_back = load_database(path).cached_packed
        assert packed_back.image_ids == reordered.image_ids
        np.testing.assert_array_equal(packed_back.instances, reordered.instances)

    def test_v3_snapshot_still_loads(self, tiny_scene_db, tmp_path):
        from repro.database.persistence import SUPPORTED_VERSIONS

        assert SUPPORTED_VERSIONS == (1, 2, 3, 4)
        tiny_scene_db.packed()
        manifest, arrays = _snapshot_parts(
            save_database(tiny_scene_db, tmp_path / "snap.npz")
        )
        manifest["version"] = 3
        manifest["packed"].pop("order", None)
        restored = load_database(
            _write_snapshot(tmp_path / "v3.npz", manifest, arrays)
        )
        assert restored.cached_packed is not None
        assert restored.cached_packed.image_ids == tiny_scene_db.image_ids

    def test_corrupt_bag_order_is_rejected(self, tiny_scene_db, tmp_path):
        packed = tiny_scene_db.packed()
        reordered, _ = packed.reordered_by_centroid()
        tiny_scene_db.adopt_packed(reordered)
        try:
            path = save_database(tiny_scene_db, tmp_path / "snap.npz")
        finally:
            tiny_scene_db.adopt_packed(packed)
        manifest, arrays = _snapshot_parts(path)
        order_key = manifest["packed"]["order"]
        arrays[order_key] = np.zeros_like(arrays[order_key])  # not a permutation
        with pytest.raises(DatabaseError):
            load_database(_write_snapshot(tmp_path / "bad.npz", manifest, arrays))

    def test_legacy_ann_entry_is_ignored(self, tiny_scene_db, tmp_path):
        """v4 files from writers that still had the hash-coded approximate
        tier carry a ``packed.ann`` entry plus its arrays; they load and
        rank exactly like the same snapshot without them."""
        from repro.core.concept import LearnedConcept
        from repro.core.sharding import ShardedRanker, ShardIndex

        packed = tiny_scene_db.packed()
        reordered, _ = packed.reordered_by_centroid()
        reordered.adopt_shard_index(ShardIndex.build(reordered, n_shards=2))
        tiny_scene_db.adopt_packed(reordered)
        try:
            path = save_database(tiny_scene_db, tmp_path / "plain.npz")
        finally:
            tiny_scene_db.adopt_packed(packed)
        manifest, arrays = _snapshot_parts(path)
        rng = np.random.default_rng(0)
        arrays["packed_ann_codes"] = rng.integers(
            0, 2**63, size=(reordered.n_bags, 2), dtype=np.uint64
        )
        arrays["packed_ann_planes"] = rng.normal(size=(128, 3 * reordered.n_dims))
        manifest["packed"]["ann"] = {
            "codes": "packed_ann_codes",
            "planes": "packed_ann_planes",
            "n_bits": 128,
            "n_tables": 4,
            "band_bits": 16,
        }
        legacy = load_database(
            _write_snapshot(tmp_path / "legacy.npz", manifest, arrays)
        ).cached_packed
        plain = load_database(path).cached_packed
        assert legacy.image_ids == plain.image_ids
        assert legacy.cached_shard_index is not None
        concept = LearnedConcept(
            t=plain.instances[3], w=np.linspace(0.5, 1.5, plain.n_dims), nll=0.0
        )
        for top_k in (None, 4):
            expected = ShardedRanker().rank(concept, plain, top_k=top_k)
            got = ShardedRanker().rank(concept, legacy, top_k=top_k)
            assert got.image_ids == expected.image_ids
            np.testing.assert_array_equal(got.distances, expected.distances)
