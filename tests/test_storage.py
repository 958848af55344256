"""Engine multi-version store."""

import pytest

from repro.dbsim.storage import INITIAL_TS, MultiVersionStore


class TestPopulation:
    def test_initial_images(self):
        store = MultiVersionStore({"x": {"v": 0}})
        assert store.image_at("x", 0.0) == {"v": 0}
        assert store.latest_commit_ts("x") == INITIAL_TS

    def test_missing_key(self):
        store = MultiVersionStore()
        assert store.version_at("x", 1.0) is None
        assert store.image_at("x", 1.0) is None
        assert store.latest("x") is None


class TestInstallAndRead:
    def test_snapshot_semantics(self):
        store = MultiVersionStore({"x": {"v": 0}})
        store.install("x", "t1", {"v": 1}, commit_ts=1.0)
        store.install("x", "t2", {"v": 2}, commit_ts=2.0)
        assert store.image_at("x", 0.5) == {"v": 0}
        assert store.image_at("x", 1.0) == {"v": 1}
        assert store.image_at("x", 1.5) == {"v": 1}
        assert store.image_at("x", 9.0) == {"v": 2}

    def test_snapshot_before_first_version(self):
        store = MultiVersionStore()
        store.install("x", "t1", {"v": 1}, commit_ts=5.0)
        assert store.version_at("x", 1.0) is None

    def test_column_merge(self):
        store = MultiVersionStore({"r": {"a": 0, "b": 0}})
        store.install("r", "t1", {"a": 1}, commit_ts=1.0)
        store.install("r", "t2", {"b": 2}, commit_ts=2.0)
        assert store.image_at("r", 3.0) == {"a": 1, "b": 2}
        assert store.latest("r").columns == {"b": 2}

    def test_out_of_order_install_rejected(self):
        store = MultiVersionStore()
        store.install("x", "t1", {"v": 1}, commit_ts=5.0)
        with pytest.raises(ValueError):
            store.install("x", "t2", {"v": 2}, commit_ts=4.0)

    def test_version_before(self):
        store = MultiVersionStore({"x": {"v": 0}})
        store.install("x", "t1", {"v": 1}, commit_ts=1.0)
        older = store.version_before("x", 1.0)
        assert older is not None and older.txn_id == "__init__"
        assert store.version_before("x", INITIAL_TS) is None

    def test_note_read_tracks_max(self):
        store = MultiVersionStore({"x": {"v": 0}})
        store.install("x", "t1", {"v": 1}, commit_ts=1.0)
        store.version_at("x", 5.0).note_read(5.0)
        store.version_at("x", 3.0).note_read(3.0)
        assert store.latest("x").max_read_ts == 5.0

    def test_counters(self):
        store = MultiVersionStore({"x": {"v": 0}, "y": {"v": 0}})
        store.install("x", "t1", {"v": 1}, commit_ts=1.0)
        assert store.key_count() == 2
        assert store.version_count() == 3
        assert sorted(store.keys()) == ["x", "y"]
