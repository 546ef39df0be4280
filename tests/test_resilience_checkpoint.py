"""Unit tests for the atomic JSON checkpoint store."""

import json

import pytest

from repro.resilience import SCHEMA_VERSION, CheckpointStore, capture_events
from repro.resilience.checkpoint import _checksum, restore_list


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpt")


class TestRoundTrip:
    def test_put_get(self, store):
        key = ("cell", "table5", "facebook", 0.5, 3.0, "mmsd", 40)
        store.put(key, 0.875)
        assert store.get(key) == 0.875
        assert key in store

    def test_missing_returns_default(self, store):
        assert store.get(("nope",)) is None
        assert store.get(("nope",), default=-1) == -1
        assert ("nope",) not in store

    def test_tuple_and_list_keys_are_equivalent(self, store):
        store.put(("a", 1, ("b", 2)), "value")
        assert store.get(["a", 1, ["b", 2]]) == "value"

    def test_nested_values_survive(self, store):
        value = {"pairs": [[1, 2, 3.0, 1.0]], "ledger": [["topk", "g1", 4]]}
        store.put("window", value)
        assert store.get("window") == value

    def test_overwrite_replaces(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert len(store) == 1

    def test_keys_and_clear(self, store):
        store.put(("a",), 1)
        store.put(("b",), 2)
        assert sorted(tuple(k) for k in store.keys()) == [("a",), ("b",)]
        assert store.clear() == 2
        assert len(store) == 0

    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k")
        assert not store.delete("k")
        assert store.get("k") is None

    def test_directory_created_with_parents(self, tmp_path):
        deep = tmp_path / "a" / "b" / "c"
        CheckpointStore(deep).put("k", 1)
        assert deep.is_dir()


class TestAtomicity:
    def test_no_temp_files_left_behind(self, store):
        for i in range(5):
            store.put(("k", i), i)
        leftovers = list(store.directory.glob("*.tmp"))
        assert leftovers == []

    def test_record_is_schema_versioned_and_checksummed(self, store):
        path = store.put("k", {"x": 1})
        record = json.loads(path.read_text())
        assert record["schema"] == SCHEMA_VERSION
        assert set(record) == {"schema", "key", "checksum", "value"}

    def test_file_bytes_are_one_sorted_dumps_of_the_record(self, store):
        key = ("runtime", "state", 7)
        value = {"b": [1, 2.5, "x"], "a": {"z": None, "y": [True, -3]}}
        path = store.put(key, value)
        record = {
            "schema": SCHEMA_VERSION,
            "key": ["runtime", "state", 7],
            "checksum": _checksum(value),
            "value": value,
        }
        assert path.read_bytes() == json.dumps(
            record, sort_keys=True
        ).encode("utf-8")


class TestDurability:
    """The rename is only durable once the parent directory is synced."""

    @staticmethod
    def _tracking_fsync(order):
        import os
        import stat

        real_fsync = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            order.append(f"fsync:{kind}")
            real_fsync(fd)

        return fsync

    def test_put_fsyncs_parent_directory_after_rename(
        self, store, monkeypatch
    ):
        """Regression: file fsync -> atomic rename -> directory fsync,
        in exactly that order. Without the final step a crash right
        after ``os.replace`` can roll the rename back on filesystems
        that journal data but not directory updates."""
        import os

        order = []
        real_replace = os.replace
        monkeypatch.setattr(os, "fsync", self._tracking_fsync(order))
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (order.append("replace"), real_replace(src, dst))[1],
        )
        store.put("k", {"x": 1})
        assert order == ["fsync:file", "replace", "fsync:dir"]

    def test_directory_fsync_failure_surfaces(self, store, monkeypatch):
        """An injected fsync fault on the directory fd must propagate —
        swallowing it would silently drop the durability guarantee."""
        import os
        import stat

        from repro.resilience.faults import FsyncFault

        real_fsync = os.fsync

        def failing_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise FsyncFault("injected: directory fsync failed")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(FsyncFault):
            store.put("k", 1)


class TestCorruption:
    def corrupt(self, store, key, mutate):
        path = store.put(key, 0.5)
        mutate(path)
        return path

    def test_truncated_record_treated_as_missing(self, store):
        self.corrupt(store, "k", lambda p: p.write_text("{\"schema\": 1"))
        with capture_events() as events:
            assert store.get("k", default="fallback") == "fallback"
        assert events[0][0] == "checkpoint.corrupt"
        assert "unreadable" in str(events[0][1]["reason"])

    def test_tampered_value_fails_checksum(self, store):
        def mutate(path):
            record = json.loads(path.read_text())
            record["value"] = 0.999
            path.write_text(json.dumps(record))

        self.corrupt(store, "k", mutate)
        with capture_events() as events:
            assert store.get("k") is None
        assert events[0][1]["reason"] == "checksum"
        assert not store.contains("k")

    def test_wrong_schema_version_ignored(self, store):
        def mutate(path):
            record = json.loads(path.read_text())
            record["schema"] = SCHEMA_VERSION + 1
            path.write_text(json.dumps(record))

        self.corrupt(store, "k", mutate)
        with capture_events() as events:
            assert store.get("k") is None
        assert events[0][1]["reason"] == "schema"

    def test_foreign_key_in_colliding_file_ignored(self, store):
        # A record whose embedded key disagrees with the lookup key must
        # not be returned (defends against filename tampering/collision).
        path = store.put("a", 1)
        other = store._path("b")
        other.write_text(path.read_text())
        assert store.get("b") is None
        assert list(store.items()) == [("a", 1)]

    def test_corrupt_records_skipped_by_keys(self, store):
        store.put("good", 1)
        bad = store.put("bad", 2)
        bad.write_text("not json")
        assert list(store.keys()) == ["good"]
        assert list(store.items()) == [("good", 1)]


class TestRestoreList:
    def test_inner_lists_become_tuples(self):
        assert restore_list([[1, 2], "x", [3, 4]]) == [(1, 2), "x", (3, 4)]
