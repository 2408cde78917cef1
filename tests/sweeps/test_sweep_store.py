"""Tests for repro.sweeps.store: record round trips and store behaviour."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sweeps.runner import resolve_config
from repro.sweeps.spec import SweepConfig
from repro.sweeps.store import ConfigRecord, StoreSchemaError, SweepStore, load_record

CONFIG = SweepConfig(protocol="round-robin", n=32, k=4, batch=6, max_slots=10_000)


class TestConfigRecord:
    def test_round_trips_through_dict(self):
        record = resolve_config(CONFIG)
        clone = ConfigRecord.from_dict(record.as_dict())
        assert clone == record

    def test_batch_result_reconstruction_is_exact(self):
        record = resolve_config(CONFIG)
        batch = record.to_batch_result()
        assert batch.protocol == record.protocol_label
        assert batch.n == CONFIG.n
        assert len(batch) == CONFIG.batch
        for name in ("solved", "k", "first_wake", "success_slot", "winner", "latency"):
            assert getattr(batch, name).tolist() == record.columns[name]
        assert batch.summary() == record.summary

    def test_export_row_is_flat(self):
        row = resolve_config(CONFIG).row()
        assert row["protocol"] == "round-robin"
        assert row["hash"] == CONFIG.config_hash()
        assert "max_latency" in row
        assert all(np.isscalar(v) or isinstance(v, str) for v in row.values())


class TestSweepStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        assert CONFIG not in store
        assert store.load(CONFIG) is None
        record = resolve_config(CONFIG)
        path = store.save(record)
        assert path.name == f"{CONFIG.config_hash()}.json"
        assert CONFIG in store
        assert store.load(CONFIG) == record
        assert len(store) == 1

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        store.save(resolve_config(CONFIG))
        assert list(store.root.glob("*.tmp")) == []

    def test_concurrent_saves_of_one_config_stay_intact(self, tmp_path):
        # Two sweeps sharing a store may resolve the same config at once;
        # each save writes through its own unique temp file, so the record
        # that lands is always intact (last intact writer wins).
        import threading

        store = SweepStore(tmp_path / "store")
        record = resolve_config(CONFIG)
        threads = [threading.Thread(target=store.save, args=(record,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.load(CONFIG) == record
        assert list(store.root.glob("*.tmp")) == []

    def test_completed_filters_by_presence(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        other = SweepConfig(protocol="round-robin", n=32, k=8, batch=6, max_slots=10_000)
        store.save(resolve_config(CONFIG))
        assert store.completed([CONFIG, other]) == [CONFIG]

    def test_record_file_is_valid_json_with_identity(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        path = store.save(resolve_config(CONFIG))
        data = json.loads(path.read_text())
        assert data["hash"] == CONFIG.config_hash()
        assert data["config"] == CONFIG.as_dict()
        assert data["schema"] == 2


def _hammer_save(root: str, repeats: int) -> None:
    """Child-process body for the cross-process write race."""
    store = SweepStore(root)
    record = resolve_config(CONFIG)
    for _ in range(repeats):
        store.save(record)


class TestConcurrencyContract:
    """The documented no-locks contract (see the store module docstring):
    atomic whole-file writes, last writer wins, same content tolerated."""

    def test_cross_process_same_content_race_is_tolerated(self, tmp_path):
        # The service daemon and an overlapping `repro sweep run` may save
        # the same config hash at the same time from different processes.
        # Resolution is deterministic in the config content, so the racers
        # write identical payloads: whichever os.replace lands last wins
        # with an intact record and the race is unobservable.
        import multiprocessing

        store = SweepStore(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_save, args=(str(store.root), 5))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert [p.exitcode for p in procs] == [0, 0, 0, 0]
        assert store.load(CONFIG) == resolve_config(CONFIG)
        assert list(store.root.glob("*.tmp")) == []
        assert len(store) == 1

    def test_same_content_writers_produce_identical_bytes(self, tmp_path):
        # Why last-writer-wins is safe by construction: two independent
        # resolutions of one config serialize byte-identically, so which
        # writer survives the race cannot matter.
        path_a = SweepStore(tmp_path / "a").save(resolve_config(CONFIG))
        path_b = SweepStore(tmp_path / "b").save(resolve_config(CONFIG))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_reader_never_observes_a_torn_record(self, tmp_path):
        # Readers racing a writer see the previous or the new intact record,
        # never a partial file: os.replace publishes whole files only.
        import threading

        store = SweepStore(tmp_path / "store")
        record = resolve_config(CONFIG)
        store.save(record)
        stop = threading.Event()

        def rewrite_forever():
            while not stop.is_set():
                store.save(record)

        writer = threading.Thread(target=rewrite_forever)
        writer.start()
        try:
            for _ in range(200):
                assert store.load(CONFIG) == record
        finally:
            stop.set()
            writer.join()


class TestRecordSchema:
    def test_legacy_version_1_records_still_load(self, tmp_path):
        # Records written before the schema field carried "version": 1 with
        # an otherwise identical payload; they must keep loading.
        store = SweepStore(tmp_path / "store")
        record = resolve_config(CONFIG)
        data = record.as_dict()
        del data["schema"]
        data["version"] = 1
        store.root.mkdir(parents=True)
        store.path_for(CONFIG).write_text(json.dumps(data))
        assert store.load(CONFIG) == record

    def test_unknown_schema_is_rejected_with_source(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        data = resolve_config(CONFIG).as_dict()
        data["schema"] = 99
        store.root.mkdir(parents=True)
        store.path_for(CONFIG).write_text(json.dumps(data))
        with pytest.raises(StoreSchemaError, match="99"):
            store.load(CONFIG)

    def test_unmarked_record_is_rejected(self):
        data = resolve_config(CONFIG).as_dict()
        del data["schema"]
        with pytest.raises(StoreSchemaError, match="no schema marker"):
            load_record(data)

    def test_malformed_payload_is_rejected(self):
        data = resolve_config(CONFIG).as_dict()
        del data["columns"]
        with pytest.raises(StoreSchemaError, match="malformed"):
            load_record(data)

    def test_corrupt_file_is_rejected_not_crashed(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        store.root.mkdir(parents=True)
        store.path_for(CONFIG).write_text("{not json")
        with pytest.raises(StoreSchemaError, match="not valid JSON"):
            store.load(CONFIG)


class TestBlobApi:
    """The side-channel blob store checkpoints (adversary searches) ride on."""

    def test_save_load_round_trip(self, tmp_path):
        store = SweepStore(tmp_path)
        payload = {"schema": 1, "state": {"temperature": 4.5}, "history": [1, 2]}
        path = store.save_blob("adversary/abc123", payload)
        assert path == store.blob_path("adversary/abc123")
        assert store.load_blob("adversary/abc123") == payload

    def test_missing_blob_loads_as_none(self, tmp_path):
        assert SweepStore(tmp_path).load_blob("adversary/nothere") is None

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = SweepStore(tmp_path)
        store.save_blob("adversary/abc123", {"schema": 1})
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_blobs_do_not_count_as_records(self, tmp_path):
        store = SweepStore(tmp_path)
        store.save_blob("adversary/abc123", {"schema": 1})
        assert len(store) == 0
        assert [p.stem for p in store.blobs("adversary")] == ["abc123"]

    def test_blobs_lists_only_the_prefix(self, tmp_path):
        store = SweepStore(tmp_path)
        store.save_blob("adversary/b", {"schema": 1})
        store.save_blob("adversary/a", {"schema": 1})
        store.save_blob("other/c", {"schema": 1})
        assert [p.stem for p in store.blobs("adversary")] == ["a", "b"]
        assert store.blobs("absent") == []

    def test_corrupt_blob_is_rejected_naming_the_file(self, tmp_path):
        store = SweepStore(tmp_path)
        path = store.blob_path("adversary/torn")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{half a json")
        with pytest.raises(StoreSchemaError, match="not valid JSON") as err:
            store.load_blob("adversary/torn")
        assert str(path) in str(err.value)

    def test_non_object_blob_is_rejected(self, tmp_path):
        store = SweepStore(tmp_path)
        path = store.blob_path("adversary/list")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2]")
        with pytest.raises(StoreSchemaError, match="not a JSON object"):
            store.load_blob("adversary/list")

    @pytest.mark.parametrize("key", ["", "/abs", "a/../b"])
    def test_path_escaping_keys_are_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match="invalid blob key"):
            SweepStore(tmp_path).blob_path(key)
