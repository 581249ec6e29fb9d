"""Tests for the SQLite disk-cache backend (repro.cache.sqlite_store)."""

from __future__ import annotations

import json
import sqlite3

import pytest

import repro.faults as faults
from repro.cache.resilience import RetryPolicy
from repro.cache.sqlite_store import (
    DB_FILENAME,
    SqliteStore,
    delete_entries,
    read_entries,
)
from repro.cache.store import ActivityCache


class TestSqliteStore:
    def test_round_trip(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            assert store.get("k") is None
            assert not store.contains("k")
            store.put("k", '{"value": 1}')
            assert store.get("k") == '{"value": 1}'
            assert store.contains("k")
            assert len(store) == 1
        # A fresh connection (fresh process, conceptually) reads it back.
        with SqliteStore(tmp_path) as reader:
            assert reader.get("k") == '{"value": 1}'

    def test_put_replaces(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("k", "old")
            store.put("k", "new")
            assert store.get("k") == "new"
            assert len(store) == 1

    def test_delete_and_clear(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("a", "1")
            store.put("b", "2")
            store.delete("a")
            store.delete("a")  # absent: no-op
            assert store.get("a") is None
            store.clear()
            assert len(store) == 0
        assert (tmp_path / DB_FILENAME).exists()  # clear keeps the database

    def test_entries_report_size_and_mtime(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            store.put("k", "abcd", mtime=123.5)
            rows = list(store.entries())
        assert rows == [("k", 4, 123.5)]

    def test_old_layout_files_are_ignored(self, tmp_path):
        # 1.1.0 and earlier kept one <key>.json file per entry; the store
        # neither reads nor removes them.
        (tmp_path / "old.json").write_text('{"legacy": true}')
        with SqliteStore(tmp_path) as store:
            assert store.get("old") is None
            assert len(store) == 0
        assert (tmp_path / "old.json").exists()

    def test_wal_mode(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"


class TestCachePayloads:
    def test_row_holds_the_value_document(self, tmp_path):
        """A cache row's payload is the value's ``as_dict()`` JSON document."""
        from repro.activity.report import ActivityReport

        report = ActivityReport(
            operand_activity=0.5,
            multiplier_activity=0.4,
            datapath_activity=0.3,
            memory_activity=0.2,
            operand_toggle_a=0.11,
            operand_toggle_b=0.12,
            multiplier_hw_product=0.13,
            zero_mac_fraction=0.14,
            product_toggle=0.15,
            accumulator_toggle=0.16,
            memory_toggle=0.17,
            a_hamming_fraction=0.5,
            b_hamming_fraction=0.5,
            bit_alignment=0.18,
            dtype="fp16_t",
            shape=(4, 4, 4),
            output_samples=8,
        )
        ActivityCache(disk_dir=tmp_path).put("k", report)
        with SqliteStore(tmp_path) as store:
            db_doc = json.loads(store.get("k"))
        assert db_doc == json.loads(json.dumps(report.as_dict()))
        assert ActivityCache(disk_dir=tmp_path).get("k") == report


class TestGcHelpers:
    def test_read_entries_missing_db(self, tmp_path):
        assert read_entries(tmp_path / DB_FILENAME) == []

    def test_read_entries_corrupt_db(self, tmp_path):
        path = tmp_path / DB_FILENAME
        path.write_bytes(b"this is not a database")
        assert read_entries(path) == []

    def test_read_entries_is_side_effect_free(self, tmp_path):
        # Scanning is read-only: stats/ls/dry-run passes never mutate the
        # directory they describe, and a 1.1.0 entry file is left alone.
        with SqliteStore(tmp_path) as store:
            store.put("k", "v")
        (tmp_path / "legacy.json").write_text("{}")
        rows = read_entries(tmp_path / DB_FILENAME)
        assert [key for key, _, _ in rows] == ["k"]
        assert (tmp_path / "legacy.json").exists()

    def test_delete_entries(self, tmp_path):
        with SqliteStore(tmp_path) as store:
            for index in range(3):
                store.put(f"k{index}", "v")
        removed = delete_entries(tmp_path / DB_FILENAME, ["k0", "k2", "absent"])
        assert removed == 2
        assert [key for key, _, _ in read_entries(tmp_path / DB_FILENAME)] == ["k1"]
        assert delete_entries(tmp_path / DB_FILENAME, []) == 0
        assert delete_entries(tmp_path / "nowhere.sqlite", ["k"]) == 0

    def test_errors_surface_as_oserror(self, tmp_path):
        store = SqliteStore(tmp_path)
        store.close()
        with pytest.raises(OSError):
            store.get("k")
        with pytest.raises(OSError):
            store.put("k", "v")


class TestLifecycleOverSqlite:
    def _populate(self, root, tier, keys, base_mtime=1_000_000_000.0):
        from repro.cache.lifecycle import tier_dir

        directory = tier_dir(root, tier)
        with SqliteStore(directory) as store:
            for offset, key in enumerate(keys):
                store.put(key, json.dumps({"pad": "x" * 64}), mtime=base_mtime + offset)

    def test_scan_sees_rows(self, tmp_path):
        from repro.cache.lifecycle import cache_dir_stats, scan_cache_dir

        self._populate(tmp_path, "experiment", ["a", "b"])
        self._populate(tmp_path, "activity", ["c"])
        entries = scan_cache_dir(tmp_path)
        assert sorted(entry.key for entry in entries) == ["a", "b", "c"]
        assert {entry.path for entry in entries} == {
            tmp_path / DB_FILENAME,
            tmp_path / "activity" / DB_FILENAME,
        }
        stats = cache_dir_stats(tmp_path, now=1_000_000_100.0)
        assert stats["tiers"]["experiment"]["entries"] == 2
        assert stats["tiers"]["activity"]["entries"] == 1

    def test_prune_removes_rows(self, tmp_path):
        from repro.cache.lifecycle import prune_cache_dir, scan_cache_dir

        self._populate(tmp_path, "experiment", ["old", "new"])
        report = prune_cache_dir(
            tmp_path, max_age_s=0.5, now=1_000_000_001.0
        )
        assert {entry.key for entry in report.removed} == {"old"}
        assert {entry.key for entry in scan_cache_dir(tmp_path)} == {"new"}
        # The row really is gone from the database, not just the report.
        with sqlite3.connect(tmp_path / DB_FILENAME) as conn:
            rows = conn.execute("SELECT key FROM entries").fetchall()
        assert rows == [("new",)]

    def test_dry_run_prune_mutates_nothing(self, tmp_path):
        from repro.cache.lifecycle import prune_cache_dir, scan_cache_dir

        self._populate(tmp_path, "experiment", ["a"])
        (tmp_path / "legacy.json").write_text("{}")
        report = prune_cache_dir(
            tmp_path, max_age_s=0.5, now=2_000_000_000.0, dry_run=True
        )
        assert {entry.key for entry in report.removed} >= {"a"}
        assert {entry.key for entry in scan_cache_dir(tmp_path)} >= {"a"}
        assert (tmp_path / "legacy.json").exists()  # ignored, never touched


class TestChaosInjection:
    """Chaos parametrization: every injected sqlite fault leaves the store
    either serving correct data or raising OSError — never torn entries."""

    @pytest.fixture(autouse=True)
    def _clean_schedule(self):
        yield
        faults.reset()

    @pytest.mark.parametrize(
        "schedule_text",
        [
            "cache.sqlite.write:busy@0.5",
            "cache.sqlite.read:busy@0.5",
            "cache.sqlite.write:busy@0.5;cache.sqlite.read:busy@0.5",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_busy_chaos_roundtrip_is_lossless(self, tmp_path, schedule_text, seed):
        retry = RetryPolicy(attempts=6, base_delay_s=0.0005, max_delay_s=0.002)
        faults.install_schedule(
            faults.FaultSchedule(faults.parse_schedule(schedule_text), seed=seed)
        )
        store = SqliteStore(tmp_path, retry=retry)
        expected = {}
        for index in range(8):
            key, payload = f"key{index}", json.dumps({"index": index})
            try:
                store.put(key, payload)
            except OSError:
                continue  # typed failure: the entry must then be absent...
            expected[key] = payload
        faults.uninstall_schedule()
        for key, payload in expected.items():
            assert store.get(key) == payload  # ...never torn or wrong
        assert len(store) == len(expected)
        store.close()
