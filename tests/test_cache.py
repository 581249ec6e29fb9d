"""Tests for the content-addressed experiment cache (repro.cache)."""

from __future__ import annotations

import json

import pytest

from repro.cache.fingerprint import (
    canonical_json,
    code_fingerprint,
    experiment_fingerprint,
    fingerprint_payload,
)
from repro.cache.sqlite_store import DB_FILENAME, SqliteStore
from repro.cache.store import (
    DEFAULT_CACHE,
    ExperimentCache,
    get_default_cache,
    resolve_cache,
    set_default_cache,
)
from repro.core import EstimationPipeline
from repro.errors import ExperimentError
from repro.experiments.harness import run_experiment
from repro.experiments.results import ExperimentResult
from repro.experiments.sweep import RunStats, run_configs, run_sweep, sweep_configs


@pytest.fixture
def isolated_default_cache():
    """Swap in a fresh default cache and restore the old one afterwards."""
    previous = get_default_cache()
    fresh = ExperimentCache()
    set_default_cache(fresh)
    yield fresh
    set_default_cache(previous)


@pytest.fixture
def count_runs(monkeypatch):
    """Count how many times the estimation pipeline actually executes (once
    per executor task; every config here is one task)."""
    calls = {"count": 0}
    original = EstimationPipeline.run

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EstimationPipeline, "run", counting)
    return calls


class TestFingerprint:
    def test_stable_and_label_invariant(self, quiet_config):
        config = quiet_config()
        assert experiment_fingerprint(config) == experiment_fingerprint(config)
        relabelled = config.with_overrides(label="something else")
        assert experiment_fingerprint(config) == experiment_fingerprint(relabelled)

    def test_sensitive_to_config_changes(self, quiet_config):
        base = experiment_fingerprint(quiet_config())
        assert experiment_fingerprint(quiet_config(matrix_size=256)) != base
        assert experiment_fingerprint(quiet_config(base_seed=7)) != base
        assert experiment_fingerprint(quiet_config(seeds=2)) != base
        assert (
            experiment_fingerprint(quiet_config(pattern_family="sparsity"))
            != base
        )

    def test_sensitive_to_estimator_and_telemetry_knobs(self, quiet_config):
        from repro.activity.sampler import SamplingConfig
        from repro.telemetry.sampler import TelemetryConfig

        base = experiment_fingerprint(quiet_config())
        assert (
            experiment_fingerprint(
                quiet_config(sampling=SamplingConfig(output_samples=32))
            )
            != base
        )
        assert (
            experiment_fingerprint(
                quiet_config(telemetry=TelemetryConfig(noise_std_watts=2.0))
            )
            != base
        )

    def test_seed_granularity(self, quiet_config):
        config = quiet_config()
        whole = experiment_fingerprint(config)
        per_seed = experiment_fingerprint(config, seed=0)
        assert whole != per_seed
        assert per_seed != experiment_fingerprint(config, seed=1)

    def test_code_version_invalidates(self, quiet_config):
        config = quiet_config()
        assert experiment_fingerprint(config) == experiment_fingerprint(
            config, code_version=code_fingerprint()
        )
        assert experiment_fingerprint(config) != experiment_fingerprint(
            config, code_version="other-version"
        )

    def test_sensitive_to_registry_respecification(self, quiet_config, monkeypatch):
        """Re-registering a dtype/GPU name must not serve stale cached results."""
        import dataclasses

        from repro.gpu import specs as gpu_specs

        config = quiet_config()
        before = experiment_fingerprint(config)
        modified = dataclasses.replace(
            gpu_specs.get_gpu_spec("a100"),
            tdp_watts=gpu_specs.get_gpu_spec("a100").tdp_watts + 25.0,
        )
        monkeypatch.setitem(gpu_specs.GPU_SPECS, "a100", modified)
        assert experiment_fingerprint(config) != before

    def test_canonical_json_is_order_insensitive(self):
        a = fingerprint_payload({"x": 1, "y": [1, 2]})
        b = fingerprint_payload({"y": [1, 2], "x": 1})
        assert a == b
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestExperimentCache:
    def test_hit_miss_and_stats(self, quiet_config):
        cache = ExperimentCache()
        config = quiet_config()
        key = experiment_fingerprint(config)
        assert cache.get(key) is None
        result = run_experiment(config, cache=None)
        cache.put(key, result)
        hit = cache.get(key)
        assert hit is not None
        assert hit.as_dict() == result.as_dict()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_copies_are_defensive(self, quiet_config):
        cache = ExperimentCache()
        config = quiet_config()
        result = run_experiment(config, cache=None)
        key = experiment_fingerprint(config)
        cache.put(key, result)
        result.config["label"] = "mutated after put"
        first = cache.get(key)
        first.config["label"] = "mutated after get"
        second = cache.get(key)
        assert second.config["label"] not in ("mutated after put", "mutated after get")

    def test_lru_eviction(self, quiet_config):
        cache = ExperimentCache(max_entries=2)
        result = run_experiment(quiet_config(), cache=None)
        cache.put("a", result)
        cache.put("b", result)
        assert cache.get("a") is not None  # refresh "a"; "b" is now oldest
        cache.put("c", result)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_rejects_bad_values(self):
        cache = ExperimentCache()
        with pytest.raises(ExperimentError):
            cache.put("key", {"not": "a result"})
        with pytest.raises(ExperimentError):
            ExperimentCache(max_entries=0)
        with pytest.raises(ExperimentError):
            resolve_cache("bogus")

    def test_disk_round_trip(self, quiet_config, tmp_path):
        config = quiet_config()
        key = experiment_fingerprint(config)
        result = run_experiment(config, cache=None)

        writer = ExperimentCache(disk_dir=tmp_path)
        writer.put(key, result)
        assert (tmp_path / DB_FILENAME).exists()
        assert not (tmp_path / f"{key}.json").exists()

        # A fresh instance (fresh process, conceptually) reads it back.
        reader = ExperimentCache(disk_dir=tmp_path)
        loaded = reader.get(key)
        assert loaded is not None
        assert reader.stats.disk_hits == 1
        assert loaded.as_dict() == result.as_dict()

    def test_memory_lookup_never_reads_disk(self, quiet_config, tmp_path):
        config = quiet_config()
        key = experiment_fingerprint(config)
        result = run_experiment(config, cache=None)
        ExperimentCache(disk_dir=tmp_path).put(key, result)

        reader = ExperimentCache(disk_dir=tmp_path, max_entries=2)
        # On disk only: a memory-only miss, counted nowhere.
        assert reader.get_memory(key) is None
        assert reader.stats.lookups == 0 and len(reader) == 0
        assert reader.get(key) is not None  # the disk read fills the LRU
        reader.put("other", result)
        hit = reader.get_memory(key)  # refreshes key: "other" is now oldest
        assert hit is not None and hit.as_dict() == result.as_dict()
        hit.config["label"] = "mutated after get_memory"
        assert reader.get_memory(key).config["label"] != "mutated after get_memory"
        assert (reader.stats.hits, reader.stats.misses, reader.stats.disk_hits) == (3, 0, 1)
        reader.put("newest", result)
        assert reader.get_memory("other") is None
        assert reader.get_memory(key) is not None

    def test_corrupt_disk_entry_is_a_miss(self, quiet_config, tmp_path):
        config = quiet_config()
        key = experiment_fingerprint(config)
        with SqliteStore(tmp_path) as store:
            store.put(key, "{not json")
        cache = ExperimentCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert cache.stats.disk_errors == 1
        assert cache.stats.misses == 1
        # The unreadable entry is deleted, not left to trip every lookup.
        with SqliteStore(tmp_path) as store:
            assert not store.contains(key)

    def test_clear(self, quiet_config, tmp_path):
        config = quiet_config()
        key = experiment_fingerprint(config)
        cache = ExperimentCache(disk_dir=tmp_path)
        cache.put(key, run_experiment(config, cache=None))
        cache.clear()
        assert len(cache) == 0
        assert key in cache  # still on disk
        cache.clear(disk=True)
        assert key not in cache


class TestResultRoundTrip:
    def test_from_dict_equals_original(self, quiet_config):
        result = run_experiment(quiet_config(seeds=2), cache=None)
        round_tripped = ExperimentResult.from_dict(
            json.loads(json.dumps(result.as_dict()))
        )
        assert round_tripped.as_dict() == result.as_dict()
        assert round_tripped.mean_power_watts == result.mean_power_watts
        assert (
            round_tripped.measurements[0].activity.shape
            == result.measurements[0].activity.shape
        )


class TestCacheWiring:
    def test_run_experiment_uses_explicit_cache(self, quiet_config, count_runs):
        cache = ExperimentCache()
        config = quiet_config()
        first = run_experiment(config, cache=cache)
        second = run_experiment(config, cache=cache)
        assert count_runs["count"] == 1
        assert first.as_dict() == second.as_dict()

    def test_run_experiment_cache_none_recomputes(self, quiet_config, count_runs):
        config = quiet_config()
        run_experiment(config, cache=None)
        run_experiment(config, cache=None)
        assert count_runs["count"] == 2

    def test_cached_result_restamps_label(self, quiet_config):
        cache = ExperimentCache()
        config = quiet_config(label="first label")
        run_experiment(config, cache=cache)
        hit = run_experiment(config.with_overrides(label="second label"), cache=cache)
        assert hit.config["label"] == "second label"

    def test_default_cache_sentinel(self, quiet_config, isolated_default_cache, count_runs):
        config = quiet_config()
        run_experiment(config)
        run_experiment(config, cache=DEFAULT_CACHE)
        assert count_runs["count"] == 1
        assert isolated_default_cache.stats.hits == 1

    def test_cached_equals_fresh(self, quiet_config):
        cache = ExperimentCache()
        config = quiet_config(seeds=2)
        cached_source = run_experiment(config, cache=cache)
        hit = run_experiment(config, cache=cache)
        fresh = run_experiment(config, cache=None)
        assert hit.as_dict() == fresh.as_dict() == cached_source.as_dict()


class TestSweepOrchestration:
    def test_repeated_sweep_hits_cache(self, quiet_config, count_runs):
        cache = ExperimentCache()
        base = quiet_config(pattern_family="sparsity")
        first = run_sweep(base, "sparsity", [0.0, 0.5, 1.0], cache=cache)
        assert count_runs["count"] == 3
        stats = RunStats()
        second = run_sweep(base, "sparsity", [0.0, 0.5, 1.0], cache=cache, stats=stats)
        assert count_runs["count"] == 3  # no further harness invocations
        assert stats.cache_hits == 3 and stats.executed == 0
        assert [r.as_dict() for r in second.results] == [
            r.as_dict() for r in first.results
        ]

    def test_duplicate_configs_computed_once(self, quiet_config, count_runs):
        base = quiet_config(pattern_family="sparsity")
        configs = sweep_configs(base, "sparsity", [0.0, 1.0, 0.0, 1.0])
        stats = RunStats()
        results = run_configs(configs, cache=None, stats=stats)
        assert count_runs["count"] == 2
        assert stats.total == 4 and stats.unique == 2 and stats.executed == 2
        assert len(results) == 4
        assert results[0].as_dict()["measurements"] == results[2].as_dict()["measurements"]
        # Labels still reflect each requested point.
        assert [r.config["label"] for r in results] == [
            c.describe()["label"] for c in configs
        ]

    def test_dedupe_can_be_disabled(self, quiet_config, count_runs):
        base = quiet_config(pattern_family="sparsity")
        configs = sweep_configs(base, "sparsity", [0.0, 0.0])
        run_configs(configs, cache=None, dedupe=False)
        assert count_runs["count"] == 2

    def test_progress_hook(self, quiet_config):
        base = quiet_config(pattern_family="sparsity")
        events = []
        run_sweep(
            base,
            "sparsity",
            [0.0, 0.5],
            cache=None,
            progress=lambda done, total, label: events.append((done, total, label)),
        )
        assert [(done, total) for done, total, _ in events] == [(1, 2), (2, 2)]
        assert all("sparsity" in label for _, _, label in events)

    def test_reused_stats_reset_between_calls(self, quiet_config):
        cache = ExperimentCache()
        base = quiet_config(pattern_family="sparsity")
        configs = sweep_configs(base, "sparsity", [0.0, 0.5])
        stats = RunStats()
        run_configs(configs, cache=cache, stats=stats)
        assert (stats.executed, stats.cache_hits) == (2, 0)
        run_configs(configs, cache=cache, stats=stats)
        assert (stats.executed, stats.cache_hits) == (0, 2)
        assert stats.executed + stats.cache_hits == stats.unique == 2

    def test_pool_matches_serial_with_cache(self, quiet_config):
        base = quiet_config(pattern_family="sparsity")
        configs = sweep_configs(base, "sparsity", [0.0, 0.5, 1.0])
        parallel = run_configs(configs, workers=2, cache=ExperimentCache())
        serial = run_configs(configs, cache=None)
        assert [r.as_dict() for r in parallel] == [r.as_dict() for r in serial]
