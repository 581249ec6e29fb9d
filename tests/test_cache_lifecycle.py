"""Tests for the activity cache tier, disk-cache lifecycle management and
the sweep/cache robustness fixes (atomic writes, worker cleanup, GC, CLI)."""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.activity import engine as engine_module
from repro.activity.report import ActivityReport
from repro.cache.__main__ import main as cache_cli
from repro.cache.fingerprint import activity_fingerprint, experiment_fingerprint
from repro.cache.lifecycle import (
    cache_dir_stats,
    clear_cache_dir,
    format_size,
    parse_size,
    prune_cache_dir,
    resolve_cost_weights,
    scan_cache_dir,
    tier_dir,
)
from repro.cache.sqlite_store import DB_FILENAME, SqliteStore, read_entries
from repro.cache.store import (
    ActivityCache,
    ExperimentCache,
    get_default_activity_cache,
    get_default_cache,
    resolve_activity_cache,
)
from repro.errors import ActivityError, ExperimentError
from repro.experiments.harness import run_experiment
from repro.experiments.sweep import run_configs


def _put_rows(root, tier, rows) -> None:
    """Write ``(key, payload, mtime)`` rows straight into a tier's database."""
    with SqliteStore(tier_dir(root, tier)) as store:
        for key, payload, mtime in rows:
            store.put(key, payload, mtime=mtime)


def _make_report(value: float = 0.5) -> ActivityReport:
    return ActivityReport(
        operand_activity=value,
        multiplier_activity=value,
        datapath_activity=value,
        memory_activity=value,
        operand_toggle_a=value,
        operand_toggle_b=value,
        multiplier_hw_product=value,
        zero_mac_fraction=value,
        product_toggle=value,
        accumulator_toggle=value,
        memory_toggle=value,
        a_hamming_fraction=value,
        b_hamming_fraction=value,
        bit_alignment=value,
        dtype="fp16_t",
        shape=(8, 8, 8),
        output_samples=4,
    )


def _hammer_puts(args: tuple[str, int, int]) -> int:
    """Worker for the concurrency test: interleaved puts on shared keys."""
    directory, worker_id, rounds = args
    cache = ActivityCache(disk_dir=directory)
    for index in range(rounds):
        cache.put(f"key{index % 8}", _make_report(0.25 + worker_id * 0.1 + index * 1e-6))
    return cache.stats.disk_errors


@pytest.fixture
def count_estimations(monkeypatch):
    """Count invocations actually estimated (not served from a cache)."""
    calls = {"invocations": 0}
    original = engine_module._estimate_stacked

    def counting(stacked, sampling, seeds):
        calls["invocations"] += stacked.batch
        return original(stacked, sampling, seeds)

    monkeypatch.setattr(engine_module, "_estimate_stacked", counting)
    return calls


@pytest.fixture
def reset_default_caches(monkeypatch):
    """Fresh, uninitialized default-cache state, restored afterwards."""
    import repro.cache.store as store

    saved = (
        store._default_cache,
        store._default_initialized,
        store._default_activity_cache,
        store._default_activity_initialized,
        store._auto_pruned,
    )
    store._default_cache = None
    store._default_initialized = False
    store._default_activity_cache = None
    store._default_activity_initialized = False
    store._auto_pruned = False
    yield store
    (
        store._default_cache,
        store._default_initialized,
        store._default_activity_cache,
        store._default_activity_initialized,
        store._auto_pruned,
    ) = saved


class TestActivityFingerprint:
    def test_excludes_device_and_measurement_knobs(self, quiet_config):
        from repro.telemetry.sampler import TelemetryConfig

        base = activity_fingerprint(quiet_config(), seed=0)
        assert activity_fingerprint(quiet_config(gpu="h100"), seed=0) == base
        assert activity_fingerprint(quiet_config(iterations=999), seed=0) == base
        assert activity_fingerprint(quiet_config(warmup_trim_s=0.1), seed=0) == base
        assert activity_fingerprint(quiet_config(seeds=5), seed=0) == base
        assert activity_fingerprint(quiet_config(instance_id=3), seed=0) == base
        assert (
            activity_fingerprint(
                quiet_config(telemetry=TelemetryConfig(noise_std_watts=3.0)), seed=0
            )
            == base
        )
        assert (
            activity_fingerprint(
                quiet_config(include_process_variation=True), seed=0
            )
            == base
        )

    def test_sensitive_to_workload_and_seed(self, quiet_config):
        from repro.activity.sampler import SamplingConfig

        base = activity_fingerprint(quiet_config(), seed=0)
        assert activity_fingerprint(quiet_config(), seed=1) != base
        assert activity_fingerprint(quiet_config(matrix_size=256), seed=0) != base
        assert activity_fingerprint(quiet_config(base_seed=7), seed=0) != base
        assert activity_fingerprint(quiet_config(transpose_b=False), seed=0) != base
        assert activity_fingerprint(quiet_config(dtype="fp16"), seed=0) != base
        assert (
            activity_fingerprint(quiet_config(pattern_family="sparsity"), seed=0)
            != base
        )
        assert (
            activity_fingerprint(
                quiet_config(sampling=SamplingConfig(output_samples=16)), seed=0
            )
            != base
        )

    def test_differs_from_experiment_fingerprint(self, quiet_config):
        config = quiet_config()
        assert activity_fingerprint(config, seed=0) != experiment_fingerprint(
            config, seed=0
        )


class TestActivityCacheTier:
    def test_stores_reports_and_rejects_other_values(self, tmp_path):
        cache = ActivityCache(disk_dir=tmp_path)
        report = _make_report()
        cache.put("k", report)
        assert cache.get("k") == report
        with pytest.raises(ExperimentError):
            cache.put("k", {"not": "a report"})
        with pytest.raises(ExperimentError):
            resolve_activity_cache("bogus")

    def test_disk_round_trip_is_bit_exact(self, tmp_path):
        report = _make_report(0.123456789012345678)
        ActivityCache(disk_dir=tmp_path).put("k", report)
        loaded = ActivityCache(disk_dir=tmp_path).get("k")
        assert loaded == report  # dataclass equality: every float bit-exact

    def test_cached_experiment_is_bit_identical_to_cold(self, quiet_config):
        config = quiet_config(seeds=2)
        warm_cache = ActivityCache()
        first = run_experiment(config, cache=None, activity_cache=warm_cache)
        second = run_experiment(config, cache=None, activity_cache=warm_cache)
        cold = run_experiment(config, cache=None, activity_cache=None)
        assert warm_cache.stats.hits == config.seeds
        assert second.as_dict() == cold.as_dict() == first.as_dict()

    def test_cross_gpu_sweep_estimates_once_per_seed(
        self, quiet_config, count_estimations
    ):
        gpus = ["v100", "a100", "h100", "rtx6000"]
        base = quiet_config(seeds=2)
        configs = [base.with_overrides(gpu=gpu) for gpu in gpus]
        cache = ActivityCache()
        warm = run_configs(configs, cache=None, activity_cache=cache)
        assert count_estimations["invocations"] == base.seeds  # not len(gpus) * seeds
        assert cache.stats.misses == base.seeds
        assert cache.stats.hits == (len(gpus) - 1) * base.seeds

        count_estimations["invocations"] = 0
        cold = run_configs(configs, cache=None, activity_cache=None)
        assert count_estimations["invocations"] == len(gpus) * base.seeds
        assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]

    def test_iteration_sweep_reuses_activity(self, quiet_config, count_estimations):
        base = quiet_config()
        configs = [base.with_overrides(iterations=n) for n in (100, 200, 300)]
        run_configs(configs, cache=None, activity_cache=ActivityCache())
        assert count_estimations["invocations"] == base.seeds

    def test_warm_batch_skips_operand_factories(self):
        from repro.activity.engine import estimate_activity_batch
        from repro.dtypes import get_dtype
        from repro.kernels.gemm import GemmOperands, GemmProblem
        from repro.patterns.library import build_pattern
        from repro.util.rng import derive_rng

        spec = get_dtype("fp16_t")
        problem = GemmProblem.square(32, dtype="fp16_t")
        pattern = build_pattern("gaussian", spec)
        invoked = {"count": 0}

        def factory(seed):
            def build():
                invoked["count"] += 1
                a = pattern.generate(problem.a_shape, spec, derive_rng(1, "A", seed))
                b = pattern.generate(
                    problem.b_storage_shape, spec, derive_rng(1, "B", seed)
                )
                return GemmOperands(problem=problem, a=a, b_stored=b)

            return build

        cache = ActivityCache()
        keys = ["s0", "s1"]
        factories = [factory(0), factory(1)]
        cold = estimate_activity_batch(factories, cache=cache, keys=keys)
        assert invoked["count"] == 2
        warm = estimate_activity_batch(factories, cache=cache, keys=keys)
        assert invoked["count"] == 2  # fully warm: no factory ran
        assert warm == cold

    def test_batch_cache_requires_matching_keys(self):
        cache = ActivityCache()
        from repro.activity.engine import estimate_activity_batch

        with pytest.raises(ActivityError):
            estimate_activity_batch([lambda: None], cache=cache)
        with pytest.raises(ActivityError):
            estimate_activity_batch([lambda: None], cache=cache, keys=["a", "b"])

    def test_engine_single_estimate_uses_cache(self, quiet_config, count_estimations):
        from repro.activity.engine import ActivityEngine, estimate_activity
        from repro.experiments.harness import ExperimentRunner

        config = quiet_config()
        runner = ExperimentRunner(config, activity_cache=None)
        operands = runner.pipeline.generate_operands(runner.plan.problem, 0)
        engine = ActivityEngine(sampling=config.sampling, cache=ActivityCache())
        first = engine.estimate(operands, seed=0, key="k")
        second = engine.estimate(operands, seed=0, key="k")
        assert engine.cache.stats.hits == 1
        reference = estimate_activity(operands, sampling=config.sampling, seed=0)
        assert first == second == reference


class TestAtomicDiskWrites:
    def test_corrupt_entry_is_deleted_not_raised(self, tmp_path):
        _put_rows(tmp_path, "experiment", [("bad", "{truncated", 1_000.0)])
        cache = ActivityCache(disk_dir=tmp_path)
        assert cache.get("bad") is None
        assert cache.stats.disk_errors == 1
        assert read_entries(tmp_path / DB_FILENAME) == []

    def test_concurrent_puts_leave_readable_store(self, tmp_path):
        jobs = [(str(tmp_path), worker, 60) for worker in range(3)]
        with ProcessPoolExecutor(max_workers=3) as pool:
            disk_errors = list(pool.map(_hammer_puts, jobs))
        assert disk_errors == [0, 0, 0]
        reader = ActivityCache(disk_dir=tmp_path)
        keys = sorted(entry.key for entry in scan_cache_dir(tmp_path))
        assert keys == [f"key{index}" for index in range(8)]
        for key in keys:
            assert reader.get(key) is not None
        assert reader.stats.disk_errors == 0


class TestGarbageCollection:
    def _populate(self, root, count=4, tier="experiment", size=100, start_age=0):
        now = 1_000_000_000
        _put_rows(
            root,
            tier,
            [
                (
                    f"entry{index}",
                    json.dumps({"pad": "x" * size}),
                    now - start_age - (count - index) * 3600,  # entry0 oldest
                )
                for index in range(count)
            ],
        )
        return now

    def test_scan_and_stats(self, tmp_path):
        now = self._populate(tmp_path, count=3, tier="experiment")
        self._populate(tmp_path, count=2, tier="activity")
        entries = scan_cache_dir(tmp_path)
        assert len(entries) == 5
        assert entries == sorted(entries, key=lambda e: (e.mtime, str(e.path)))
        stats = cache_dir_stats(tmp_path, now=now)
        assert stats["tiers"]["experiment"]["entries"] == 3
        assert stats["tiers"]["activity"]["entries"] == 2
        assert stats["entries"] == 5
        assert stats["bytes"] == sum(e.size_bytes for e in entries)

    def test_prune_by_age(self, tmp_path):
        now = self._populate(tmp_path, count=4)
        report = prune_cache_dir(tmp_path, max_age_s=2.5 * 3600, now=now)
        assert {entry.key for entry in report.removed} == {"entry0", "entry1"}
        assert report.remaining == 2
        survivors = {entry.key for entry in scan_cache_dir(tmp_path)}
        assert survivors == {"entry2", "entry3"}

    def test_prune_by_size_removes_oldest_first(self, tmp_path):
        now = self._populate(tmp_path, count=4, size=100)
        total = sum(entry.size_bytes for entry in scan_cache_dir(tmp_path))
        per_entry = total // 4
        report = prune_cache_dir(tmp_path, max_bytes=2 * per_entry, now=now)
        assert {entry.key for entry in report.removed} == {"entry0", "entry1"}
        assert report.remaining_bytes <= 2 * per_entry
        assert {entry.key for entry in scan_cache_dir(tmp_path)} == {
            "entry2",
            "entry3",
        }

    def test_prune_spans_both_tiers(self, tmp_path):
        self._populate(tmp_path, count=2, tier="experiment", start_age=10_000)
        now = self._populate(tmp_path, count=2, tier="activity")
        report = prune_cache_dir(tmp_path, max_bytes=0, now=now)
        assert len(report.removed) == 4
        assert scan_cache_dir(tmp_path) == []

    def test_dry_run_removes_nothing(self, tmp_path):
        now = self._populate(tmp_path, count=3)
        report = prune_cache_dir(tmp_path, max_bytes=0, dry_run=True, now=now)
        assert len(report.removed) == 3
        assert len(scan_cache_dir(tmp_path)) == 3

    def test_clear_removes_zero_byte_entries(self, tmp_path):
        now = self._populate(tmp_path, count=2)
        _put_rows(tmp_path, "experiment", [("empty", "", now)])  # fits any size budget
        report = clear_cache_dir(tmp_path)
        assert len(report.removed) == 3
        assert report.remaining == 0
        assert scan_cache_dir(tmp_path) == []

    def test_clear_by_tier(self, tmp_path):
        self._populate(tmp_path, count=2, tier="experiment")
        self._populate(tmp_path, count=3, tier="activity")
        clear_cache_dir(tmp_path, tiers=("activity",))
        remaining = scan_cache_dir(tmp_path)
        assert {entry.tier for entry in remaining} == {"experiment"}
        assert len(remaining) == 2

    def test_files_of_the_old_layout_are_ignored(self, tmp_path):
        # Entry and temp files left by 1.1.0's one-file-per-entry layout are
        # neither scanned nor removed: only database rows are entries.
        now = self._populate(tmp_path, count=1)
        leftovers = [tmp_path / "old.json", tmp_path / ".old.json.123.tmp"]
        for path in leftovers:
            path.write_text("{}")
        assert [entry.key for entry in scan_cache_dir(tmp_path)] == ["entry0"]
        prune_cache_dir(tmp_path, max_bytes=0, now=now)
        clear_cache_dir(tmp_path)
        assert scan_cache_dir(tmp_path) == []
        assert all(path.exists() for path in leftovers)

    def test_parse_and_format_size(self):
        assert parse_size("1024") == 1024
        assert parse_size("4K") == 4096
        assert parse_size("1.5M") == int(1.5 * (1 << 20))
        assert parse_size("2GiB") == 2 << 30
        assert parse_size("100B") == 100
        with pytest.raises(ValueError):
            parse_size("many")
        assert format_size(512) == "512 B"
        assert format_size(1536) == "1.5 KiB"

    def test_failed_delete_stays_in_accounting(self, tmp_path, monkeypatch):
        import repro.cache.sqlite_store as sqlite_store

        now = self._populate(tmp_path, count=3, size=100)
        original_delete = sqlite_store.delete_entries

        def stubborn_delete(db_path, keys):
            if keys == ["entry0"]:  # oldest entry refuses to die
                raise OSError("cache database delete failed: disk I/O error")
            return original_delete(db_path, keys)

        monkeypatch.setattr(sqlite_store, "delete_entries", stubborn_delete)
        report = prune_cache_dir(tmp_path, max_bytes=0, now=now)
        assert {entry.key for entry in report.removed} == {"entry1", "entry2"}
        assert report.remaining == 1
        assert report.remaining_bytes > 0  # the undeletable row still counts
        assert [entry.key for entry in scan_cache_dir(tmp_path)] == ["entry0"]

    def test_invalid_limits_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            prune_cache_dir(tmp_path, max_bytes=-1)
        with pytest.raises(ExperimentError):
            prune_cache_dir(tmp_path, max_age_s=-1.0)


class TestNonFiniteLimits:
    """GC limits and cost weights must be finite numbers.  ``inf`` used to
    overflow into a raw ``OverflowError`` and ``nan`` to be accepted and
    prune nothing (``age > nan`` is always false); both are typed errors."""

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "1e308T"])
    def test_parse_size_rejects(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_size(text)

    @pytest.mark.parametrize("limit", ["max_bytes", "max_age_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_prune_rejects(self, tmp_path, limit, value):
        with pytest.raises(ExperimentError, match="finite"):
            prune_cache_dir(tmp_path, **{limit: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_cost_weight_rejected(self, value):
        with pytest.raises(ExperimentError, match="finite"):
            resolve_cost_weights({"experiment": value})

    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_env_cost_weight_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CACHE_EXPERIMENT_COST", raw)
        with pytest.raises(ExperimentError, match="finite"):
            resolve_cost_weights()

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_CACHE_MAX_BYTES", "inf"),
            ("REPRO_CACHE_MAX_BYTES", "nan"),
            ("REPRO_CACHE_MAX_AGE_DAYS", "inf"),
            ("REPRO_CACHE_MAX_AGE_DAYS", "nan"),
        ],
    )
    def test_auto_prune_env_rejected(
        self, tmp_path, monkeypatch, reset_default_caches, name, raw
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(name, raw)
        with pytest.raises(ExperimentError, match="finite"):
            get_default_cache()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-bytes", "inf"],
            ["--max-bytes", "nan"],
            ["--max-age-days", "inf"],
            ["--max-age-days", "nan"],
            ["--max-bytes", "1G", "--experiment-cost", "inf"],
        ],
    )
    def test_cli_exits_with_an_error(self, tmp_path, capsys, flags):
        assert cache_cli(["prune", "--dir", str(tmp_path), *flags]) == 1
        assert "finite" in capsys.readouterr().err


class TestCacheCli:
    def _populate_real(self, root, quiet_config):
        config = quiet_config()
        experiment_cache = ExperimentCache(disk_dir=root)
        activity_cache = ActivityCache(disk_dir=root / "activity")
        run_experiment(config, cache=experiment_cache, activity_cache=activity_cache)
        return config

    def test_stats_and_ls(self, tmp_path, quiet_config, capsys):
        self._populate_real(tmp_path, quiet_config)
        assert cache_cli(["stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "activity" in out

        assert cache_cli(["ls", "--dir", str(tmp_path), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert {entry["tier"] for entry in listed} == {"experiment", "activity"}

    def test_env_var_dir(self, tmp_path, quiet_config, capsys, monkeypatch):
        self._populate_real(tmp_path, quiet_config)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_cli(["stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 2

    def test_prune_and_clear(self, tmp_path, quiet_config, capsys):
        self._populate_real(tmp_path, quiet_config)
        assert cache_cli(["prune", "--dir", str(tmp_path), "--max-bytes", "0", "--dry-run", "--json"]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["dry_run"] is True and dry["removed"] >= 2
        assert len(scan_cache_dir(tmp_path)) == dry["removed"]

        assert cache_cli(["clear", "--dir", str(tmp_path), "--tier", "activity"]) == 0
        capsys.readouterr()
        assert {entry.tier for entry in scan_cache_dir(tmp_path)} == {"experiment"}

        assert cache_cli(["prune", "--dir", str(tmp_path), "--max-bytes", "0"]) == 0
        capsys.readouterr()
        assert scan_cache_dir(tmp_path) == []

    def test_requires_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            cache_cli(["stats"])

    def test_prune_requires_a_limit(self, tmp_path):
        with pytest.raises(SystemExit):
            cache_cli(["prune", "--dir", str(tmp_path)])

    def test_bad_size_is_an_error_exit(self, tmp_path, capsys):
        assert cache_cli(["prune", "--dir", str(tmp_path), "--max-bytes", "huge"]) == 1
        assert "error" in capsys.readouterr().err


class TestDefaultCacheWiring:
    def test_activity_tier_under_cache_dir(
        self, tmp_path, monkeypatch, reset_default_caches
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        experiment = get_default_cache()
        activity = get_default_activity_cache()
        assert experiment.disk_dir == tmp_path
        assert activity.disk_dir == tmp_path / "activity"

    def test_no_cache_disables_both(self, monkeypatch, reset_default_caches):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert get_default_cache() is None
        assert get_default_activity_cache() is None

    def test_activity_lru_width_env(self, monkeypatch, reset_default_caches):
        monkeypatch.setenv("REPRO_ACTIVITY_CACHE_MAX_ENTRIES", "7")
        assert get_default_activity_cache().max_entries == 7
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "nope")
        reset_default_caches._default_initialized = False
        with pytest.raises(ExperimentError):
            get_default_cache()

    def test_auto_prune_on_first_use(self, tmp_path, monkeypatch, reset_default_caches):
        # 1970: older than any age limit
        _put_rows(tmp_path, "experiment", [("stale", "{}", 1_000.0)])
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE_DAYS", "30")
        get_default_cache()
        assert read_entries(tmp_path / DB_FILENAME) == []


class TestSweepRobustness:
    def _failing_config(self, quiet_config):
        # Configs reject unknown pattern params when built, so the bad one
        # goes in afterwards: the point then fails inside the harness (and
        # thus inside the pool's threads) when the pattern is built.
        config = quiet_config(label="the bad point")
        object.__setattr__(config, "pattern_params", {"bogus_param": 1.0})
        return config

    def test_inline_failure_attaches_label(self, quiet_config):
        configs = [quiet_config(), self._failing_config(quiet_config)]
        with pytest.raises(ExperimentError, match="the bad point"):
            run_configs(configs, cache=None, activity_cache=None)

    def test_pool_failure_attaches_label_and_cancels(self, quiet_config):
        configs = [
            quiet_config(),
            self._failing_config(quiet_config),
            quiet_config(matrix_size=256),
        ]
        with pytest.raises(ExperimentError, match="the bad point"):
            run_configs(configs, workers=2, cache=None, activity_cache=None)

    def test_pool_usable_after_failure(self, quiet_config):
        with pytest.raises(ExperimentError):
            run_configs(
                [self._failing_config(quiet_config), quiet_config()],
                workers=2,
                cache=None,
                activity_cache=None,
            )
        results = run_configs(
            [quiet_config(), quiet_config(matrix_size=256)],
            workers=2,
            cache=None,
            activity_cache=None,
        )
        assert len(results) == 2

    def test_pool_honours_explicit_activity_cache_disable(
        self, quiet_config, tmp_path, monkeypatch, reset_default_caches
    ):
        # The default caches resolve lazily from the environment; an
        # explicit activity_cache=None must override that and fully disable
        # the tier (no entries written), while the default sentinel lets the
        # pool's threads populate the shared disk tier.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = [quiet_config(), quiet_config(matrix_size=256)]
        run_configs(configs, workers=2, cache=None, activity_cache=None)
        assert not [e for e in scan_cache_dir(tmp_path) if e.tier == "activity"]

        run_configs(configs, workers=2, cache=None)
        assert [e for e in scan_cache_dir(tmp_path) if e.tier == "activity"]


class TestCostWeightedPrune:
    """Size pruning weights eviction order by recomputation cost: activity
    entries (cheap to rebuild) go before experiment entries (~100x dearer),
    unless age differences overwhelm the weight ratio."""

    def _two_tier_dir(self, tmp_path, experiment_age_s, activity_age_s, size=100):
        now = 1_000_000_000
        for tier, age in (("experiment", experiment_age_s), ("activity", activity_age_s)):
            payload = json.dumps({"pad": "x" * size})
            _put_rows(tmp_path, tier, [(f"{tier}0", payload, now - age)])
        return now

    def test_older_experiment_outlives_newer_activity(self, tmp_path):
        # Experiment entry is 24x older; the 100x default weight still
        # makes the one-hour-old activity entry the first eviction.
        now = self._two_tier_dir(tmp_path, experiment_age_s=86_400, activity_age_s=3_600)
        entries = scan_cache_dir(tmp_path)
        keep_one = max(entry.size_bytes for entry in entries)
        report = prune_cache_dir(tmp_path, max_bytes=keep_one, now=now)
        assert [entry.tier for entry in report.removed] == ["activity"]
        assert {entry.tier for entry in scan_cache_dir(tmp_path)} == {"experiment"}

    def test_weight_ratio_can_be_overcome_by_age(self, tmp_path):
        # 200x the age difference beats the 100x weight: the ancient
        # experiment entry goes first.
        now = self._two_tier_dir(
            tmp_path, experiment_age_s=720_000, activity_age_s=3_600
        )
        entries = scan_cache_dir(tmp_path)
        keep_one = max(entry.size_bytes for entry in entries)
        report = prune_cache_dir(tmp_path, max_bytes=keep_one, now=now)
        assert [entry.tier for entry in report.removed] == ["experiment"]

    def test_explicit_cost_weights_override(self, tmp_path):
        now = self._two_tier_dir(tmp_path, experiment_age_s=7_200, activity_age_s=3_600)
        entries = scan_cache_dir(tmp_path)
        keep_one = max(entry.size_bytes for entry in entries)
        report = prune_cache_dir(
            tmp_path,
            max_bytes=keep_one,
            now=now,
            cost_weights={"experiment": 1.0, "activity": 1.0},
        )
        # Unweighted, plain mtime-LRU: the older experiment entry goes.
        assert [entry.tier for entry in report.removed] == ["experiment"]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_EXPERIMENT_COST", "250")
        assert resolve_cost_weights()["experiment"] == 250.0
        monkeypatch.setenv("REPRO_CACHE_EXPERIMENT_COST", "lots")
        with pytest.raises(ExperimentError):
            resolve_cost_weights()

    def test_invalid_weights_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_cost_weights({"experiment": 0.0})
        with pytest.raises(ExperimentError):
            resolve_cost_weights({"unknown-tier": 2.0})

    def test_age_prune_ignores_cost(self, tmp_path):
        # Staleness is absolute: max_age_s removes the old experiment entry
        # even though its tier is 100x more expensive to rebuild.
        now = self._two_tier_dir(tmp_path, experiment_age_s=86_400, activity_age_s=60)
        report = prune_cache_dir(tmp_path, max_age_s=3_600, now=now)
        assert [entry.tier for entry in report.removed] == ["experiment"]

    def test_cli_experiment_cost_flag(self, tmp_path, capsys):
        now_unused = self._two_tier_dir(
            tmp_path, experiment_age_s=7_200, activity_age_s=3_600
        )
        del now_unused
        entries = scan_cache_dir(tmp_path)
        keep_one = max(entry.size_bytes for entry in entries)
        assert (
            cache_cli(
                [
                    "prune",
                    "--dir",
                    str(tmp_path),
                    "--max-bytes",
                    str(keep_one),
                    "--experiment-cost",
                    "1",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 1
        # With the weight flattened to 1, mtime order wins: experiment went.
        assert {entry.tier for entry in scan_cache_dir(tmp_path)} == {"activity"}


class TestLiveCliStats:
    def test_stats_include_live_memory_counters(
        self, tmp_path, quiet_config, capsys, monkeypatch, reset_default_caches
    ):
        store = reset_default_caches
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        config = quiet_config()
        run_experiment(config)  # miss + put through the process defaults
        run_experiment(config)  # hit
        assert cache_cli(["stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "memory" in stats
        experiment = stats["memory"]["experiment"]
        assert experiment["entries"] == 1
        assert experiment["hits"] == 1
        assert experiment["puts"] == 1
        assert 0.0 < experiment["hit_rate"] <= 1.0
        assert stats["memory"]["activity"]["puts"] >= 1
        # The live section reflects the same instances the process holds.
        assert store.peek_default_caches()["experiment"].stats.hits == 1

        assert cache_cli(["stats"]) == 0
        out = capsys.readouterr().out
        assert "[live] experiment" in out and "hit rate" in out

    def test_stats_omit_memory_without_live_caches(
        self, tmp_path, quiet_config, capsys, reset_default_caches
    ):
        # Fresh default-cache state, nothing instantiated: a plain stats
        # call reports disk only, exactly like a subprocess invocation.
        config = quiet_config()
        experiment_cache = ExperimentCache(disk_dir=tmp_path)
        activity_cache = ActivityCache(disk_dir=tmp_path / "activity")
        run_experiment(config, cache=experiment_cache, activity_cache=activity_cache)
        assert cache_cli(["stats", "--dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "memory" not in stats

    def test_describe_memory_shape(self):
        cache = ActivityCache(max_entries=4)
        cache.put("k", _make_report())
        cache.get("k")
        cache.get("missing")
        info = cache.describe_memory()
        assert info["entries"] == 1
        assert info["max_entries"] == 4
        assert info["hits"] == 1 and info["misses"] == 1 and info["puts"] == 1
        assert info["disk_dir"] is None
