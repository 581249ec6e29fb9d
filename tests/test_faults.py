"""Chaos suite for :mod:`repro.faults` and the resilience layer.

The invariant asserted throughout (and in CI's ``chaos`` job, which runs
this file under two fixed ``REPRO_FAULTS_SEED`` values): under any fault
schedule, a run either completes with results **bit-for-bit identical**
to the fault-free path or raises a **typed** :class:`ReproError` — never
a hang, a wrong answer, or a stuck future.  Degradations (a memory-only
cache tier) must raise their sticky flags.

Tests install schedules directly, or set ``REPRO_FAULTS`` and call
:func:`repro.faults.reset` to drive the lazy environment path.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

import repro.faults as faults
from repro.cache.resilience import ResilienceStats, RetryPolicy
from repro.cache.sqlite_store import DB_FILENAME, SqliteStore
from repro.cache.store import ActivityCache, ExperimentCache, JsonDiskCache
from repro.errors import (
    FaultInjectionError,
    InjectedFaultError,
    ReproError,
    ServiceTimeoutError,
)
from repro.experiments.harness import run_experiment
from repro.experiments.sweep import run_configs, sweep_configs
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    fault_point,
    install_schedule,
    parse_schedule,
    register_fault_modes,
    schedule_from_env,
    uninstall_schedule,
)
from repro.serve.service import EstimationService, ServiceConfig


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    """Run every test against a clean environment and leave the lazy
    sentinel behind, so no schedule can bleed into other test modules."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    yield
    faults.reset()


def _install(text: str, seed: int = 0) -> FaultSchedule:
    return install_schedule(FaultSchedule(parse_schedule(text), seed=seed))


#: CI's ``chaos`` job runs this file under two fixed ``REPRO_FAULTS_SEED``
#: values; the end-to-end schedule sweep derives its seeds from the ambient
#: value (captured at import time, before the isolation fixture scrubs the
#: environment) so each CI leg explores a different — but still fully
#: deterministic — fault sequence.
AMBIENT_SEED = int(os.environ.get("REPRO_FAULTS_SEED", "0") or "0")


class _StrCache(JsonDiskCache):
    """Minimal concrete cache for exercising the disk tiers directly."""

    def _check_value(self, value):
        pass

    def _serialize(self, value):
        return {"value": value}

    def _deserialize(self, data):
        return data["value"]


# ------------------------------------------------------------------ parsing


class TestSpecParsing:
    def test_three_trigger_forms_round_trip(self):
        always = FaultSpec.parse("cache.sqlite.write:busy")
        nth = FaultSpec.parse("cache.sqlite.read:eio@3")
        bernoulli = FaultSpec.parse("cache.sqlite.read:corrupt@0.25")
        assert (always.at, always.probability) == (None, None)
        assert (nth.at, nth.probability) == (3, None)
        assert (bernoulli.at, bernoulli.probability) == (None, 0.25)
        for spec in (always, nth, bernoulli):
            assert FaultSpec.parse(str(spec)) == spec

    def test_schedule_splits_and_skips_blanks(self):
        specs = parse_schedule("a.b:x@1; ;c.d:y@0.5;")
        assert [str(spec) for spec in specs] == ["a.b:x@1", "c.d:y@0.5"]

    @pytest.mark.parametrize(
        "text",
        [
            "no-colon",
            "point:",
            ":mode",
            "UPPER.case:mode",
            "point:bad mode",
            "point:mode@0",
            "point:mode@1.5",
            "point:mode@-0.1",
            "point:mode@banana",
        ],
    )
    def test_malformed_specs_raise_typed_error(self, text):
        with pytest.raises(FaultInjectionError):
            FaultSpec.parse(text)

    def test_env_schedule(self, monkeypatch):
        assert schedule_from_env({}) is None
        assert schedule_from_env({"REPRO_FAULTS": "  "}) is None
        schedule = schedule_from_env(
            {"REPRO_FAULTS": "cache.sqlite.write:busy@2", "REPRO_FAULTS_SEED": "7"}
        )
        assert schedule.seed == 7
        assert [str(spec) for spec in schedule.specs] == ["cache.sqlite.write:busy@2"]
        with pytest.raises(FaultInjectionError):
            schedule_from_env(
                {"REPRO_FAULTS": "a.b:x", "REPRO_FAULTS_SEED": "not-an-int"}
            )

    def test_unknown_mode_raises_at_trigger(self):
        schedule = FaultSchedule(parse_schedule("cache.sqlite.read:nosuchmode"))
        with pytest.raises(FaultInjectionError, match="nosuchmode"):
            schedule.hit("cache.sqlite.read")


# ------------------------------------------------------------------- replay


class TestReplayDeterminism:
    @pytest.fixture(autouse=True)
    def _demo_point(self):
        # A mode that only records (builder returns no exception), so the
        # fired log can be compared over hundreds of invocations.
        register_fault_modes("demo.replay", {"record": lambda: None})

    def _drive(self, seed: int, hits: int = 200) -> "list[dict]":
        schedule = FaultSchedule(parse_schedule("demo.replay:record@0.3"), seed=seed)
        for _ in range(hits):
            schedule.hit("demo.replay")
        return schedule.fired

    def test_same_seed_replays_bit_for_bit(self):
        first, second = self._drive(seed=7), self._drive(seed=7)
        assert first == second
        assert first  # the schedule actually fired
        assert all(
            set(entry) == {"point", "mode", "invocation"} for entry in first
        )

    def test_different_seed_changes_the_sequence(self):
        assert self._drive(seed=7) != self._drive(seed=8)

    def test_nth_invocation_fires_exactly_once(self):
        schedule = FaultSchedule(parse_schedule("demo.replay:record@5"))
        for _ in range(20):
            schedule.hit("demo.replay")
        assert schedule.fired == [
            {"point": "demo.replay", "mode": "record", "invocation": 5}
        ]
        assert schedule.hits("demo.replay") == 20

    @pytest.mark.parametrize("nth", [1, 2, 7])
    def test_nth_invocation_fires_once_across_threads(self, nth):
        """Every thread of a pool shares the one process-wide count, so an
        ``@N`` schedule fires exactly once, on the N-th hit overall."""
        schedule = FaultSchedule(parse_schedule(f"demo.replay:record@{nth}"))
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            for _ in range(25):
                schedule.hit("demo.replay")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert schedule.fired == [
            {"point": "demo.replay", "mode": "record", "invocation": nth}
        ]
        assert schedule.hits("demo.replay") == 100

    def test_describe_reports_schedule_state(self):
        schedule = FaultSchedule(parse_schedule("demo.replay:record@1"), seed=3)
        schedule.hit("demo.replay")
        doc = schedule.describe()
        assert doc["seed"] == 3
        assert doc["specs"] == ["demo.replay:record@1"]
        assert doc["hits"] == {"demo.replay": 1}
        assert len(doc["fired"]) == 1


class TestActivation:
    def test_inactive_point_is_a_no_op(self):
        uninstall_schedule()
        fault_point("cache.sqlite.write")  # must not raise

    def test_reset_resolves_from_environment(self, monkeypatch):
        register_fault_modes("demo.env", {"boom": lambda: InjectedFaultError("boom")})
        monkeypatch.setenv("REPRO_FAULTS", "demo.env:boom@1")
        faults.reset()
        with pytest.raises(InjectedFaultError):
            fault_point("demo.env")
        fault_point("demo.env")  # @1 fired; second invocation passes

    def test_uninstall_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "demo.env:boom@1")
        uninstall_schedule()
        fault_point("demo.env")  # must not raise


# ----------------------------------------------------------- cache resilience


@pytest.fixture
def fast_retry():
    return RetryPolicy(attempts=3, base_delay_s=0.0005, max_delay_s=0.002)


class TestSqliteResilience:
    def test_busy_write_is_retried_and_counted(self, tmp_path, fast_retry):
        _install("cache.sqlite.write:busy@1")
        store = SqliteStore(tmp_path, retry=fast_retry)
        store.put("k", '{"v": 1}')
        assert store.get("k") == '{"v": 1}'
        assert store.counters.retries == 1
        assert store.counters.backoff_s > 0
        store.close()

    def test_busy_exhaustion_surfaces_as_oserror(self, tmp_path, fast_retry):
        _install("cache.sqlite.write:busy")  # every invocation
        store = SqliteStore(tmp_path, retry=fast_retry)
        with pytest.raises(OSError, match="busy|locked"):
            store.put("k", "{}")
        assert store.counters.retries == fast_retry.attempts
        uninstall_schedule()
        store.put("k", "{}")  # the store stays usable once the fault clears
        store.close()

    def test_injected_corruption_quarantines_and_rebuilds(self, tmp_path, fast_retry):
        store = SqliteStore(tmp_path, retry=fast_retry)
        store.put("k", '{"v": 1}')
        _install("cache.sqlite.read:corrupt@1")
        # The read that trips corruption comes back empty (the database was
        # quarantined and rebuilt), never wrong and never an exception.
        assert store.get("k") is None
        assert store.counters.quarantines == 1
        quarantined = list(tmp_path.glob(f"{DB_FILENAME}.corrupt.*"))
        assert len(quarantined) == 1
        store.put("k2", '{"v": 2}')  # the rebuilt database works
        assert store.get("k2") == '{"v": 2}'
        store.close()

    def test_real_corruption_on_open_quarantines(self, tmp_path, fast_retry):
        store = SqliteStore(tmp_path, retry=fast_retry)
        store.put("k", "{}")
        store.close()
        (tmp_path / DB_FILENAME).write_bytes(b"this is not a database file")
        counters = ResilienceStats()
        reopened = SqliteStore(tmp_path, retry=fast_retry, counters=counters)
        assert counters.quarantines == 1
        assert len(reopened) == 0
        reopened.put("k", "{}")
        assert reopened.get("k") == "{}"
        reopened.close()


class TestMemoryOnlyDegradation:
    def test_sqlite_enospc_degrades_sticky_and_correct(self, tmp_path):
        _install("cache.sqlite.write:full@1")
        cache = _StrCache(disk_dir=tmp_path)
        cache.put("k", "v")
        assert cache.resilience.degraded
        assert cache.resilience.degraded_reason.startswith("memory-only:")
        assert cache.get("k") == "v"  # the memory tier still has the entry
        cache.put("k2", "v2")  # later puts keep working, memory-only
        assert cache.get("k2") == "v2"
        first_reason = cache.resilience.degraded_reason
        cache.resilience.degrade("a different reason")
        assert cache.resilience.degraded_reason == first_reason  # sticky

    def test_readonly_fs_degrades(self, tmp_path):
        _install("cache.sqlite.write:readonly@1")  # EROFS
        cache = _StrCache(disk_dir=tmp_path)
        cache.put("k", "v")
        assert cache.resilience.degraded
        assert "Read-only file system" in cache.resilience.degraded_reason
        assert cache.get("k") == "v"

    def test_enospc_inside_a_pool_degrades_and_stays_correct(
        self, quiet_config, tmp_path, backend
    ):
        """The activity tier is written from inside the pool's tasks; a
        full disk there turns the tier memory-only, loudly, and the sweep's
        answers do not change."""
        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
            "sparsity",
            [0.0, 0.5, 1.0],
        )
        baseline = [
            r.as_dict()
            for r in run_configs(configs, workers=1, cache=None, activity_cache=None)
        ]
        activity = ActivityCache(disk_dir=tmp_path)
        _install("cache.sqlite.write:full@1")
        results = run_configs(
            configs, workers=2, backend=backend, cache=None, activity_cache=activity
        )
        assert [r.as_dict() for r in results] == baseline
        assert activity.resilience.degraded
        assert activity.resilience.degraded_reason.startswith("memory-only:")

    def test_per_entry_read_error_does_not_degrade(self, tmp_path):
        cache = _StrCache(disk_dir=tmp_path)
        cache.put("k", "v")
        _install("cache.sqlite.read:eio")  # EIO on every read
        fresh = _StrCache(disk_dir=tmp_path)
        assert fresh.get("k") is None  # unreadable entry is a miss...
        assert not fresh.resilience.degraded  # ...not a dead tier
        assert fresh.stats.disk_errors == 1


# ----------------------------------------------------------- serve resilience


def _service(config=None, compute=None) -> EstimationService:
    return EstimationService(
        config,
        cache=None,
        activity_cache=None,
        compute=compute,
    )


class TestServeResilience:
    def test_deadline_maps_to_typed_timeout(self, quiet_config):
        def slow_compute(configs, **kwargs):
            time.sleep(0.4)
            return run_configs(configs, **kwargs)

        service = _service(
            ServiceConfig(timeout_s=0.05), compute=slow_compute
        )

        async def scenario():
            try:
                with pytest.raises(ServiceTimeoutError, match="deadline"):
                    await service.submit(quiet_config())
                # The shielded computation keeps running; let it publish so
                # the in-flight future resolves before the service closes.
                await asyncio.sleep(0.6)
            finally:
                await service.close()

        asyncio.run(scenario())
        assert service.stats.timeouts == 1

    def test_injected_batch_fault_is_isolated(self, quiet_config):
        # serve.batch:error@1 poisons exactly the first (two-config) batch;
        # isolation re-runs each config alone and both succeed.
        _install("serve.batch:error@1")
        config_a, config_b = quiet_config(), quiet_config(seeds=2)
        service = _service()

        async def scenario():
            try:
                return await asyncio.gather(
                    service.submit(config_a), service.submit(config_b)
                )
            finally:
                await service.close()

        result_a, result_b = asyncio.run(scenario())
        assert service.stats.isolated_retries == 2
        assert service.stats.errors == 0
        assert result_a.as_dict() == run_experiment(config_a, cache=None).as_dict()
        assert result_b.as_dict() == run_experiment(config_b, cache=None).as_dict()

    def test_single_config_batch_fault_fails_typed_then_recovers(self, quiet_config):
        _install("serve.batch:error@1")
        config = quiet_config()
        service = _service()

        async def scenario():
            try:
                with pytest.raises(InjectedFaultError):
                    await service.submit(config)
                return await service.submit(config)  # invocation 2: no fault
            finally:
                await service.close()

        result = asyncio.run(scenario())
        assert service.stats.errors == 1
        assert result.as_dict() == run_experiment(config, cache=None).as_dict()

    def test_health_reports_degraded_cache_tier(self, tmp_path):
        cache = ExperimentCache(disk_dir=tmp_path)
        cache.resilience.degrade("memory-only: injected for test")
        service = _service()
        service._cache = cache
        health = service.health()
        assert health["status"] == "degraded"
        assert any(
            reason.startswith("cache.experiment:") for reason in health["reasons"]
        )
        asyncio.run(service.close())


# ------------------------------------------------------- end-to-end schedules


#: Schedules CI sweeps under two fixed seeds; every one must leave sweep
#: results identical to the fault-free baseline (cache faults degrade the
#: cache, never the answers).
CHAOS_SCHEDULES = [
    "cache.sqlite.write:busy@0.5",
    "cache.sqlite.read:busy@0.5;cache.sqlite.write:busy@0.25",
    "cache.sqlite.read:corrupt@2",
    "cache.sqlite.write:full@1",
]


class TestChaosSchedules:
    def _check(
        self, schedule_text, seed, quiet_config, tmp_path, monkeypatch,
        activity=None, **pool,
    ):
        # Keep injected busy-retry backoff fast.
        monkeypatch.setenv("REPRO_CACHE_RETRIES", "3")
        monkeypatch.setenv("REPRO_CACHE_BACKOFF_MS", "1")
        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32),
            "sparsity",
            [0.0, 0.5],
        )
        baseline = [
            r.as_dict()
            for r in run_configs(configs, workers=1, cache=None, activity_cache=None)
        ]
        cache = ExperimentCache(disk_dir=tmp_path / "tier")
        _install(schedule_text, seed=seed)
        try:
            chaotic = [
                r.as_dict()
                for r in run_configs(configs, cache=cache, activity_cache=activity, **pool)
            ]
        except ReproError:
            return  # a typed failure is an accepted outcome; wrong data is not
        assert chaotic == baseline
        if "full@1" in schedule_text:
            tiers = [cache] if activity is None else [cache, activity]
            assert any(tier.resilience.degraded for tier in tiers)  # loud, never silent

    @pytest.mark.parametrize("schedule_text", CHAOS_SCHEDULES)
    @pytest.mark.parametrize("seed", [AMBIENT_SEED, AMBIENT_SEED + 1])
    def test_results_identical_or_typed_error(
        self, schedule_text, seed, quiet_config, tmp_path, monkeypatch
    ):
        self._check(schedule_text, seed, quiet_config, tmp_path, monkeypatch, workers=1)

    @pytest.mark.parametrize("schedule_text", CHAOS_SCHEDULES)
    @pytest.mark.parametrize("seed", [AMBIENT_SEED, AMBIENT_SEED + 1])
    def test_thread_pool_results_identical_or_typed_error(
        self, schedule_text, seed, quiet_config, tmp_path, monkeypatch
    ):
        """The same schedules with the sweep on a two-thread pool and a disk
        activity tier, which the pool's tasks consult: their hits interleave
        on the one schedule, and the answers must still not change."""
        self._check(
            schedule_text, seed, quiet_config, tmp_path, monkeypatch,
            activity=ActivityCache(disk_dir=tmp_path / "activity"),
            workers=2, backend="threads",
        )

    def test_replayed_schedule_reproduces_the_fault_log(
        self, quiet_config, tmp_path, monkeypatch
    ):
        """The marquee replay guarantee: same REPRO_FAULTS + seed over the
        same workload → the same injected-fault sequence, run after run."""
        monkeypatch.setenv("REPRO_CACHE_RETRIES", "3")
        monkeypatch.setenv("REPRO_CACHE_BACKOFF_MS", "1")
        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32),
            "sparsity",
            [0.0, 0.5],
        )
        logs = []
        for attempt in range(2):
            cache = ExperimentCache(disk_dir=tmp_path / f"run{attempt}")
            schedule = _install("cache.sqlite.write:busy@0.5", seed=11)
            run_configs(configs, workers=1, cache=cache, activity_cache=None)
            logs.append(schedule.fired)
            uninstall_schedule()
        assert logs[0] == logs[1]
        assert logs[0]  # the schedule fired at least once
