"""Determinism, golden replay, cache collapse and serve replay for repro.fleet.

The replay contract (ISSUE satellite 2-4):

* same trace + same ``REPRO_FLEET_SEED`` ⇒ bit-for-bit identical power
  series whichever execution backend resolves the estimates;
* the golden trace under ``tests/data/`` reproduces its checked-in summary
  *exactly* (the CLI ``--expect`` path CI runs, and the API path here);
* a trace scheduling tens of thousands of kernels over a small workload
  catalogue runs the estimation engine at most once per distinct activity
  fingerprint — observed through the live default-cache counters — and
  keeps doing so under injected cache faults;
* replaying a trace through the serving layer coalesces duplicate
  workloads and moves the cache-tier counters.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.activity.sampler import SamplingConfig
from repro.cache.store import ActivityCache, ExperimentCache
from repro.errors import ExperimentError
from repro.experiments.sweep import RunStats
from repro.fleet import FleetSpec, CapEvent, Trace, TraceJob, WorkloadSpec, generate_trace, simulate
from repro.fleet.__main__ import main as fleet_main
from repro.telemetry.sampler import TelemetryConfig

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_TRACE = DATA_DIR / "fleet_golden_trace.json"
GOLDEN_SUMMARY = DATA_DIR / "fleet_golden_summary.json"

#: Quiet, small estimation overrides: trends are irrelevant here, speed and
#: determinism are what matters.
QUIET = {
    "telemetry": TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0),
    "sampling": SamplingConfig(output_samples=64),
    "iterations": 200,
}


@pytest.fixture
def fresh_default_caches(monkeypatch):
    """Fresh in-memory default cache tiers, fully restored afterwards."""
    import repro.cache.store as store

    saved = (
        store._default_cache,
        store._default_initialized,
        store._default_activity_cache,
        store._default_activity_initialized,
        store._auto_pruned,
    )
    store.set_default_cache(ExperimentCache())
    store.set_default_activity_cache(ActivityCache())
    store._auto_pruned = True
    yield store
    (
        store._default_cache,
        store._default_initialized,
        store._default_activity_cache,
        store._default_activity_initialized,
        store._auto_pruned,
    ) = saved


def comparable(result) -> "dict":
    """Everything that must be bit-for-bit equal across backends.

    ``run_stats`` legitimately differs (backend name, timings); every
    other field — including the full per-tenant float series — must not.
    """
    payload = result.as_dict()
    payload.pop("run_stats")
    return payload


class TestBackendDeterminism:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace("mixed", ticks=5, seed=99, distinct_workloads=6)

    def test_bit_for_bit_across_backends(self, trace):
        fleet = FleetSpec.from_counts(
            {"a100": 3}, cap_events=[CapEvent(tick=2, cap_watts=58.0)]
        )
        reference = comparable(
            simulate(
                trace, fleet, workers=1, cache=None, activity_cache=None,
                estimation_overrides=QUIET,
            )
        )
        candidate = comparable(
            simulate(
                trace,
                fleet,
                workers=2,
                backend="threads",
                cache=None,
                activity_cache=None,
                estimation_overrides=QUIET,
            )
        )
        assert candidate == reference, "threads diverged from serial"

    def test_removed_process_backend_is_rejected(self, trace):
        with pytest.raises(ExperimentError, match="got 'processes'"):
            simulate(
                trace, FleetSpec.from_counts({"a100": 2}), workers=2, backend="processes",
                cache=None, activity_cache=None, estimation_overrides=QUIET,
            )

    def test_fleet_seed_env_replays_the_generator(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SEED", "777")
        first = generate_trace("diurnal", ticks=6)
        second = generate_trace("diurnal", ticks=6)
        assert first.as_dict() == second.as_dict()
        monkeypatch.setenv("REPRO_FLEET_SEED", "778")
        assert generate_trace("diurnal", ticks=6).as_dict() != first.as_dict()


class TestGoldenReplay:
    def test_golden_files_exist(self):
        assert GOLDEN_TRACE.exists()
        assert GOLDEN_SUMMARY.exists()

    def test_api_replay_matches_golden_summary_exactly(self):
        trace = Trace.load(GOLDEN_TRACE)
        fleet = FleetSpec.from_counts(
            {"a100": 2}, cap_events=[CapEvent(tick=2, cap_watts=58.0)]
        )
        result = simulate(trace, fleet, cache=None, activity_cache=None)
        golden = json.loads(GOLDEN_SUMMARY.read_text())
        assert result.summary() == golden

    def test_cli_expect_replay(self, capsys):
        code = fleet_main(
            [
                "simulate",
                str(GOLDEN_TRACE),
                "--gpus",
                "a100:2",
                "--cap-at",
                "2:58",
                "--expect",
                str(GOLDEN_SUMMARY),
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "replay OK" in captured.out

    def test_result_round_trips_through_json(self, tmp_path):
        trace = Trace.load(GOLDEN_TRACE)
        fleet = FleetSpec.from_counts({"a100": 2})
        result = simulate(
            trace, fleet, cache=None, activity_cache=None,
            estimation_overrides=QUIET,
        )
        path = result.save_json(tmp_path / "result.json")
        from repro.fleet import FleetResult

        loaded = FleetResult.load(path)
        assert loaded.summary() == result.summary()
        assert loaded.power_series_watts() == result.power_series_watts()
        assert loaded.tenant_energy_j() == result.tenant_energy_j()


class TestCacheCollapse:
    @pytest.fixture
    def big_trace(self):
        trace = generate_trace(
            "mixed", ticks=10, seed=4, distinct_workloads=8, kernels_per_job=400
        )
        assert trace.total_kernels >= 10_000
        assert len(trace.workloads) <= 64
        return trace

    def test_engine_runs_at_most_once_per_activity_fingerprint(
        self, big_trace, fresh_default_caches
    ):
        store = fresh_default_caches
        fleet = FleetSpec.from_counts({"a100": 4})
        stats = RunStats()
        result = simulate(
            big_trace, fleet, stats=stats, estimation_overrides=QUIET
        )
        used = len(big_trace.used_workloads())
        # Cold run: every used workload is estimated exactly once per GPU
        # model (one model here), never once per scheduled kernel.
        assert result.scheduled_kernels >= 10_000
        assert stats.executed == used
        tiers = store.peek_default_caches()
        activity_stats = tiers["activity"].stats
        # seeds=1 and one GPU model: one activity fingerprint per workload.
        assert activity_stats.puts == used
        assert activity_stats.misses == used

        # Warm run: the engine is not touched at all.
        warm_stats = RunStats()
        warm = simulate(
            big_trace, fleet, stats=warm_stats, estimation_overrides=QUIET
        )
        assert warm_stats.executed == 0
        assert warm_stats.cache_hits == used
        assert tiers["experiment"].stats.hits >= used
        assert comparable(warm) == comparable(result)

    @pytest.mark.parametrize("faults_seed", ["0", "20240817"])
    def test_collapse_survives_injected_cache_faults(
        self, big_trace, tmp_path, monkeypatch, faults_seed
    ):
        import repro.faults as faults

        fleet = FleetSpec.from_counts({"a100": 2})
        reference = comparable(
            simulate(
                big_trace, fleet, cache=None, activity_cache=None,
                estimation_overrides=QUIET,
            )
        )
        cache = ExperimentCache(disk_dir=tmp_path / "exp")
        activity_cache = ActivityCache(disk_dir=tmp_path / "act")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "cache.sqlite.read:busy@0.3;cache.sqlite.write:busy@0.3",
        )
        monkeypatch.setenv("REPRO_FAULTS_SEED", faults_seed)
        faults.reset()
        try:
            stats = RunStats()
            survived = comparable(
                simulate(
                    big_trace,
                    fleet,
                    cache=cache,
                    activity_cache=activity_cache,
                    stats=stats,
                    estimation_overrides=QUIET,
                )
            )
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_FAULTS_SEED")
            faults.reset()
        assert survived == reference
        # Faults degrade the disk tier, never the collapse: still one
        # engine run per used workload.
        assert stats.executed == len(big_trace.used_workloads())


class TestServeReplay:
    def test_replay_coalesces_and_moves_cache_counters(self, fresh_default_caches):
        from repro.serve import EstimationService, replay_trace

        store = fresh_default_caches
        workloads = {
            "w1": WorkloadSpec(matrix_size=128, iterations=200),
            "w2": WorkloadSpec(dtype="fp32", matrix_size=128, iterations=200),
        }
        jobs = tuple(
            TraceJob(arrival_tick=t, tenant="t", workload=w)
            for t in range(4)
            for w in ("w1", "w2")
        )
        trace = Trace(name="serve-replay", tick_s=1.0, workloads=workloads, jobs=jobs)

        async def scenario():
            service = EstimationService()
            try:
                return await replay_trace(
                    service, trace, estimation_overrides=QUIET
                )
            finally:
                await service.close()

        report = asyncio.run(scenario())
        assert report.requests == 8
        assert report.distinct_configs == 2
        # 8 concurrent requests over 2 distinct configs: at least one
        # duplicate joined an in-flight computation.
        assert report.coalesced >= 1
        assert set(report.results) == {"w1", "w2"}
        tiers = store.peek_default_caches()
        assert tiers["experiment"].stats.puts >= 2
        assert tiers["activity"].stats.puts >= 2

    def test_replay_respects_limit_and_empty_trace(self, fresh_default_caches):
        from repro.serve import EstimationService, replay_trace

        workloads = {"w1": WorkloadSpec(matrix_size=128, iterations=200)}
        jobs = tuple(
            TraceJob(arrival_tick=t, tenant="t", workload="w1") for t in range(5)
        )
        trace = Trace(name="limited", tick_s=1.0, workloads=workloads, jobs=jobs)
        empty = Trace(name="empty", tick_s=1.0, workloads=workloads, jobs=())

        async def scenario():
            service = EstimationService()
            try:
                limited = await replay_trace(
                    service, trace, limit=2, estimation_overrides=QUIET
                )
                nothing = await replay_trace(service, empty)
            finally:
                await service.close()
            return limited, nothing

        limited, nothing = asyncio.run(scenario())
        assert limited.requests == 2
        assert nothing.requests == 0
        assert nothing.results == {}
