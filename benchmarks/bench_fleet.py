"""Fleet-simulation benchmarks (pytest-benchmark): cold vs warm replay.

The fleet simulator's performance contract is cache collapse: a
100k-kernel trace over a 256-GPU fleet costs one engine run per distinct
(workload, GPU model) pair cold, and *zero* engine runs warm — the warm
path is pure scheduling and attribution arithmetic.  These benchmarks
time both phases so a regression that re-couples simulation cost to the
scheduled-kernel count (instead of the workload-catalogue size) is
caught as a timing cliff, not discovered in production.

``REPRO_FLEET_BENCH_GPUS`` scales the fleet (default 256); CI's
bench-smoke job runs with few rounds and records timings for the
artifact-diff step.
"""

from __future__ import annotations

from repro import env
from repro.activity.sampler import SamplingConfig
from repro.cache.store import ActivityCache, ExperimentCache
from repro.experiments.sweep import RunStats
from repro.fleet import FleetSpec, generate_trace
from repro.fleet.simulator import simulate
from repro.telemetry.sampler import TelemetryConfig

GPUS = env.read("REPRO_FLEET_BENCH_GPUS")
#: Quiet, small estimation settings: the benchmark times the simulator,
#: not measurement fidelity.
QUIET = {
    "telemetry": TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0),
    "sampling": SamplingConfig(output_samples=64),
    "iterations": 200,
}


def _trace_100k():
    """~100k+ scheduled kernels over a small mixed-workload catalogue."""
    trace = generate_trace(
        "mixed", ticks=32, seed=7, distinct_workloads=8, kernels_per_job=1_000
    )
    assert trace.total_kernels >= 100_000
    return trace


def _fresh_caches():
    return {
        "cache": ExperimentCache(),
        "activity_cache": ActivityCache(),
    }


def bench_fleet_simulate_cold(benchmark):
    """Cold simulation: every distinct workload goes through the engine."""
    trace = _trace_100k()
    fleet = FleetSpec.from_counts({"a100": GPUS})

    def run():
        return simulate(
            trace, fleet, estimation_overrides=QUIET, **_fresh_caches()
        )

    result = benchmark(run)
    assert result.scheduled_kernels >= 100_000
    assert len(fleet) == GPUS


def bench_fleet_simulate_warm(benchmark):
    """Warm simulation: zero engine runs, pure scheduling + attribution."""
    trace = _trace_100k()
    fleet = FleetSpec.from_counts({"a100": GPUS})
    caches = _fresh_caches()
    simulate(trace, fleet, estimation_overrides=QUIET, **caches)  # prime

    def run():
        stats = RunStats()
        return simulate(
            trace, fleet, stats=stats, estimation_overrides=QUIET, **caches
        ), stats

    result, stats = benchmark(run)
    assert stats.executed == 0, "warm simulation must not touch the engine"
    assert result.scheduled_kernels >= 100_000


def bench_fleet_schedule_only(benchmark):
    """Scheduler + attribution in isolation on a pre-built estimate set."""
    from repro.fleet import DiscreteTimeScheduler, attribute_energy
    from repro.fleet.simulator import build_estimates

    trace = _trace_100k()
    fleet = FleetSpec.from_counts({"a100": GPUS})
    caches = _fresh_caches()
    estimates = build_estimates(
        trace, fleet, estimation_overrides=QUIET, **caches
    )

    def run():
        schedule = DiscreteTimeScheduler(fleet).schedule(trace, estimates)
        return attribute_energy(schedule, fleet, trace.tick_s)

    attribution = benchmark(run)
    assert attribution.total_energy_j() > 0.0
