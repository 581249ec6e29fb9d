"""Optimization-study benchmarks (pytest-benchmark): cold vs warm replay.

The optimization runner's performance contract is the same cache collapse
the sweep and fleet layers enforce: a deterministic study proposes the
identical point sequence on every run, so the *second* run of a study
against warm caches must execute **zero** engine runs — the warm path is
pure engine arithmetic plus cache lookups.  These benchmarks time both
phases and assert the collapse, so a regression that re-couples study
cost to the evaluation count (instead of the distinct-configuration
count) is caught as a timing cliff, not discovered in production.

CI's bench-smoke job runs this module with few rounds and records the
timings for the artifact-diff step (``scripts/bench_compare.py``).
"""

from __future__ import annotations

from repro.cache.store import ActivityCache, ExperimentCache
from repro.optimize.engines import build_runner

#: Quiet, small estimation settings: the benchmark times the optimization
#: machinery, not measurement fidelity.
_BASE_CONFIG = {
    "pattern_family": "sparsity",
    "pattern_params": {"sparsity": 0.0},
    "matrix_size": 128,
    "seeds": 1,
    "iterations": 200,
    "sampling": {"output_samples": 64},
    "telemetry": {"noise_std_watts": 0.0, "drift_watts": 0.0},
}

STUDY = {
    "format": "repro.optimize.study/v1",
    "engine": "nelder_mead",
    "engine_params": {"seed": 0, "max_iterations": 12},
    "space": [{"name": "sparsity", "low": 0.0, "high": 0.95}],
    "base_config": _BASE_CONFIG,
    "objective": {"metric": "mean_power_watts", "mode": "min"},
}


def _fresh_caches():
    return {
        "cache": ExperimentCache(),
        "activity_cache": ActivityCache(),
    }


def bench_optimize_cold(benchmark):
    """Cold study: every distinct proposal goes through the engine."""

    def run():
        return build_runner(STUDY, **_fresh_caches()).run()

    result = benchmark(run)
    assert result.converged
    assert result.engine_runs > 0, "a cold study must execute engine runs"
    assert result.best_point is not None


def bench_optimize_warm(benchmark):
    """Warm replay: zero engine runs, pure engine + cache arithmetic."""
    caches = _fresh_caches()
    cold = build_runner(STUDY, **caches).run()  # prime the tiers

    def run():
        return build_runner(STUDY, **caches).run()

    result = benchmark(run)
    assert result.engine_runs == 0, "a warm replay must not touch the engine"
    assert result.summary() == cold.summary(), "replay must be deterministic"
