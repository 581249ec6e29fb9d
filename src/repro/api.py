"""The stable public façade of the repro library.

``repro.api`` is the one import that application code needs::

    from repro import api

    result = api.run_experiment(api.ExperimentConfig(matrix_size=1024))
    sweep = api.run_sweep(api.ExperimentConfig(), "sparsity", [0.0, 0.5, 0.9])
    api.serve(port=8035)          # estimation-as-a-service (repro.serve)

Everything exported here is covered by the deprecation policy: symbols
move out of this module only after a release in which they warn with a
``DeprecationWarning`` (the one such shim left is the removed plan tier's
``plan_cache=`` keyword, in ``repro._deprecated``).  The façade
functions mirror the underlying machinery with **keyword-only** tuning
arguments — positional call sites can never silently change meaning when
a knob is added — and are thin enough that going through them costs one
function call.

The deeper modules (``repro.experiments``, ``repro.cache``,
``repro.core``, ``repro.serve``) remain importable for power users;
their internals may move between minor versions, the façade's will not.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.cache.store import (
    DEFAULT_CACHE,
    ActivityCache,
    ExperimentCache,
    get_default_activity_cache,
    get_default_cache,
    peek_default_caches,
)
from repro.core import estimate_experiment
from repro._deprecated import ignore_plan_cache
from repro.errors import ReproError
from repro.experiments import harness as _harness
from repro.experiments import sweep as _sweep
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, SweepResult
from repro.experiments.sweep import RunStats
from repro.fleet.scheduler import CapEvent, FleetSpec
from repro.fleet.simulator import FleetResult
from repro.fleet.simulator import simulate as _fleet_simulate
from repro.fleet.trace import Trace, generate_trace
from repro.optimize.engines import OptimizationResult
from repro.optimize.engines import run_study as _run_study
from repro.serve.server import serve
from repro.serve.service import ServiceConfig

__all__ = [
    # entry points
    "run_experiment",
    "run_configs",
    "run_sweep",
    "estimate_experiment",
    "serve",
    # optimization studies (repro.optimize.engines)
    "optimize",
    "OptimizationResult",
    # fleet-scale simulation (repro.fleet)
    "simulate_fleet",
    "generate_trace",
    "Trace",
    "FleetSpec",
    "CapEvent",
    "FleetResult",
    # configuration / results
    "ExperimentConfig",
    "ExperimentResult",
    "SweepResult",
    "RunStats",
    "ServiceConfig",
    "ReproError",
    # cache handles
    "DEFAULT_CACHE",
    "ExperimentCache",
    "ActivityCache",
    "default_caches",
    "get_default_cache",
    "get_default_activity_cache",
]


def run_experiment(
    config: ExperimentConfig,
    *,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
) -> ExperimentResult:
    """Measure one configuration, serving repeats from the result cache.

    Façade over :func:`repro.experiments.harness.run_experiment` with the
    cache knobs keyword-only; see there for cache-argument semantics
    (explicit instance / ``None`` / default sentinel).
    """
    ignore_plan_cache(plan_cache)
    return _harness.run_experiment(config, cache=cache, activity_cache=activity_cache)


def run_configs(
    configs: Iterable[ExperimentConfig],
    *,
    workers: int = 1,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    dedupe: bool = True,
    progress: "Any | None" = None,
    stats: "RunStats | None" = None,
    backend: str = "auto",
) -> list[ExperimentResult]:
    """Measure a batch of configurations, optionally across a worker pool.

    Façade over :func:`repro.experiments.sweep.run_configs` with every
    tuning argument keyword-only.  ``plan_cache`` is deprecated and
    ignored.
    """
    ignore_plan_cache(plan_cache)
    return _sweep.run_configs(
        configs,
        workers=workers,
        cache=cache,
        activity_cache=activity_cache,
        dedupe=dedupe,
        progress=progress,
        stats=stats,
        backend=backend,
    )


def run_sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[Any],
    *,
    target: str = "pattern",
    label: str = "",
    workers: int = 1,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    progress: "Any | None" = None,
    stats: "RunStats | None" = None,
    backend: str = "auto",
) -> SweepResult:
    """Sweep one parameter and collect the results.

    Façade over :func:`repro.experiments.sweep.run_sweep` with every
    tuning argument keyword-only.
    """
    ignore_plan_cache(plan_cache)
    return _sweep.run_sweep(
        base,
        parameter,
        values,
        target=target,
        label=label,
        workers=workers,
        cache=cache,
        activity_cache=activity_cache,
        progress=progress,
        stats=stats,
        backend=backend,
    )


def simulate_fleet(
    trace: Trace,
    fleet: FleetSpec,
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    stats: "RunStats | None" = None,
    estimation_overrides: "dict[str, Any] | None" = None,
) -> FleetResult:
    """Replay a datacenter trace against a modeled GPU fleet.

    Façade over :func:`repro.fleet.simulator.simulate` with every tuning
    argument keyword-only.  Estimation goes through :func:`run_configs`,
    so a warm simulation touches the engine zero times regardless of how
    many kernels the trace schedules.
    """
    ignore_plan_cache(plan_cache)
    return _fleet_simulate(
        trace,
        fleet,
        workers=workers,
        backend=backend,
        cache=cache,
        activity_cache=activity_cache,
        stats=stats,
        estimation_overrides=estimation_overrides,
    )


def optimize(
    study: "Any",
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    max_evaluations: "int | None" = None,
    checkpoint_path: "Any | None" = None,
) -> OptimizationResult:
    """Run an optimization study (path or mapping) to convergence.

    Façade over :func:`repro.optimize.engines.run_study` with every tuning
    argument keyword-only.  Each engine proposal is evaluated through
    :func:`run_configs`, so re-running a deterministic study against warm
    caches touches the estimation engine zero times; the returned
    :class:`OptimizationResult` records the replayable trajectory (see
    ``python -m repro.optimize`` for the CLI and ``--expect`` replay
    checks).
    """
    ignore_plan_cache(plan_cache)
    return _run_study(
        study,
        workers=workers,
        backend=backend,
        cache=cache,
        activity_cache=activity_cache,
        max_evaluations=max_evaluations,
        checkpoint_path=checkpoint_path,
    )


def default_caches() -> "dict[str, Any]":
    """The default cache tiers this process has already created.

    A read-only live view (tier name → cache instance) for inspection and
    counter scraping; creating tiers on demand is the job of the
    ``get_default_*`` accessors.
    """
    return peek_default_caches()
