"""The fleet simulator: compose per-kernel estimates into cluster series.

:func:`simulate` is the heart of :mod:`repro.fleet`.  It runs in three
strictly separated phases so every phase's determinism argument is local:

1. **Estimate.**  The trace's used workloads × the fleet's distinct GPU
   models become :class:`~repro.experiments.config.ExperimentConfig`\\ s and
   resolve through :func:`~repro.experiments.sweep.run_configs` — the
   cached estimation engine with both tiers (result and per-seed
   activity) and both execution backends.  However many million
   kernels the trace schedules, this phase issues at most one engine run
   per distinct fingerprint; a warm simulation issues none.
2. **Schedule.**  :class:`~repro.fleet.scheduler.DiscreteTimeScheduler`
   places jobs FIFO onto the earliest-free GPU, resolving per-GPU power
   caps into DVFS clock scaling (lower power, stretched runtime) through
   the paper's :class:`~repro.gpu.clocks.ClockModel`.
3. **Attribute.**  :func:`~repro.fleet.attribution.attribute_energy` folds
   the placements into per-tenant power series whose sorted-order sum *is*
   the cluster series, making per-tenant energy conservation structural.

Because phase 1 is bit-for-bit identical across ``serial`` and ``threads``
(the repo's long-standing executor invariant) and phases 2–3
are pure deterministic Python/NumPy over phase 1's output, the whole
simulation replays bit-for-bit: same trace + same seed ⇒ the same power
and energy series on any backend at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import wire
from repro._deprecated import ignore_plan_cache
from repro.cache.store import DEFAULT_CACHE
from repro.errors import FleetError
from repro.experiments.results import ExperimentResult
from repro.experiments.sweep import RunStats, run_configs
from repro.fleet.attribution import EnergyAttribution, attribute_energy
from repro.fleet.scheduler import (
    DiscreteTimeScheduler,
    FleetSchedule,
    FleetSpec,
    KernelEstimate,
)
from repro.fleet.trace import Trace
from repro.gpu.specs import get_gpu_spec
from repro.util.stats import summarize
from repro.util.tables import format_series_chart, format_table

__all__ = ["RESULT_FORMAT", "FleetResult", "build_estimates", "simulate"]

#: Wire-format tag of :meth:`FleetResult.as_dict`; bump on layout change.
RESULT_FORMAT = "repro.fleet.result/v1"

#: Decimal places the replayable summary rounds floats to.  Fine enough
#: that nothing physical is lost, coarse enough that a 1-ulp libm
#: difference between platforms cannot flip a digit — which is what lets
#: the golden summary under ``tests/data/`` be diffed exactly.
SUMMARY_DECIMALS = 6


def _round(value: float) -> float:
    return round(float(value), SUMMARY_DECIMALS)


def _as_arrays(series: "dict[str, list[float]]") -> "dict[str, np.ndarray]":
    return {tenant: np.asarray(watts, dtype=np.float64) for tenant, watts in series.items()}


@dataclass
class FleetResult:
    """A simulated fleet run: the figure-style artifact of :mod:`repro.fleet`.

    Holds the cluster power series, the per-tenant attribution, and enough
    provenance (trace name/metadata, fleet shape, sweep-runner stats) to
    explain where every number came from.  Like
    :class:`~repro.experiments.results.FigureResult` it renders to tables
    and serializes to JSON (:meth:`as_dict` / :meth:`save_json`);
    :meth:`summary` is the deliberately small, float-rounded replay
    contract checked by the golden-trace test and ``--expect``.
    """

    trace_name: str
    tick_s: float
    horizon_ticks: int
    jobs: int
    scheduled_kernels: int
    distinct_configs: int
    throttled_jobs: int
    gpu_models: "dict[str, int]"
    attribution: EnergyAttribution
    run_stats: "dict[str, Any]" = field(default_factory=dict)
    metadata: "dict[str, Any]" = field(default_factory=dict)

    #: the wire form carries the attribution's per-tenant series (its tick
    #: and horizon are the result's own) and the derived summary
    _wire = wire.Wire(
        tag=("format", RESULT_FORMAT),
        tag_optional=True,
        keys={"attribution": "tenant_power_watts"},
        convert={"attribution": (dict[str, list[float]], _as_arrays)},
        ignore=frozenset({"summary"}),
    )

    # ------------------------------------------------------------ series

    def power_series_watts(self) -> "list[float]":
        """Cluster power per tick, watts (empty for an empty trace)."""
        return [float(v) for v in self.attribution.cluster_power_watts()]

    def energy_series_j(self) -> "list[float]":
        """Cluster energy per tick, joules."""
        return [p * self.tick_s for p in self.power_series_watts()]

    def tenant_energy_j(self) -> "dict[str, float]":
        return self.attribution.tenant_energy_j()

    @property
    def total_energy_j(self) -> float:
        return self.attribution.total_energy_j()

    @property
    def peak_power_watts(self) -> float:
        series = self.power_series_watts()
        return max(series) if series else 0.0

    @property
    def mean_power_watts(self) -> float:
        series = self.power_series_watts()
        return summarize(series).mean if series else 0.0

    # ------------------------------------------------------------ contract

    def summary(self) -> "dict[str, Any]":
        """The rounded, replayable headline numbers (golden-diff contract)."""
        return {
            "format": "repro.fleet.summary/v1",
            "trace": self.trace_name,
            "tick_s": _round(self.tick_s),
            "horizon_ticks": self.horizon_ticks,
            "jobs": self.jobs,
            "scheduled_kernels": self.scheduled_kernels,
            "distinct_configs": self.distinct_configs,
            "throttled_jobs": self.throttled_jobs,
            "gpu_models": dict(self.gpu_models),
            "peak_power_watts": _round(self.peak_power_watts),
            "mean_power_watts": _round(self.mean_power_watts),
            "total_energy_j": _round(self.total_energy_j),
            "tenant_energy_j": {
                tenant: _round(energy)
                for tenant, energy in sorted(self.tenant_energy_j().items())
            },
        }

    # ------------------------------------------------------------ rendering

    def render(self, chart: bool = True, max_rows: int = 12) -> str:
        """Human-readable tables (and optionally a power chart)."""
        blocks = [
            f"=== fleet simulation: {self.trace_name} "
            f"({sum(self.gpu_models.values())} GPUs, {self.scheduled_kernels} kernels) ==="
        ]
        tenant_rows = [
            [tenant, energy, 100.0 * energy / self.total_energy_j if self.total_energy_j else 0.0]
            for tenant, energy in sorted(self.tenant_energy_j().items())
        ]
        blocks.append(
            format_table(
                ["tenant", "energy_J", "share_%"],
                tenant_rows,
                precision=2,
                title="Per-tenant energy attribution",
            )
        )
        summary_rows = [
            ["horizon_ticks", self.horizon_ticks],
            ["tick_s", self.tick_s],
            ["jobs", self.jobs],
            ["throttled_jobs", self.throttled_jobs],
            ["distinct_configs", self.distinct_configs],
            ["peak_power_W", self.peak_power_watts],
            ["mean_power_W", self.mean_power_watts],
            ["total_energy_J", self.total_energy_j],
        ]
        blocks.append(format_table(["metric", "value"], summary_rows, precision=3))
        series = self.power_series_watts()
        if chart and series:
            step = max(1, len(series) // 64)
            xs = [float(t) for t in range(0, len(series), step)]
            ys = [series[int(x)] for x in xs]
            blocks.append(
                format_series_chart(xs, {"cluster_W": ys}, title="Cluster power over time")
            )
        return "\n".join(blocks)

    # ------------------------------------------------------------ wire form

    def as_dict(self) -> "dict[str, Any]":
        return {
            "format": RESULT_FORMAT,
            "trace_name": self.trace_name,
            "tick_s": self.tick_s,
            "horizon_ticks": self.horizon_ticks,
            "jobs": self.jobs,
            "scheduled_kernels": self.scheduled_kernels,
            "distinct_configs": self.distinct_configs,
            "throttled_jobs": self.throttled_jobs,
            "gpu_models": dict(self.gpu_models),
            "tenant_power_watts": self.attribution.as_dict()["tenant_power_watts"],
            "run_stats": dict(self.run_stats),
            "metadata": dict(self.metadata),
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetResult":
        data = wire.read(cls, payload, "fleet result", FleetError)
        data["attribution"] = EnergyAttribution(
            tick_s=data["tick_s"],
            horizon_ticks=data["horizon_ticks"],
            tenant_power_watts=data["attribution"],
        )
        return cls(**data)

    def save_json(self, path: "str | Path") -> Path:
        return wire.save_json(path, self.as_dict())

    @classmethod
    def load(cls, path: "str | Path") -> "FleetResult":
        return cls.from_dict(wire.load_json(path, "fleet result", FleetError))


def _estimate_from_result(
    workload: str, gpu_model: str, result: ExperimentResult
) -> KernelEstimate:
    """Fold one engine result into the scheduler's per-kernel numbers.

    The measured iteration time already includes whatever TDP throttle the
    measurement hit; multiplying it back by the measured clock scale
    recovers the boost-clock time, so the scheduler can re-throttle under
    an arbitrary fleet cap without double-counting the TDP.
    """
    measurements = result.measurements
    unconstrained = summarize(
        m.unconstrained_power_watts for m in measurements
    ).mean
    base_time = summarize(
        m.iteration_time_s * m.clock_scale for m in measurements
    ).mean
    return KernelEstimate(
        workload=workload,
        gpu_model=gpu_model,
        unconstrained_power_watts=unconstrained,
        base_iteration_time_s=base_time,
        spec=get_gpu_spec(gpu_model),
    )


def build_estimates(
    trace: Trace,
    fleet: FleetSpec,
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    stats: "RunStats | None" = None,
    estimation_overrides: "Mapping[str, Any] | None" = None,
) -> "dict[tuple[str, str], KernelEstimate]":
    """Resolve every (used workload, GPU model) pair through the engine.

    One :func:`run_configs` call covers the whole cross product, so the
    result/activity tiers and the chosen execution backend all apply; the
    returned mapping is what :class:`DiscreteTimeScheduler` consumes.
    ``plan_cache`` is deprecated and ignored.
    """
    ignore_plan_cache(plan_cache)
    used = trace.used_workloads()
    models = fleet.models()
    pairs = [(workload, model) for workload in used for model in models]
    overrides = dict(estimation_overrides or {})
    configs = [
        trace.workloads[workload].to_config(gpu=model, **overrides)
        for workload, model in pairs
    ]
    results = run_configs(
        configs,
        workers=workers,
        backend=backend,
        cache=cache,
        activity_cache=activity_cache,
        stats=stats,
    )
    return {
        pair: _estimate_from_result(pair[0], pair[1], result)
        for pair, result in zip(pairs, results)
    }


def simulate(
    trace: Trace,
    fleet: FleetSpec,
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    stats: "RunStats | None" = None,
    estimation_overrides: "Mapping[str, Any] | None" = None,
) -> FleetResult:
    """Simulate ``trace`` on ``fleet`` and return the :class:`FleetResult`.

    ``workers``/``backend``/cache knobs steer the estimation phase exactly
    like :func:`repro.api.run_configs`; ``estimation_overrides`` applies
    extra :class:`ExperimentConfig` field overrides to every workload
    (tests use it to pin quiet telemetry); ``stats`` lets callers keep the
    estimation-phase :class:`RunStats` accounting.  An empty trace produces
    a zero-length series without touching the engine at all.
    ``plan_cache`` is deprecated and ignored.
    """
    ignore_plan_cache(plan_cache)
    if stats is None:
        stats = RunStats()
    if trace.jobs:
        estimates = build_estimates(
            trace,
            fleet,
            workers=workers,
            backend=backend,
            cache=cache,
            activity_cache=activity_cache,
            stats=stats,
            estimation_overrides=estimation_overrides,
        )
    else:
        estimates = {}
    schedule: FleetSchedule = DiscreteTimeScheduler(fleet).schedule(trace, estimates)
    attribution = attribute_energy(schedule, fleet, trace.tick_s)
    return FleetResult(
        trace_name=trace.name,
        tick_s=trace.tick_s,
        horizon_ticks=schedule.horizon_ticks,
        jobs=len(trace.jobs),
        scheduled_kernels=trace.total_kernels,
        distinct_configs=len(estimates),
        throttled_jobs=schedule.throttled_jobs,
        gpu_models=fleet.model_counts(),
        attribution=attribution,
        run_stats=stats.as_dict(),
        metadata=dict(trace.metadata),
    )
