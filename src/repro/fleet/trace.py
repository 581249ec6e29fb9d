"""Fleet traces: the workload streams the datacenter simulator consumes.

A *trace* is a discrete-time stream of jobs: at ``arrival_tick`` a tenant
asks the fleet to run ``kernels`` back-to-back launches of one of the
trace's named *workloads* (a GEMM input pattern, dtype and matrix size —
exactly the axes the paper shows change power draw).  Traces are plain
data: they carry no GPU placement and no power numbers, so one trace can
be replayed against different fleets, GPU generations and cap policies
(the what-if axis of :mod:`repro.fleet.simulator`).

The JSON wire format (:meth:`Trace.as_dict` / :meth:`Trace.from_dict`)
decodes through :mod:`repro.wire`, like every other format: unknown or
ill-typed fields raise :class:`~repro.errors.FleetError` — a misspelled
knob must not silently simulate something else.

The generators in this module produce *synthetic* traces — diurnal LLM
inference, steady training-step streams, mixed multi-tenant estates — and
are fully seeded: the same ``(generator, parameters, seed)`` triple always
yields the identical trace, byte for byte, in any process on any platform
(seeds derive through :func:`repro.util.rng.derive_rng`, which hashes with
SHA-256 rather than ``hash()``).  When no explicit ``seed=`` is given they
fall back to ``REPRO_FLEET_SEED``, so a whole pipeline can be replayed by
exporting one variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro import env, wire
from repro.errors import FleetError
from repro.experiments.config import ExperimentConfig
from repro.util.rng import derive_rng

__all__ = [
    "TRACE_FORMAT",
    "WorkloadSpec",
    "TraceJob",
    "Trace",
    "default_fleet_seed",
    "generate_diurnal_trace",
    "generate_training_trace",
    "generate_mixed_trace",
    "GENERATORS",
    "generate_trace",
]

#: Wire-format tag checked by :meth:`Trace.from_dict`; bump on layout change.
TRACE_FORMAT = "repro.fleet.trace/v1"


def default_fleet_seed(environ: "Mapping[str, str] | None" = None) -> int:
    """The generator seed used when no explicit ``seed=`` is passed.

    Reads ``REPRO_FLEET_SEED`` (default ``0``) at call time — generators
    resolve it per invocation, so a test can flip the variable between
    generations and get two different, individually reproducible traces.
    """
    return env.read("REPRO_FLEET_SEED", environ)


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: the estimation-relevant axes of a GEMM stream.

    The fields deliberately mirror the workload subset of
    :class:`~repro.experiments.config.ExperimentConfig` — pattern, dtype
    and matrix size are what the paper shows move power; ``iterations``
    and ``seeds`` set the *measurement fidelity* of the per-kernel
    estimate (not the trace-side kernel count, which lives on each
    :class:`TraceJob`).  Two jobs naming the same workload share one
    estimate per GPU model through the cache tiers, which is what lets a
    million scheduled kernels collapse to a handful of engine runs.
    """

    pattern_family: str = "gaussian"
    pattern_params: Mapping[str, Any] = field(default_factory=dict)
    dtype: str = "fp16_t"
    matrix_size: int = 256
    iterations: int = 2_000
    seeds: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "pattern_params", dict(self.pattern_params))
        # Delegate domain validation (pattern family, dtype, size floors) to
        # the config it will become; a bad workload must fail at trace build
        # time, not halfway through a simulation.
        try:
            self.to_config()
        except Exception as exc:
            raise FleetError(f"invalid workload: {exc}") from exc

    def to_config(self, gpu: str = "a100", **overrides: Any) -> ExperimentConfig:
        """The :class:`ExperimentConfig` that estimates this workload on ``gpu``."""
        config = ExperimentConfig(
            pattern_family=self.pattern_family,
            pattern_params=dict(self.pattern_params),
            dtype=self.dtype,
            matrix_size=self.matrix_size,
            iterations=self.iterations,
            seeds=self.seeds,
            gpu=gpu,
        )
        return config.with_overrides(**overrides) if overrides else config

    def as_dict(self) -> "dict[str, Any]":
        return {**vars(self), "pattern_params": dict(self.pattern_params)}

    from_dict = wire.from_dict("workload", FleetError)


@dataclass(frozen=True)
class TraceJob:
    """One scheduled request: a tenant running ``kernels`` launches of a workload."""

    arrival_tick: int
    tenant: str
    workload: str
    kernels: int = 1

    def __post_init__(self) -> None:
        for name in ("arrival_tick", "kernels"):
            count = wire.require_count(getattr(self, name), name, FleetError)
            object.__setattr__(self, name, count)
        if self.arrival_tick < 0:
            raise FleetError(f"arrival_tick must be >= 0, got {self.arrival_tick}")
        if self.kernels < 1:
            raise FleetError(f"kernels must be >= 1, got {self.kernels}")
        if not self.tenant:
            raise FleetError("tenant must be a non-empty string")
        if not self.workload:
            raise FleetError("workload must be a non-empty string")

    def as_dict(self) -> "dict[str, Any]":
        return dict(vars(self))

    from_dict = wire.from_dict("job", FleetError)


@dataclass(frozen=True)
class Trace:
    """A named, tick-quantized stream of jobs over a workload catalogue."""

    name: str
    tick_s: float
    workloads: Mapping[str, WorkloadSpec]
    jobs: "tuple[TraceJob, ...]" = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)

    _wire = wire.Wire(tag=("format", TRACE_FORMAT), tag_optional=True)

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("a trace needs a non-empty name")
        if wire.require_real(self.tick_s, "tick_s", FleetError) <= 0.0:
            raise FleetError(f"tick_s must be positive, got {self.tick_s}")
        object.__setattr__(self, "workloads", dict(self.workloads))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "metadata", dict(self.metadata))
        for key, spec in self.workloads.items():
            if not isinstance(spec, WorkloadSpec):
                raise FleetError(
                    f"workload {key!r} must be a WorkloadSpec, got {type(spec).__name__}"
                )
        missing = sorted(
            {job.workload for job in self.jobs} - set(self.workloads)
        )
        if missing:
            raise FleetError(
                f"jobs reference undeclared workload(s): {', '.join(missing)}"
            )

    # ------------------------------------------------------------ accessors

    @property
    def total_kernels(self) -> int:
        """Scheduled kernel launches across every job of the trace."""
        return sum(job.kernels for job in self.jobs)

    @property
    def tenants(self) -> "tuple[str, ...]":
        return tuple(sorted({job.tenant for job in self.jobs}))

    def used_workloads(self) -> "tuple[str, ...]":
        """Workload names actually referenced by at least one job."""
        return tuple(sorted({job.workload for job in self.jobs}))

    # ------------------------------------------------------------ wire form

    def as_dict(self) -> "dict[str, Any]":
        return {
            "format": TRACE_FORMAT,
            "name": self.name,
            "tick_s": self.tick_s,
            "workloads": {key: spec.as_dict() for key, spec in sorted(self.workloads.items())},
            "jobs": [job.as_dict() for job in self.jobs],
            "metadata": dict(self.metadata),
        }

    from_dict = wire.from_dict("trace", FleetError)

    def save_json(self, path: "str | Path") -> Path:
        """Write the trace to a JSON file and return its path."""
        return wire.save_json(path, self.as_dict())

    @classmethod
    def load(cls, path: "str | Path") -> "Trace":
        """Read a trace written by :meth:`save_json`."""
        return cls.from_dict(wire.load_json(path, "trace", FleetError))


# --------------------------------------------------------------- generators


def _poisson_draw(rng: Any, rate: float) -> int:
    """One Poisson draw, clamped so a runaway rate cannot explode the trace."""
    if rate <= 0.0:
        return 0
    return int(min(rng.poisson(rate), 10_000))


#: Inference-serving workload catalogue: prefill-heavy large GEMMs next to
#: small decode-step GEMMs, the same dtype split the paper's serving
#: discussion uses.
_DIURNAL_WORKLOADS: "dict[str, WorkloadSpec]" = {
    "llm_prefill": WorkloadSpec(
        pattern_family="gaussian", pattern_params={"mean": 0.0, "std": 210.0},
        dtype="fp16_t", matrix_size=256,
    ),
    "llm_decode": WorkloadSpec(
        pattern_family="gaussian", pattern_params={"mean": 0.0, "std": 210.0},
        dtype="fp16_t", matrix_size=128,
    ),
    "embedding": WorkloadSpec(
        pattern_family="sparsity", pattern_params={"sparsity": 0.5},
        dtype="int8", matrix_size=128,
    ),
}


def generate_diurnal_trace(
    *,
    ticks: int = 288,
    tick_s: float = 300.0,
    tenants: "Iterable[str]" = ("chat", "search", "api"),
    peak_rate: float = 4.0,
    base_rate: float = 0.5,
    kernels_per_job: int = 2_000,
    workloads: "Mapping[str, WorkloadSpec] | None" = None,
    seed: "int | None" = None,
    name: str = "diurnal",
) -> Trace:
    """A diurnal LLM-inference curve: sinusoidal arrival rate over one day.

    Each tenant draws Poisson job arrivals per tick with a rate that swings
    between ``base_rate`` (night trough) and ``peak_rate`` (afternoon
    peak), phase-shifted per tenant so the fleet sees overlapping but not
    synchronized waves.  Job workloads are drawn from the (small) workload
    catalogue, biased toward decode steps the way serving traffic is.
    """
    resolved_seed = default_fleet_seed() if seed is None else int(seed)
    tenant_list = list(tenants)
    if not tenant_list:
        raise FleetError("generate_diurnal_trace needs at least one tenant")
    if ticks < 0:
        raise FleetError(f"ticks must be >= 0, got {ticks}")
    catalogue = dict(_DIURNAL_WORKLOADS) if workloads is None else dict(workloads)
    keys = sorted(catalogue)
    # Decode-heavy draw weights: later keys (sorted) are not meaningful, so
    # weight explicitly by name where known, uniformly otherwise.
    weights = [3.0 if key == "llm_decode" else 1.0 for key in keys]
    total_weight = sum(weights)
    probabilities = [w / total_weight for w in weights]

    jobs: "list[TraceJob]" = []
    for tenant_index, tenant in enumerate(tenant_list):
        rng = derive_rng(resolved_seed, "fleet.diurnal", tenant)
        phase = 2.0 * math.pi * tenant_index / len(tenant_list)
        for tick in range(ticks):
            day_fraction = tick / max(ticks, 1)
            swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * day_fraction + phase))
            rate = base_rate + (peak_rate - base_rate) * swing
            for _ in range(_poisson_draw(rng, rate)):
                key = keys[int(rng.choice(len(keys), p=probabilities))]
                kernels = max(1, int(rng.integers(kernels_per_job // 2, kernels_per_job + 1)))
                jobs.append(
                    TraceJob(arrival_tick=tick, tenant=tenant, workload=key, kernels=kernels)
                )
    jobs.sort(key=lambda job: (job.arrival_tick, job.tenant, job.workload, job.kernels))
    return Trace(
        name=name,
        tick_s=tick_s,
        workloads=catalogue,
        jobs=tuple(jobs),
        metadata={"generator": "diurnal", "seed": resolved_seed, "ticks": ticks},
    )


#: Training estates run few, long, dense jobs; one low-precision ablation
#: stream rides along (mixed dtype pressure on the estimator cache).
_TRAINING_WORKLOADS: "dict[str, WorkloadSpec]" = {
    "train_fwd": WorkloadSpec(
        pattern_family="gaussian", pattern_params={"mean": 0.0, "std": 210.0},
        dtype="fp16_t", matrix_size=256,
    ),
    "train_bwd": WorkloadSpec(
        pattern_family="gaussian", pattern_params={"mean": 0.0, "std": 210.0},
        dtype="fp32", matrix_size=256,
    ),
    "ablation_int8": WorkloadSpec(
        pattern_family="value_set", pattern_params={"set_size": 16},
        dtype="int8", matrix_size=128,
    ),
}


def generate_training_trace(
    *,
    ticks: int = 96,
    tick_s: float = 300.0,
    tenants: "Iterable[str]" = ("research-a", "research-b"),
    steps_per_tick: int = 1,
    kernels_per_step: int = 10_000,
    workloads: "Mapping[str, WorkloadSpec] | None" = None,
    seed: "int | None" = None,
    name: str = "training",
) -> Trace:
    """Steady training-step streams: regular arrivals, long kernel bursts.

    Every tenant submits ``steps_per_tick`` forward+backward step pairs per
    tick with slight seeded jitter in the kernel counts, plus an occasional
    int8 ablation job — the archetypal "always-on" base load under which
    the diurnal serving wave rides.
    """
    resolved_seed = default_fleet_seed() if seed is None else int(seed)
    tenant_list = list(tenants)
    if not tenant_list:
        raise FleetError("generate_training_trace needs at least one tenant")
    if ticks < 0:
        raise FleetError(f"ticks must be >= 0, got {ticks}")
    if steps_per_tick < 1:
        raise FleetError(f"steps_per_tick must be >= 1, got {steps_per_tick}")
    catalogue = dict(_TRAINING_WORKLOADS) if workloads is None else dict(workloads)

    jobs: "list[TraceJob]" = []
    for tenant in tenant_list:
        rng = derive_rng(resolved_seed, "fleet.training", tenant)
        for tick in range(ticks):
            for _ in range(steps_per_tick):
                jitter = float(rng.uniform(0.8, 1.2))
                kernels = max(1, int(kernels_per_step * jitter))
                jobs.append(
                    TraceJob(arrival_tick=tick, tenant=tenant, workload="train_fwd", kernels=kernels)
                )
                if "train_bwd" in catalogue:
                    jobs.append(
                        TraceJob(
                            arrival_tick=tick, tenant=tenant, workload="train_bwd",
                            kernels=max(1, kernels * 2),
                        )
                    )
            if "ablation_int8" in catalogue and rng.random() < 0.1:
                jobs.append(
                    TraceJob(
                        arrival_tick=tick, tenant=tenant, workload="ablation_int8",
                        kernels=max(1, kernels_per_step // 4),
                    )
                )
    jobs.sort(key=lambda job: (job.arrival_tick, job.tenant, job.workload, job.kernels))
    return Trace(
        name=name,
        tick_s=tick_s,
        workloads=catalogue,
        jobs=tuple(jobs),
        metadata={"generator": "training", "seed": resolved_seed, "ticks": ticks},
    )


def _mixed_catalogue(rng: Any, distinct_workloads: int) -> "dict[str, WorkloadSpec]":
    """A seeded catalogue of up to ``distinct_workloads`` dtype/sparsity mixes."""
    dtypes = ("fp16_t", "fp16", "fp32", "int8")
    sparsities = (0.0, 0.25, 0.5, 0.75, 0.9)
    sizes = (128, 192, 256)
    combinations = len(dtypes) * len(sparsities) * len(sizes)
    if distinct_workloads > combinations:
        raise FleetError(
            f"distinct_workloads must be <= {combinations}, got {distinct_workloads}"
        )
    catalogue: "dict[str, WorkloadSpec]" = {}
    while len(catalogue) < distinct_workloads:
        dtype = dtypes[int(rng.integers(len(dtypes)))]
        sparsity = sparsities[int(rng.integers(len(sparsities)))]
        size = sizes[int(rng.integers(len(sizes)))]
        key = f"{dtype}-s{int(sparsity * 100):02d}-{size}"
        if key in catalogue:
            continue
        if sparsity > 0.0:
            spec = WorkloadSpec(
                pattern_family="sparsity", pattern_params={"sparsity": sparsity},
                dtype=dtype, matrix_size=size,
            )
        else:
            spec = WorkloadSpec(
                pattern_family="gaussian", pattern_params={"mean": 0.0, "std": 210.0},
                dtype=dtype, matrix_size=size,
            )
        catalogue[key] = spec
    return catalogue


def generate_mixed_trace(
    *,
    ticks: int = 64,
    tick_s: float = 60.0,
    tenants: "Iterable[str]" = ("tenant-0", "tenant-1", "tenant-2", "tenant-3"),
    jobs_per_tick: float = 2.0,
    distinct_workloads: int = 8,
    kernels_per_job: int = 1_000,
    seed: "int | None" = None,
    name: str = "mixed",
) -> Trace:
    """A mixed multi-tenant estate: many dtype/sparsity variants, few shapes.

    This is the cache-collapse stressor: ``distinct_workloads`` bounds the
    number of distinct activity fingerprints however many thousand kernels
    the trace schedules, so a warm simulation issues no engine runs at all.
    """
    resolved_seed = default_fleet_seed() if seed is None else int(seed)
    tenant_list = list(tenants)
    if not tenant_list:
        raise FleetError("generate_mixed_trace needs at least one tenant")
    if ticks < 0:
        raise FleetError(f"ticks must be >= 0, got {ticks}")
    if distinct_workloads < 1:
        raise FleetError(f"distinct_workloads must be >= 1, got {distinct_workloads}")
    catalogue_rng = derive_rng(resolved_seed, "fleet.mixed", "catalogue")
    catalogue = _mixed_catalogue(catalogue_rng, distinct_workloads)
    keys = sorted(catalogue)

    jobs: "list[TraceJob]" = []
    for tenant in tenant_list:
        rng = derive_rng(resolved_seed, "fleet.mixed", tenant)
        # Each tenant leans on a seeded subset of the catalogue, the way
        # real tenants pin model versions.
        preferred = sorted(
            keys[int(rng.integers(len(keys)))] for _ in range(max(1, len(keys) // 2))
        )
        for tick in range(ticks):
            for _ in range(_poisson_draw(rng, jobs_per_tick)):
                pool = preferred if rng.random() < 0.8 else keys
                key = pool[int(rng.integers(len(pool)))]
                kernels = max(1, int(rng.integers(kernels_per_job // 2, kernels_per_job + 1)))
                jobs.append(
                    TraceJob(arrival_tick=tick, tenant=tenant, workload=key, kernels=kernels)
                )
    jobs.sort(key=lambda job: (job.arrival_tick, job.tenant, job.workload, job.kernels))
    return Trace(
        name=name,
        tick_s=tick_s,
        workloads=catalogue,
        jobs=tuple(jobs),
        metadata={"generator": "mixed", "seed": resolved_seed, "ticks": ticks},
    )


#: Generator registry for the CLI's ``generate-trace --kind``.
GENERATORS = {
    "diurnal": generate_diurnal_trace,
    "training": generate_training_trace,
    "mixed": generate_mixed_trace,
}


def generate_trace(kind: str, **kwargs: Any) -> Trace:
    """Dispatch to one of the named generators (CLI entry point)."""
    try:
        generator = GENERATORS[kind]
    except KeyError:
        raise FleetError(
            f"unknown trace kind {kind!r}; known: {sorted(GENERATORS)}"
        ) from None
    return generator(**kwargs)
