"""repro: reproduction of "Input-Dependent Power Usage in GPUs" (SC 2024).

The package models how the *values and placement* of GEMM input data change
GPU power draw, reproduces the paper's measurement methodology end to end on
a simulated GPU substrate, and implements the power-aware optimizations the
paper proposes as future work.

Quick start::

    import repro

    result = repro.measure_gemm_power(
        pattern="sorted_rows", pattern_params={"fraction": 1.0},
        dtype="fp16_t", gpu="a100", matrix_size=512,
    )
    print(result.mean_power_watts)

Application code should prefer the stable façade :mod:`repro.api`
(``from repro import api``), which documents the supported entry points —
``run_experiment`` / ``run_configs`` / ``run_sweep`` / ``serve`` plus the
cache handles — with keyword-only tuning arguments and a deprecation
policy.  The estimation server lives in :mod:`repro.serve`
(``python -m repro.serve``); the pure, side-effect-free pipeline in
:mod:`repro.core`.

See ``examples/`` for complete scripts and ``benchmarks/`` for the per-figure
reproduction harness.
"""

from __future__ import annotations

from repro._version import __version__
from repro.activity import (
    ActivityEngine,
    ActivityReport,
    SamplingConfig,
    estimate_activity,
    estimate_activity_batch,
)
from repro.cache import (
    ActivityCache,
    CacheStats,
    ExperimentCache,
    activity_fingerprint,
    experiment_fingerprint,
)
from repro.dtypes import PAPER_DTYPES, get_dtype, list_dtypes
from repro.errors import ReproError
from repro.experiments import (
    ExperimentConfig,
    ExperimentPlan,
    ExperimentResult,
    FigureResult,
    RunStats,
    SweepResult,
    build_plan,
    run_configs,
    run_experiment,
    run_sweep,
)
from repro.gpu import Device, GPUSpec, get_gpu_spec, list_gpus
from repro.kernels import GemmOperands, GemmProblem, reference_gemm
from repro.patterns import build_pattern, list_patterns
from repro.power import PowerModel
from repro.runtime import RuntimeModel
from repro.telemetry import PowerTrace

__all__ = [
    "__version__",
    "ReproError",
    "ActivityEngine",
    "ActivityReport",
    "SamplingConfig",
    "estimate_activity",
    "estimate_activity_batch",
    "ExperimentCache",
    "ActivityCache",
    "CacheStats",
    "experiment_fingerprint",
    "activity_fingerprint",
    "get_dtype",
    "list_dtypes",
    "PAPER_DTYPES",
    "Device",
    "GPUSpec",
    "get_gpu_spec",
    "list_gpus",
    "GemmProblem",
    "GemmOperands",
    "reference_gemm",
    "build_pattern",
    "list_patterns",
    "PowerModel",
    "RuntimeModel",
    "PowerTrace",
    "ExperimentConfig",
    "ExperimentPlan",
    "build_plan",
    "ExperimentResult",
    "SweepResult",
    "FigureResult",
    "RunStats",
    "run_experiment",
    "run_configs",
    "run_sweep",
    "measure_gemm_power",
    "measure_gemm_power_batch",
    # lazily imported submodules (see module __getattr__)
    "api",
    "core",
    "fleet",
    "optimize",
    "serve",
]

#: Submodules exposed lazily so ``import repro`` stays cheap and the
#: ``serve`` *module* is never shadowed by a same-named function.
_LAZY_SUBMODULES = ("api", "core", "fleet", "optimize", "serve")


def __getattr__(name: str) -> object:
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_LAZY_SUBMODULES))


def _build_config(
    pattern: str = "gaussian",
    pattern_params: dict | None = None,
    dtype: str = "fp16_t",
    gpu: str = "a100",
    matrix_size: int = 512,
    seeds: int = 3,
    **overrides: object,
) -> ExperimentConfig:
    config = ExperimentConfig(
        pattern_family=pattern,
        pattern_params=pattern_params or {},
        dtype=dtype,
        gpu=gpu,
        matrix_size=matrix_size,
        seeds=seeds,
    )
    return config.with_overrides(**overrides) if overrides else config


def measure_gemm_power(
    pattern: str = "gaussian",
    pattern_params: dict | None = None,
    dtype: str = "fp16_t",
    gpu: str = "a100",
    matrix_size: int = 512,
    seeds: int = 3,
    **overrides: object,
) -> ExperimentResult:
    """Measure (simulate) GEMM power for one input pattern.

    This is the one-call public entry point: it builds an
    :class:`~repro.experiments.config.ExperimentConfig`, runs the
    measurement harness (serving repeats from the content-addressed result
    cache), and returns the aggregated result.
    """
    return run_experiment(
        _build_config(
            pattern=pattern,
            pattern_params=pattern_params,
            dtype=dtype,
            gpu=gpu,
            matrix_size=matrix_size,
            seeds=seeds,
            **overrides,
        )
    )


def measure_gemm_power_batch(
    workloads: "list[ExperimentConfig | dict]",
    workers: int = 1,
    progress: "object | None" = None,
    backend: str = "auto",
) -> list[ExperimentResult]:
    """Measure a batch of workloads in one call.

    Each entry is either an :class:`ExperimentConfig` or a dict of
    :func:`measure_gemm_power` keyword arguments.  The batch goes through
    the sweep runner, so identical workloads are computed once, previously
    measured ones come from the result cache, and ``workers > 1`` fans the
    remainder out over a :mod:`repro.parallel` execution backend
    (released-GIL threads by default; see ``backend=``).
    """
    configs = [
        workload
        if isinstance(workload, ExperimentConfig)
        else _build_config(**workload)
        for workload in workloads
    ]
    return run_configs(configs, workers=workers, progress=progress, backend=backend)
