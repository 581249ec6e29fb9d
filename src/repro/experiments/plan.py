"""Experiment plans: the per-configuration state a run shares across seeds.

Running one :class:`~repro.experiments.config.ExperimentConfig` needs a
bundle of derived objects before any seed is touched: the GEMM problem
geometry, the input :class:`~repro.patterns.base.Pattern`, the simulated
:class:`~repro.gpu.device.Device`, the CUTLASS-style
:class:`~repro.kernels.launch.KernelLaunch` plan and the DCGM telemetry
monitor.  None of those depend on the seed loop, so
:class:`~repro.core.EstimationPipeline` builds one :class:`ExperimentPlan`
per configuration and shares it across all of that configuration's seeds.

Every object inside a plan is *stateless after construction* — patterns
take their RNG as a ``generate()`` argument, the launch and problem are
frozen dataclasses, and the device and monitor expose pure functions of
their arguments — so the seeds of one run may use it concurrently.

Plans are not cached across configurations: every point of the paper's
sweeps changes a pattern parameter, the dtype or the GPU, so no two points
share a plan, and building one is cheaper than keying a cache for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro._deprecated import ignore_plan_cache
from repro.dtypes.registry import get_dtype
from repro.gpu.device import Device
from repro.kernels.gemm import GemmProblem
from repro.kernels.launch import KernelLaunch, plan_launch
from repro.patterns.base import Pattern
from repro.patterns.library import build_pattern
from repro.telemetry.dcgm import DcgmMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "ExperimentPlan",
    "build_plan",
    "build_problem",
    "build_workload_pattern",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a run derives from its config before touching a seed.

    Plans are immutable and their members are stateless (see the module
    docstring), so one plan may be shared by every seed of a run.
    """

    device: Device
    problem: GemmProblem
    pattern: Pattern
    launch: KernelLaunch
    monitor: DcgmMonitor

    def describe(self) -> dict[str, Any]:
        """JSON-serializable summary (for logging and diagnostics)."""
        return {
            "device": self.device.describe(),
            "launch": self.launch.describe(),
            "pattern": type(self.pattern).__name__,
        }


def build_problem(config: "ExperimentConfig") -> GemmProblem:
    """The GEMM problem geometry of a configuration."""
    return GemmProblem.square(
        config.matrix_size, dtype=config.dtype, transpose_b=config.transpose_b
    )


def build_workload_pattern(config: "ExperimentConfig") -> Pattern:
    """The input pattern of a configuration (stateless; RNG comes later)."""
    spec = get_dtype(config.dtype)
    return build_pattern(config.pattern_family, spec, **dict(config.pattern_params))


def build_plan(config: "ExperimentConfig", cache: object = None) -> ExperimentPlan:
    """Build the :class:`ExperimentPlan` for a configuration.

    ``cache`` is deprecated and ignored: plans are no longer cached.
    """
    ignore_plan_cache(cache, keyword="cache")
    device = Device.create(config.gpu, instance_id=config.instance_id)
    problem = build_problem(config)
    return ExperimentPlan(
        device=device,
        problem=problem,
        pattern=build_workload_pattern(config),
        launch=plan_launch(problem, device),
        monitor=DcgmMonitor(device, config=config.telemetry),
    )
