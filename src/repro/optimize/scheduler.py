"""Power-aware GEMM job scheduling across a GPU fleet.

Given a set of GEMM jobs whose power draw has been predicted by the
input-dependent power model, place them on a fleet of GPUs so that the
fleet-level power stays under a provisioned budget.  Jobs that would exceed
the budget are delayed to later time slots — the scheduling analogue of the
power-capping use case in the paper's introduction.

:class:`FleetScheduler` is deprecated since 1.2.0: :mod:`repro.fleet`
(traces, power caps, per-job attribution) supersedes it.  It keeps working,
with a :class:`DeprecationWarning` at construction, until the next release.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OptimizationError
from repro.gpu.device import Device
from repro.optimize.estimation import quick_power_estimate

__all__ = ["GemmJob", "ScheduledJob", "FleetSchedule", "FleetScheduler"]


@dataclass
class GemmJob:
    """One GEMM workload to place on the fleet."""

    name: str
    activations: np.ndarray
    weights: np.ndarray
    dtype: str = "fp16_t"
    iterations: int = 1000

    def __post_init__(self) -> None:
        self.activations = np.asarray(self.activations, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.iterations < 1:
            raise OptimizationError(f"job {self.name!r}: iterations must be >= 1")


@dataclass(frozen=True)
class ScheduledJob:
    """Placement decision for one job."""

    job_name: str
    device_index: int
    time_slot: int
    predicted_power_watts: float
    duration_s: float


@dataclass
class FleetSchedule:
    """Complete schedule plus derived power statistics."""

    placements: list[ScheduledJob] = field(default_factory=list)
    slot_power_watts: list[float] = field(default_factory=list)
    power_budget_watts: float = 0.0

    @property
    def num_slots(self) -> int:
        return len(self.slot_power_watts)

    @property
    def peak_power_watts(self) -> float:
        return max(self.slot_power_watts) if self.slot_power_watts else 0.0

    @property
    def within_budget(self) -> bool:
        return self.peak_power_watts <= self.power_budget_watts + 1e-9

    def jobs_in_slot(self, slot: int) -> list[ScheduledJob]:
        return [p for p in self.placements if p.time_slot == slot]


class FleetScheduler:
    """Greedy power-aware scheduler.

    Jobs are sorted by predicted power (descending) and placed first-fit into
    the earliest time slot whose remaining fleet power budget and free device
    count allow them.  Each device runs at most one job per slot.
    Deprecated: use :mod:`repro.fleet`.
    """

    def __init__(self, devices: list[Device], power_budget_watts: float) -> None:
        warnings.warn(
            "repro.optimize.FleetScheduler is deprecated: use repro.fleet "
            "(FleetSpec and simulate) instead; it will be removed in the next release",
            DeprecationWarning,
            stacklevel=2,
        )
        if not devices:
            raise OptimizationError("the fleet needs at least one device")
        if power_budget_watts <= 0:
            raise OptimizationError("power budget must be positive")
        self.devices = list(devices)
        self.power_budget_watts = float(power_budget_watts)

    def predict_job(self, job: GemmJob, device: Device) -> tuple[float, float]:
        """Predicted (power, duration) of a job on one device."""
        estimate = quick_power_estimate(
            job.activations, job.weights, dtype=job.dtype, gpu=device
        )
        return estimate.power_watts, estimate.iteration_time_s * job.iterations

    def schedule(self, jobs: list[GemmJob]) -> FleetSchedule:
        """Produce a schedule keeping every slot under the fleet power budget."""
        if not jobs:
            raise OptimizationError("no jobs to schedule")

        # Predict each job on each device class once; devices in the fleet may differ.
        predictions: dict[tuple[int, int], tuple[float, float]] = {}
        for job_index, job in enumerate(jobs):
            for device_index, device in enumerate(self.devices):
                predictions[(job_index, device_index)] = self.predict_job(job, device)

        # Order jobs by their best-case power, descending, so heavy jobs claim
        # budget first (longest-processing-time style greedy).
        job_order = sorted(
            range(len(jobs)),
            key=lambda j: min(predictions[(j, d)][0] for d in range(len(self.devices))),
            reverse=True,
        )

        placements: list[ScheduledJob] = []
        slot_power: list[float] = []
        slot_devices_used: list[set[int]] = []

        min_job_power = min(
            min(predictions[(j, d)][0] for d in range(len(self.devices)))
            for j in range(len(jobs))
        )
        if min_job_power > self.power_budget_watts:
            raise OptimizationError(
                f"power budget {self.power_budget_watts:.0f} W cannot fit the "
                f"smallest job ({min_job_power:.0f} W)"
            )

        for job_index in job_order:
            placed = False
            slot = 0
            while not placed:
                if slot == len(slot_power):
                    slot_power.append(0.0)
                    slot_devices_used.append(set())
                # Prefer the device with the lowest predicted power for this job.
                device_choices = sorted(
                    range(len(self.devices)), key=lambda d: predictions[(job_index, d)][0]
                )
                for device_index in device_choices:
                    if device_index in slot_devices_used[slot]:
                        continue
                    power, duration = predictions[(job_index, device_index)]
                    if slot_power[slot] + power > self.power_budget_watts:
                        continue
                    placements.append(
                        ScheduledJob(
                            job_name=jobs[job_index].name,
                            device_index=device_index,
                            time_slot=slot,
                            predicted_power_watts=power,
                            duration_s=duration,
                        )
                    )
                    slot_power[slot] += power
                    slot_devices_used[slot].add(device_index)
                    placed = True
                    break
                slot += 1

        return FleetSchedule(
            placements=placements,
            slot_power_watts=slot_power,
            power_budget_watts=self.power_budget_watts,
        )

    def schedule_summary(self, schedule: FleetSchedule) -> dict[str, float]:
        """Headline numbers for reporting."""
        durations = [p.duration_s for p in schedule.placements]
        return {
            "num_slots": float(schedule.num_slots),
            "peak_power_watts": schedule.peak_power_watts,
            "power_budget_watts": schedule.power_budget_watts,
            "mean_job_duration_s": float(np.mean(durations)) if durations else 0.0,
            "within_budget": float(schedule.within_budget),
        }
