"""Discrete-time placement of trace jobs onto a modeled GPU fleet.

The scheduler is deliberately simple and completely deterministic: jobs are
served strictly in trace order (FIFO by ``(arrival_tick, position)``), and
each job goes to the GPU that frees up earliest, ties broken by GPU index.
No backfilling, no migration, one job per GPU at a time — which makes the
"never double-book a GPU in a tick" invariant structural and lets the
property suite verify it from the emitted schedule alone.

Power capping propagates the way the paper's DVFS model says it must
(:mod:`repro.gpu.clocks`): a per-GPU cap below a kernel's unconstrained
draw lowers the clock until the cap is respected, which *stretches the
job's runtime* (``1/s`` for a compute-bound kernel at clock scale ``s``)
while lowering its power — capping trades ticks for watts, it does not
delete energy.  The cap that is active on the chosen GPU at the job's
start tick governs its whole run (tick-quantized semantics; a cap event
landing mid-job applies from the next placement on that GPU).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping

from repro import wire
from repro.errors import FleetError
from repro.gpu.clocks import ClockModel, ThrottleState
from repro.gpu.specs import GPUSpec, get_gpu_spec
from repro.fleet.trace import Trace

__all__ = [
    "FleetGPU",
    "CapEvent",
    "FleetSpec",
    "KernelEstimate",
    "ScheduledKernel",
    "FleetSchedule",
    "DiscreteTimeScheduler",
]


@dataclass(frozen=True)
class FleetGPU:
    """One modeled GPU of the fleet: a known model plus an optional cap."""

    model: str
    cap_watts: "float | None" = None

    def __post_init__(self) -> None:
        try:
            get_gpu_spec(self.model)
        except Exception as exc:
            raise FleetError(f"invalid fleet GPU: {exc}") from exc
        cap = self.cap_watts
        if cap is not None and wire.require_real(cap, "cap_watts", FleetError) <= 0:
            raise FleetError(f"cap_watts must be positive, got {self.cap_watts}")

    def as_dict(self) -> "dict[str, Any]":
        return {"model": self.model, "cap_watts": self.cap_watts}

    from_dict = wire.from_dict("fleet GPU", FleetError)


@dataclass(frozen=True)
class CapEvent:
    """A power-cap change at ``tick``: set (or clear) caps on some GPUs.

    ``gpus=None`` targets the whole fleet; ``cap_watts=None`` clears the
    cap back to the GPU's TDP.  Events apply to placements whose start
    tick is at or after ``tick``.
    """

    tick: int
    cap_watts: "float | None"
    gpus: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        if wire.require_count(self.tick, "tick", FleetError) < 0:
            raise FleetError(f"cap event tick must be >= 0, got {self.tick}")
        cap = self.cap_watts
        if cap is not None and wire.require_real(cap, "cap_watts", FleetError) <= 0:
            raise FleetError(f"cap event cap_watts must be positive, got {self.cap_watts}")
        if self.gpus is not None:
            gpus = wire.decode(tuple[int, ...], self.gpus, "gpus", FleetError)
            object.__setattr__(self, "gpus", gpus)

    def as_dict(self) -> "dict[str, Any]":
        return asdict(self)

    from_dict = wire.from_dict("cap event", FleetError)


@dataclass(frozen=True)
class FleetSpec:
    """The modeled fleet: GPUs, cap events and idle-power accounting."""

    gpus: "tuple[FleetGPU, ...]"
    cap_events: "tuple[CapEvent, ...]" = ()
    #: when true, GPUs draw their spec idle power whenever no job runs on
    #: them; that energy is attributed to the ``"(idle)"`` pseudo-tenant
    include_idle_power: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "gpus", tuple(self.gpus))
        object.__setattr__(
            self, "cap_events", tuple(sorted(self.cap_events, key=lambda e: e.tick))
        )
        if not self.gpus:
            raise FleetError("a fleet needs at least one GPU")
        for event in self.cap_events:
            if event.gpus is not None:
                bad = [g for g in event.gpus if not 0 <= g < len(self.gpus)]
                if bad:
                    raise FleetError(
                        f"cap event at tick {event.tick} targets unknown GPU index(es) {bad}"
                    )

    # ------------------------------------------------------------- builders

    @classmethod
    def from_counts(
        cls,
        counts: "Mapping[str, int]",
        *,
        cap_watts: "float | None" = None,
        cap_events: "Iterable[CapEvent]" = (),
        include_idle_power: bool = True,
    ) -> "FleetSpec":
        """Build a fleet from ``{model: count}`` (sorted by model name)."""
        gpus: "list[FleetGPU]" = []
        for model in sorted(counts):
            count = int(counts[model])
            if count < 1:
                raise FleetError(f"GPU count for {model!r} must be >= 1, got {count}")
            gpus.extend(FleetGPU(model=model, cap_watts=cap_watts) for _ in range(count))
        return cls(
            gpus=tuple(gpus),
            cap_events=tuple(cap_events),
            include_idle_power=include_idle_power,
        )

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return len(self.gpus)

    def models(self) -> "tuple[str, ...]":
        """Distinct GPU models present, sorted."""
        return tuple(sorted({gpu.model for gpu in self.gpus}))

    def model_counts(self) -> "dict[str, int]":
        counts: "dict[str, int]" = {}
        for gpu in self.gpus:
            counts[gpu.model] = counts.get(gpu.model, 0) + 1
        return dict(sorted(counts.items()))

    def spec(self, index: int) -> GPUSpec:
        return get_gpu_spec(self.gpus[index].model)

    def cap_at(self, tick: int, index: int) -> "float | None":
        """The cap (watts) active on GPU ``index`` at ``tick``, if any."""
        cap = self.gpus[index].cap_watts
        for event in self.cap_events:  # sorted by tick
            if event.tick > tick:
                break
            if event.gpus is None or index in event.gpus:
                cap = event.cap_watts
        return cap

    def power_limit_at(self, tick: int, index: int) -> float:
        """Effective per-GPU power limit: the cap, never above the TDP."""
        tdp = self.spec(index).tdp_watts
        cap = self.cap_at(tick, index)
        return tdp if cap is None else min(cap, tdp)

    def as_dict(self) -> "dict[str, Any]":
        return asdict(self)

    from_dict = wire.from_dict("fleet", FleetError)


@dataclass(frozen=True)
class KernelEstimate:
    """Per-kernel numbers the engine produced for one (workload, GPU model).

    ``unconstrained_power_watts`` and ``base_iteration_time_s`` are the
    boost-clock values (the measured TDP throttle, if any, divided back
    out), so the scheduler can re-resolve the DVFS steady state under an
    arbitrary fleet cap through :class:`~repro.gpu.clocks.ClockModel` —
    the same machinery fig7's cross-device study leans on.
    """

    workload: str
    gpu_model: str
    unconstrained_power_watts: float
    base_iteration_time_s: float
    spec: GPUSpec

    def resolve(self, power_limit_watts: "float | None") -> ThrottleState:
        """DVFS steady state of this kernel under ``power_limit_watts``."""
        idle = self.spec.idle_watts
        dynamic = max(self.unconstrained_power_watts - idle, 0.0)
        return ClockModel(self.spec).resolve_throttle(
            idle, dynamic, power_limit_watts=power_limit_watts
        )


@dataclass(frozen=True)
class ScheduledKernel:
    """One placed job: where it ran, for how long, at what power."""

    job_index: int
    tenant: str
    workload: str
    kernels: int
    gpu_index: int
    gpu_model: str
    start_tick: int
    end_tick: int  # exclusive
    power_watts: float
    clock_scale: float
    throttled: bool

    @property
    def duration_ticks(self) -> int:
        return self.end_tick - self.start_tick


@dataclass
class FleetSchedule:
    """Every placement decision for one trace on one fleet."""

    placements: "list[ScheduledKernel]" = field(default_factory=list)
    horizon_ticks: int = 0

    @property
    def throttled_jobs(self) -> int:
        return sum(1 for p in self.placements if p.throttled)

    def by_gpu(self) -> "dict[int, list[ScheduledKernel]]":
        """Placements grouped by GPU, each group in start-tick order."""
        groups: "dict[int, list[ScheduledKernel]]" = {}
        for placement in self.placements:
            groups.setdefault(placement.gpu_index, []).append(placement)
        for group in groups.values():
            group.sort(key=lambda p: p.start_tick)
        return groups


class DiscreteTimeScheduler:
    """FIFO, earliest-free-GPU placement over discrete ticks."""

    def __init__(self, fleet: FleetSpec) -> None:
        self.fleet = fleet
        #: memoized DVFS resolutions keyed by (workload, gpu model, limit)
        self._throttle_memo: "dict[tuple[str, str, float | None], ThrottleState]" = {}

    def _resolve(
        self, estimate: KernelEstimate, power_limit_watts: "float | None"
    ) -> ThrottleState:
        key = (estimate.workload, estimate.gpu_model, power_limit_watts)
        state = self._throttle_memo.get(key)
        if state is None:
            state = estimate.resolve(power_limit_watts)
            self._throttle_memo[key] = state
        return state

    def schedule(
        self,
        trace: Trace,
        estimates: "Mapping[tuple[str, str], KernelEstimate]",
    ) -> FleetSchedule:
        """Place every trace job; raises on a workload with no estimate."""
        schedule = FleetSchedule()
        if not trace.jobs:
            return schedule
        # Min-heap of (next free tick, gpu index): pop order is the whole
        # placement policy, and the tuple tie-break keeps it deterministic.
        free_at: "list[tuple[int, int]]" = [(0, g) for g in range(len(self.fleet))]
        heapq.heapify(free_at)
        jobs = sorted(
            enumerate(trace.jobs), key=lambda item: (item[1].arrival_tick, item[0])
        )
        horizon = 0
        for job_index, job in jobs:
            free_tick, gpu_index = heapq.heappop(free_at)
            model = self.fleet.gpus[gpu_index].model
            estimate = estimates.get((job.workload, model))
            if estimate is None:
                raise FleetError(
                    f"no estimate for workload {job.workload!r} on GPU model {model!r}"
                )
            start = max(job.arrival_tick, free_tick)
            limit = self.fleet.power_limit_at(start, gpu_index)
            state = self._resolve(estimate, limit)
            duration_s = (
                job.kernels * estimate.base_iteration_time_s * state.runtime_scale
            )
            ticks = max(1, math.ceil(duration_s / trace.tick_s))
            end = start + ticks
            heapq.heappush(free_at, (end, gpu_index))
            horizon = max(horizon, end)
            schedule.placements.append(
                ScheduledKernel(
                    job_index=job_index,
                    tenant=job.tenant,
                    workload=job.workload,
                    kernels=job.kernels,
                    gpu_index=gpu_index,
                    gpu_model=model,
                    start_tick=start,
                    end_tick=end,
                    power_watts=state.constrained_power_watts,
                    clock_scale=state.clock_scale,
                    throttled=state.throttled,
                )
            )
        schedule.horizon_ticks = horizon
        return schedule
