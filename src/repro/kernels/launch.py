"""Kernel launch planning: grid shape, occupancy, FLOPs and DRAM traffic.

:func:`plan_launch` is a pure function of ``(problem, device, tile,
blocks_per_sm)`` and :class:`KernelLaunch` is a frozen dataclass — planning
the same problem on the same device always produces an identical plan with
no retained mutable state.  That purity is load-bearing: it is what lets
an experiment plan (:mod:`repro.experiments.plan`) hand one shared launch
to every seed of a run, bit-for-bit equivalent to replanning per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.gpu.device import Device
from repro.gpu.memory import gemm_dram_traffic_bytes
from repro.kernels.gemm import GemmProblem
from repro.kernels.tiling import TileConfig, default_tile_config

__all__ = ["KernelLaunch", "plan_launch"]


@dataclass(frozen=True)
class KernelLaunch:
    """A GEMM problem bound to a device and a tile configuration."""

    problem: GemmProblem
    device: Device
    tile: TileConfig
    threadblocks: int
    waves: float
    occupancy: float
    flops: float
    dram_traffic_bytes: float

    @property
    def element_bytes(self) -> float:
        return self.problem.dtype_spec.bits / 8.0

    def describe(self) -> dict[str, object]:
        return {
            "problem": self.problem.describe(),
            "device": self.device.name,
            "tile": self.tile.describe(),
            "threadblocks": self.threadblocks,
            "waves": self.waves,
            "occupancy": self.occupancy,
            "flops": self.flops,
            "dram_traffic_bytes": self.dram_traffic_bytes,
        }


def plan_launch(
    problem: GemmProblem,
    device: Device,
    tile: TileConfig | None = None,
    blocks_per_sm: int = 1,
) -> KernelLaunch:
    """Plan the execution of a GEMM on a device.

    ``blocks_per_sm`` is the number of threadblocks resident per SM; large
    CUTLASS tiles typically allow one resident block per SM, which is the
    configuration the paper's kernels run (≈98.5% reported utilization).
    """
    if blocks_per_sm < 1:
        raise KernelError(f"blocks_per_sm must be >= 1, got {blocks_per_sm}")
    device.validate_dtype(problem.dtype)
    if tile is None:
        tile = default_tile_config(problem.dtype, device.spec)
    threadblocks = tile.num_threadblocks(problem)
    slots = device.spec.sm_count * blocks_per_sm
    waves = threadblocks / slots
    # Utilization of the SM array: full waves keep every SM busy; the tail
    # wave only occupies part of the device.
    full_waves = int(waves)
    tail = threadblocks - full_waves * slots
    if full_waves > 0:
        occupancy = (full_waves * slots + tail) / ((full_waves + (1 if tail else 0)) * slots)
    else:
        occupancy = tail / slots if slots else 0.0
    traffic = gemm_dram_traffic_bytes(
        n=problem.n,
        m=problem.m,
        k=problem.k,
        element_bytes=max(int(problem.dtype_spec.bits // 8), 1),
        tile_m=tile.block_n,
        tile_n=tile.block_m,
        l2_capacity_bytes=device.memory.l2_capacity_bytes,
    )
    return KernelLaunch(
        problem=problem,
        device=device,
        tile=tile,
        threadblocks=threadblocks,
        waves=waves,
        occupancy=min(occupancy, 1.0),
        flops=problem.flops,
        dram_traffic_bytes=traffic,
    )
