"""Memory-interface activity.

DRAM and L2 move operands in storage order (row-major of the stored
matrices); the bus and sense-amplifier energy depends on how many bit-lines
change between consecutively transferred words.  Toggle-aware compression
work (Pekhimenko et al., HPCA'16) documents exactly this effect; the paper
cites it as a hypothesized mechanism.

Both toggle counts come from the stack's shared counts stage
(:class:`~repro.activity.counts.StackCounts`), where the operand bus finds
them too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity.counts import StackCounts
from repro.activity.toggles import RANDOM_TOGGLE_FRACTION, one_invocation
from repro.kernels.schedule import OperandStreams

__all__ = ["MemoryActivity", "estimate_memory_activity", "estimate_memory_activity_batch"]


@dataclass(frozen=True)
class MemoryActivity:
    """Raw and normalized memory-interface activity."""

    toggle_a: float
    toggle_b: float
    toggle: float
    activity: float


def estimate_memory_activity(streams: OperandStreams) -> MemoryActivity:
    """Estimate memory-bus switching activity for one GEMM (a stack of one)."""
    return estimate_memory_activity_batch(one_invocation(streams))[0]


def estimate_memory_activity_batch(
    streams: OperandStreams, counts: StackCounts | None = None
) -> list[MemoryActivity]:
    """Estimate memory-bus switching activity from storage-order adjacency,
    one entry per invocation.

    A is stored row-major, so consecutive words on the bus are row
    neighbours; B uses its *stored* layout (before any logical transpose).
    Toggle counts are integer sums per slice, taken from ``counts`` when
    the caller shares a stage for ``streams`` and counted here otherwise.
    """
    counts = counts or StackCounts(streams)
    toggles_a = counts.toggles("a", axis=2)
    toggles_b = counts.toggles("b", axis=2)
    out = []
    for ta, tb in zip(toggles_a, toggles_b):
        toggle = 0.5 * (float(ta) + float(tb))
        out.append(
            MemoryActivity(
                toggle_a=float(ta),
                toggle_b=float(tb),
                toggle=toggle,
                activity=toggle / RANDOM_TOGGLE_FRACTION,
            )
        )
    return out
