"""Operand-delivery activity.

Models the shared-memory → register → multiplier-latch path: for every
output row the A operand latch sees ``A[i, 0], A[i, 1], ...`` (toggles along
rows of A), and for every output column the B latch sees ``B[0, j],
B[1, j], ...`` (toggles along columns of B as consumed).  Identical or
bit-similar successive operands barely toggle this path; that is the
mechanism behind the paper's value-similarity, small-value-set and sorting
results (T3, T4, T8–T11).

The estimator is a reduction of the stack's shared toggle counts
(:class:`~repro.activity.counts.StackCounts`): A's count along its stored
rows is the memory interface's too, and so is B's when the kernel consumes
the transpose of the stored B (then "down each consumed column" is "along
each stored row").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity.counts import StackCounts
from repro.activity.toggles import RANDOM_TOGGLE_FRACTION, one_invocation
from repro.kernels.schedule import OperandStreams

__all__ = ["OperandActivity", "estimate_operand_activity", "estimate_operand_activity_batch"]


@dataclass(frozen=True)
class OperandActivity:
    """Raw and normalized operand-delivery activity."""

    toggle_a: float
    toggle_b: float
    activity: float


def estimate_operand_activity(streams: OperandStreams) -> OperandActivity:
    """Estimate operand-delivery switching activity for one GEMM (a stack of one)."""
    return estimate_operand_activity_batch(one_invocation(streams))[0]


def estimate_operand_activity_batch(
    streams: OperandStreams, counts: StackCounts | None = None
) -> list[OperandActivity]:
    """Estimate operand-delivery switching activity, one entry per invocation.

    A operands stream along the reduction dimension, i.e. along each row;
    B operands (as consumed, shape (K, M) per slice) stream along it too,
    i.e. down each column, which is along each stored row when
    ``transpose_b`` and down each stored column otherwise.  The toggle
    counts are integer sums per slice, taken from ``counts`` when the
    caller shares a stage for ``streams`` and counted here otherwise, so an
    entry does not depend on what else is stacked with its invocation.
    """
    counts = counts or StackCounts(streams)
    toggles_a = counts.toggles("a", axis=2)
    toggles_b = counts.toggles("b", axis=2 if streams.transpose_b else 1)
    return [
        OperandActivity(
            toggle_a=float(ta),
            toggle_b=float(tb),
            activity=0.5 * (float(ta) + float(tb)) / RANDOM_TOGGLE_FRACTION,
        )
        for ta, tb in zip(toggles_a, toggles_b)
    ]
