"""Operand-delivery activity.

Models the shared-memory → register → multiplier-latch path: for every
output row the A operand latch sees ``A[i, 0], A[i, 1], ...`` (toggles along
rows of A), and for every output column the B latch sees ``B[0, j],
B[1, j], ...`` (toggles along columns of B as consumed).  Identical or
bit-similar successive operands barely toggle this path; that is the
mechanism behind the paper's value-similarity, small-value-set and sorting
results (T3, T4, T8–T11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.activity.toggles import RANDOM_TOGGLE_FRACTION
from repro.kernels.schedule import OperandStreams, StackedOperandStreams
from repro.util.bits import toggle_fraction_along_axis, toggle_fraction_per_slice

__all__ = ["OperandActivity", "estimate_operand_activity", "estimate_operand_activity_batch"]


@dataclass(frozen=True)
class OperandActivity:
    """Raw and normalized operand-delivery activity."""

    toggle_a: float
    toggle_b: float
    activity: float


def estimate_operand_activity(streams: OperandStreams) -> OperandActivity:
    """Estimate operand-delivery switching activity for one GEMM."""
    # A operands stream along the reduction dimension, i.e. along each row.
    toggle_a = toggle_fraction_along_axis(streams.a_words, axis=1)
    # B operands (as consumed, shape (K, M)) stream along the reduction
    # dimension too, i.e. down each column.
    toggle_b = toggle_fraction_along_axis(streams.b_words, axis=0)
    activity = 0.5 * (toggle_a + toggle_b) / RANDOM_TOGGLE_FRACTION
    return OperandActivity(toggle_a=toggle_a, toggle_b=toggle_b, activity=activity)


def estimate_operand_activity_batch(streams: StackedOperandStreams) -> list[OperandActivity]:
    """Stacked fast path: one estimate per invocation of the batch.

    The bit-level toggle counts are computed in a single pass over the 3-D
    word stacks; because toggle counts are integer sums, each entry matches
    :func:`estimate_operand_activity` on the corresponding slice bit for bit.
    """
    toggles_a = toggle_fraction_per_slice(streams.a_words, axis=2)
    toggles_b = toggle_fraction_per_slice(streams.b_words, axis=1)
    return [
        OperandActivity(
            toggle_a=float(ta),
            toggle_b=float(tb),
            activity=0.5 * (float(ta) + float(tb)) / RANDOM_TOGGLE_FRACTION,
        )
        for ta, tb in zip(toggles_a, toggles_b)
    ]
