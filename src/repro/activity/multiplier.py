"""Multiplier-array activity.

The dynamic energy of a digital multiplier grows with the number of set
bits in its operands (more partial products are generated and summed), and
a multiply where either operand is exactly zero is effectively gated.  For
a GEMM, the mean over all N*M*K multiply-accumulates of
``hw(A[i,k]) * hw(B[k,j])`` factorizes over the reduction index, so the
estimate below is *exact* and costs only ``O(N*K + K*M)``:

    mean_k [ mean_i hw(A[i,k]) * mean_j hw(B[k,j]) ]

This component is what makes Hamming-weight-reducing inputs (zeroed bits,
sparsity, small-magnitude integers) cheaper — takeaways T12, T14, T15 and
the Figure 8 Hamming-weight correlation.

The estimator is a reduction of the stack's per-``k`` popcount and
zero-word sums, which the shared counts stage
(:class:`~repro.activity.counts.StackCounts`) makes once per stack on the
stored layout; the Hamming totals are sums of those per-``k`` sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity.counts import StackCounts
from repro.activity.toggles import (
    RANDOM_HAMMING_FRACTION,
    ZERO_GATED_RESIDUAL,
    one_invocation,
)
from repro.kernels.schedule import OperandStreams

__all__ = [
    "MultiplierActivity",
    "estimate_multiplier_activity",
    "estimate_multiplier_activity_batch",
]


@dataclass(frozen=True)
class MultiplierActivity:
    """Raw and normalized multiplier-array activity."""

    hw_product: float
    zero_mac_fraction: float
    a_hamming_fraction: float
    b_hamming_fraction: float
    activity: float


def estimate_multiplier_activity(streams: OperandStreams) -> MultiplierActivity:
    """Estimate multiplier-array switching activity for one GEMM (a stack of one)."""
    return estimate_multiplier_activity_batch(one_invocation(streams))[0]


def estimate_multiplier_activity_batch(
    streams: OperandStreams, counts: StackCounts | None = None
) -> list[MultiplierActivity]:
    """Estimate multiplier-array switching activity (exact), one entry per
    invocation.

    The popcount and zero tests (the expensive part) run once over the
    stored word stacks — or not at all when ``counts``, a counts stage the
    caller shares for ``streams``, already holds them; what is left is a
    reduction of each slice's per-``k`` integer sums, so an entry does not
    depend on what else is stacked with its invocation.
    """
    counts = counts or StackCounts(streams)
    hw_a, hw_b = counts.hamming_per_k("a"), counts.hamming_per_k("b")
    zero_a, zero_b = counts.zeros_per_k("a"), counts.zeros_per_k("b")
    return [
        _from_counts(
            hw_a=hw_a[index],
            hw_b=hw_b[index],
            zero_a=zero_a[index],
            zero_b=zero_b[index],
            n=streams.n,
            m=streams.m,
            width=streams.dtype.bits,
        )
        for index in range(streams.batch)
    ]


def _from_counts(
    hw_a: np.ndarray,
    hw_b: np.ndarray,
    zero_a: np.ndarray,
    zero_b: np.ndarray,
    n: int,
    m: int,
    width: int,
) -> MultiplierActivity:
    """Reduction core of one invocation on its per-``k`` integer sums.

    ``hw_a``/``zero_a`` sum A's popcounts and zero words over its ``n``
    rows, ``hw_b``/``zero_b`` B's over its ``m`` columns, one entry per
    ``k``.  The sums are divided by ``width`` and by the element count only
    at the end.  Each per-word Hamming fraction is a multiple of
    ``1 / width`` with ``width`` a power of two, so a float64 sum of the
    fractions is exact too, and both orders give the same bits.
    """
    k = hw_a.shape[0]
    a_hamming = float(hw_a.sum() / width / (n * k))
    b_hamming = float(hw_b.sum() / width / (k * m))

    # Exact mean over MACs of hw(a)*hw(b): factorizes along the reduction dim.
    mean_hw_a_per_k = hw_a / width / n  # (K,)
    mean_hw_b_per_k = hw_b / width / m  # (K,)
    hw_product = float((mean_hw_a_per_k * mean_hw_b_per_k).mean())

    # Exact fraction of MACs with at least one zero operand.
    nonzero_pair_per_k = (1.0 - zero_a / n) * (1.0 - zero_b / m)
    zero_mac_fraction = float(1.0 - nonzero_pair_per_k.mean())

    normalization = RANDOM_HAMMING_FRACTION**2
    raw_activity = hw_product / normalization
    # Zero-gated multiplies still burn a small residual; non-gated ones are
    # already captured by hw_product (zero operands contribute zero there).
    activity = raw_activity + ZERO_GATED_RESIDUAL * zero_mac_fraction

    return MultiplierActivity(
        hw_product=hw_product,
        zero_mac_fraction=zero_mac_fraction,
        a_hamming_fraction=a_hamming,
        b_hamming_fraction=b_hamming,
        activity=activity,
    )
