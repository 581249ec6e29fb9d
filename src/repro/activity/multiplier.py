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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity.toggles import (
    RANDOM_HAMMING_FRACTION,
    ZERO_GATED_RESIDUAL,
    one_invocation,
)
from repro.dtypes.base import DTypeSpec
from repro.kernels.schedule import OperandStreams
from repro.util.bits import popcount

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


def estimate_multiplier_activity_batch(streams: OperandStreams) -> list[MultiplierActivity]:
    """Estimate multiplier-array switching activity (exact), one entry per
    invocation.

    The popcount and zero tests (the expensive part) run once over the
    word stacks; the cheap per-slice statistics are integer sums over each
    slice, so an entry does not depend on what else is stacked with its
    invocation.
    """
    pc_a = popcount(streams.a_words)  # (S, N, K)
    pc_b = popcount(streams.b_words)  # (S, K, M)
    zero_a = _zero_words(streams.a_words, streams.dtype)
    zero_b = _zero_words(streams.b_words, streams.dtype)
    width = streams.dtype.bits
    return [
        _from_counts(
            pc_a=pc_a[index],
            pc_b=pc_b[index],
            zero_a=zero_a[index],
            zero_b=zero_b[index],
            width=width,
        )
        for index in range(streams.batch)
    ]


def _zero_words(words: np.ndarray, dtype: DTypeSpec) -> np.ndarray:
    """Which words encode an exact zero.

    A float zero keeps its sign bit, so ``-0.0`` (for example fp16's
    encoding of ``-1e-30``) is found by masking the sign off; an integer
    zero is the all-zero word.
    """
    if dtype.is_float:
        magnitude = dtype.word_dtype.type((1 << (dtype.bits - 1)) - 1)
        return (words & magnitude) == 0
    return words == 0


def _from_counts(
    pc_a: np.ndarray,
    pc_b: np.ndarray,
    zero_a: np.ndarray,
    zero_b: np.ndarray,
    width: int,
) -> MultiplierActivity:
    """Reduction core of one invocation on its per-word popcounts and zero masks.

    The counts are summed as integers and divided by ``width`` and by the
    element count only at the end.  Each per-word Hamming fraction is a
    multiple of ``1 / width`` with ``width`` a power of two, so a float64
    sum of the fractions is exact too, and both orders give the same bits.
    """
    n = pc_a.shape[0]
    m = pc_b.shape[1]

    a_hamming = float(pc_a.sum(dtype=np.int64) / width / pc_a.size)
    b_hamming = float(pc_b.sum(dtype=np.int64) / width / pc_b.size)

    # Exact mean over MACs of hw(a)*hw(b): factorizes along the reduction dim.
    mean_hw_a_per_k = pc_a.sum(axis=0, dtype=np.int64) / width / n  # (K,)
    mean_hw_b_per_k = pc_b.sum(axis=1, dtype=np.int64) / width / m  # (K,)
    hw_product = float((mean_hw_a_per_k * mean_hw_b_per_k).mean())

    # Exact fraction of MACs with at least one zero operand.
    zero_a_per_k = zero_a.mean(axis=0)  # (K,)
    zero_b_per_k = zero_b.mean(axis=1)  # (K,)
    nonzero_pair_per_k = (1.0 - zero_a_per_k) * (1.0 - zero_b_per_k)
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
