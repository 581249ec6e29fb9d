"""Product / accumulator datapath activity (sampled).

For a sampled set of output positions ``(i, j)`` the estimator walks the
reduction dimension exactly as the kernel mainloop does, forming the
product sequence ``p_k = A[i, k] * B[k, j]`` and the partial-sum sequence
``s_k = s_{k-1} + p_k`` in the accumulator precision, and measures how many
bits toggle between successive values of each.

This is the component that separates "sorted" from "sorted and aligned"
inputs (T9): aligned streams produce smoothly varying products and partial
sums whose high bits barely move, while unaligned or randomly-sparsified
sorted inputs (T13) produce products that jump between zero and large
values, toggling the full datapath width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity.sampler import SamplingConfig
from repro.activity.toggles import (
    RANDOM_TOGGLE_FRACTION,
    encode_for_accumulator,
    one_invocation,
)
from repro.errors import ActivityError
from repro.kernels.schedule import OperandStreams
from repro.util.bits import popcount, toggle_fraction_per_slice
from repro.util.rng import derive_rng

__all__ = [
    "DatapathActivity",
    "estimate_datapath_activity",
    "estimate_datapath_activity_batch",
]


@dataclass(frozen=True)
class DatapathActivity:
    """Raw and normalized product/accumulator datapath activity."""

    product_toggle: float
    accumulator_toggle: float
    bit_alignment: float
    output_samples: int
    activity: float


def estimate_datapath_activity(
    streams: OperandStreams, config: SamplingConfig | None = None, seed: int = 0
) -> DatapathActivity:
    """Estimate product and accumulator switching activity on sampled
    outputs of one GEMM (a stack of one)."""
    return estimate_datapath_activity_batch(one_invocation(streams), config, seeds=[seed])[0]


def estimate_datapath_activity_batch(
    streams: OperandStreams,
    config: SamplingConfig | None = None,
    seeds: "list[int] | range | None" = None,
) -> list[DatapathActivity]:
    """Estimate product and accumulator switching activity on sampled
    outputs, one entry per invocation.

    Output positions are sampled per invocation, from an RNG derived from
    the sampling seed and that invocation's seed (``range(batch)`` by
    default).  Decoding the gathered operand words, the product/partial-sum
    streams, accumulator encoding and toggle counting then run in single
    vectorized passes over the ``(S, samples, K)`` stack.
    """
    if config is None:
        config = SamplingConfig()
    seed_list = list(seeds) if seeds is not None else list(range(streams.batch))
    if len(seed_list) != streams.batch:
        raise ActivityError(
            f"got {len(seed_list)} seeds for a batch of {streams.batch} invocations"
        )
    if streams.batch == 0:
        return []
    k = config.effective_k(streams.k)

    a_rows_parts = []
    b_cols_parts = []
    sample_counts = []
    for index, seed in enumerate(seed_list):
        rng = derive_rng(config.seed, "datapath", seed)
        rows, cols = streams.sample_output_positions(rng, config.output_samples)
        # Gather the operand words of each sampled output: (samples, k).
        a_rows_parts.append(streams.a_words[index][rows, :k])
        b_cols_parts.append(streams.b_words[index][:k, cols].T)
        sample_counts.append(int(rows.size))

    a_rows = np.stack(a_rows_parts)  # (S, samples, k) words
    b_cols = np.stack(b_cols_parts)  # (S, samples, k) words

    with np.errstate(over="ignore", invalid="ignore"):
        products = streams.dtype.decode(a_rows) * streams.dtype.decode(b_cols)
        partial_sums = np.cumsum(products, axis=2)

    product_words = encode_for_accumulator(products, streams.dtype)
    sum_words = encode_for_accumulator(partial_sums, streams.dtype)

    product_toggles = toggle_fraction_per_slice(product_words, axis=2)
    accumulator_toggles = toggle_fraction_per_slice(sum_words, axis=2)

    # Bit alignment between the operand pairs actually multiplied together
    # (Figure 8's alignment metric), measured on the same sample.
    pair_distances = popcount(np.bitwise_xor(a_rows, b_cols))

    out = []
    for index in range(streams.batch):
        product_toggle = float(product_toggles[index])
        accumulator_toggle = float(accumulator_toggles[index])
        mean_distance = float(pair_distances[index].mean())
        bit_alignment = 1.0 - mean_distance / streams.dtype.bits
        activity = 0.5 * (product_toggle + accumulator_toggle) / RANDOM_TOGGLE_FRACTION
        out.append(
            DatapathActivity(
                product_toggle=product_toggle,
                accumulator_toggle=accumulator_toggle,
                bit_alignment=bit_alignment,
                output_samples=sample_counts[index],
                activity=activity,
            )
        )
    return out
