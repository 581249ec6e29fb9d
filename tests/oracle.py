"""Scalar reference estimators: one GEMM at a time, on 2-D words.

The library estimates every invocation through one body per component that
runs over a stack of invocations along a seed axis
(:class:`repro.kernels.schedule.OperandStreams`).  This module restates
each component for a single GEMM straight from the model, with its own
streams, output sampling and reductions, so the library can be checked
against an implementation that shares none of its stacking, chunking or
plan code.  It imports no estimator and nothing from
``repro.kernels.schedule``.

The functions here mirror the library's single-GEMM surface under short
names (``streams``, ``operand``, ``multiplier``, ``datapath``, ``memory``,
``activity``) so tests can run one body against either implementation
(see the ``estimators`` fixture in ``conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity.report import ActivityReport
from repro.activity.toggles import (
    RANDOM_HAMMING_FRACTION,
    RANDOM_TOGGLE_FRACTION,
    ZERO_GATED_RESIDUAL,
)
from repro.dtypes import get_dtype
from repro.dtypes.base import DTypeSpec
from repro.experiments.plan import build_problem, build_workload_pattern
from repro.kernels.launch import plan_launch
from repro.telemetry.dcgm import DcgmMonitor
from repro.util.bits import popcount, toggle_fraction_along_axis
from repro.util.rng import derive_rng, sample_without_replacement

NAME = "oracle"


@dataclass(frozen=True)
class ScalarStreams:
    """The words of one GEMM: A as consumed (N, K), B as stored."""

    dtype: DTypeSpec
    a_words: np.ndarray
    b_stored_words: np.ndarray
    transpose_b: bool

    @property
    def b_words(self) -> np.ndarray:
        """B in consumption order, (K, M)."""
        return self.b_stored_words.T if self.transpose_b else self.b_stored_words

    @property
    def n(self) -> int:
        return self.a_words.shape[0]

    @property
    def k(self) -> int:
        return self.a_words.shape[1]

    @property
    def m(self) -> int:
        return self.b_words.shape[1]


@dataclass(frozen=True)
class Operand:
    toggle_a: float
    toggle_b: float
    activity: float


@dataclass(frozen=True)
class Multiplier:
    hw_product: float
    zero_mac_fraction: float
    a_hamming_fraction: float
    b_hamming_fraction: float
    activity: float


@dataclass(frozen=True)
class Datapath:
    product_toggle: float
    accumulator_toggle: float
    bit_alignment: float
    output_samples: int
    activity: float


@dataclass(frozen=True)
class Memory:
    toggle_a: float
    toggle_b: float
    toggle: float
    activity: float


def streams(a, b_stored, dtype: str = "fp16", transpose_b: bool = True) -> ScalarStreams:
    """Encode two float matrices (B in storage layout) into one GEMM's words."""
    spec = get_dtype(dtype)
    return ScalarStreams(
        dtype=spec,
        a_words=spec.encode(np.asarray(a, dtype=np.float64)),
        b_stored_words=spec.encode(np.asarray(b_stored, dtype=np.float64)),
        transpose_b=transpose_b,
    )


def operand(s: ScalarStreams) -> Operand:
    """Operand-bus toggles: A along each row, B (consumed) down each column."""
    toggle_a = toggle_fraction_along_axis(s.a_words, axis=1)
    toggle_b = toggle_fraction_along_axis(s.b_words, axis=0)
    return Operand(toggle_a, toggle_b, 0.5 * (toggle_a + toggle_b) / RANDOM_TOGGLE_FRACTION)


def _zero_words(words: np.ndarray, spec: DTypeSpec) -> np.ndarray:
    """Exact zeros: a float zero keeps its sign bit, an integer zero is 0."""
    if spec.is_float:
        return (words & spec.word_dtype.type((1 << (spec.bits - 1)) - 1)) == 0
    return words == 0


def multiplier(s: ScalarStreams) -> Multiplier:
    """Exact multiplier statistics from integer popcount sums."""
    width = s.dtype.bits
    pc_a, pc_b = popcount(s.a_words), popcount(s.b_words)
    mean_hw_a_per_k = pc_a.sum(axis=0, dtype=np.int64) / width / s.n
    mean_hw_b_per_k = pc_b.sum(axis=1, dtype=np.int64) / width / s.m
    hw_product = float((mean_hw_a_per_k * mean_hw_b_per_k).mean())
    nonzero_pair = (1.0 - _zero_words(s.a_words, s.dtype).mean(axis=0)) * (
        1.0 - _zero_words(s.b_words, s.dtype).mean(axis=1)
    )
    zero_mac_fraction = float(1.0 - nonzero_pair.mean())
    return Multiplier(
        hw_product=hw_product,
        zero_mac_fraction=zero_mac_fraction,
        a_hamming_fraction=float(pc_a.sum(dtype=np.int64) / width / pc_a.size),
        b_hamming_fraction=float(pc_b.sum(dtype=np.int64) / width / pc_b.size),
        activity=hw_product / RANDOM_HAMMING_FRACTION**2
        + ZERO_GATED_RESIDUAL * zero_mac_fraction,
    )


def _accumulator_words(values: np.ndarray, spec: DTypeSpec) -> np.ndarray:
    """Products and partial sums as the accumulator holds them: int32 for
    integer inputs, fp64 for fp64, fp32 for every narrower float."""
    if spec.is_integer:
        return get_dtype("int32").encode(values)
    return get_dtype("fp64" if spec.bits >= 64 else "fp32").encode(values)


def datapath(s: ScalarStreams, config, seed: int = 0) -> Datapath:
    """Product and partial-sum toggles along K of sampled outputs.

    ``config`` is a :class:`~repro.activity.sampler.SamplingConfig`; only
    its ``seed``, ``output_samples`` and ``max_k`` are read.
    """
    rng = derive_rng(config.seed, "datapath", seed)
    total = s.n * s.m
    flat = sample_without_replacement(rng, total, min(config.output_samples, total))
    rows, cols = flat // s.m, flat % s.m
    k = s.k if config.max_k is None else min(s.k, config.max_k)
    a_rows = s.a_words[rows, :k]
    b_cols = s.b_words[:k, cols].T
    with np.errstate(over="ignore", invalid="ignore"):
        products = s.dtype.decode(a_rows) * s.dtype.decode(b_cols)
        partial_sums = np.cumsum(products, axis=1)
    product_toggle = toggle_fraction_along_axis(_accumulator_words(products, s.dtype), axis=1)
    accumulator_toggle = toggle_fraction_along_axis(
        _accumulator_words(partial_sums, s.dtype), axis=1
    )
    mean_distance = float(popcount(np.bitwise_xor(a_rows, b_cols)).mean())
    return Datapath(
        product_toggle=product_toggle,
        accumulator_toggle=accumulator_toggle,
        bit_alignment=1.0 - mean_distance / s.dtype.bits,
        output_samples=int(rows.size),
        activity=0.5 * (product_toggle + accumulator_toggle) / RANDOM_TOGGLE_FRACTION,
    )


def memory(s: ScalarStreams) -> Memory:
    """Storage-order bus toggles: A and the *stored* B, row-major."""
    toggle_a = toggle_fraction_along_axis(s.a_words, axis=1)
    toggle_b = toggle_fraction_along_axis(s.b_stored_words, axis=1)
    toggle = 0.5 * (toggle_a + toggle_b)
    return Memory(toggle_a, toggle_b, toggle, toggle / RANDOM_TOGGLE_FRACTION)


def report(s: ScalarStreams, sampling, seed: int = 0) -> dict:
    """Every component of one GEMM as an ``ActivityReport.as_dict()`` document."""
    op, mu, dp, me = operand(s), multiplier(s), datapath(s, sampling, seed), memory(s)
    return {
        "operand_activity": op.activity,
        "multiplier_activity": mu.activity,
        "datapath_activity": dp.activity,
        "memory_activity": me.activity,
        "operand_toggle_a": op.toggle_a,
        "operand_toggle_b": op.toggle_b,
        "multiplier_hw_product": mu.hw_product,
        "zero_mac_fraction": mu.zero_mac_fraction,
        "product_toggle": dp.product_toggle,
        "accumulator_toggle": dp.accumulator_toggle,
        "memory_toggle": me.toggle,
        "a_hamming_fraction": mu.a_hamming_fraction,
        "b_hamming_fraction": mu.b_hamming_fraction,
        "bit_alignment": dp.bit_alignment,
        "dtype": s.dtype.name,
        "shape": [s.n, s.m, s.k],
        "output_samples": dp.output_samples,
        "extras": {},
    }


def activity(operands, sampling, seed: int = 0) -> dict:
    """:func:`report` of a :class:`~repro.kernels.gemm.GemmOperands`."""
    problem = operands.problem
    return report(
        streams(operands.a, operands.b_stored, problem.dtype, problem.transpose_b),
        sampling,
        seed,
    )


def run_seed_reference(pipeline, seed_index: int):
    """One seed of ``pipeline``'s configuration end to end, bypassing its plan.

    Problem, pattern, launch and monitor are rebuilt from the config, the
    operand words drawn straight from the pattern and the activity
    estimated here; only the power/runtime/trace step
    (``pipeline.measure_seed``) is the library's.
    """
    config = pipeline.config
    problem = build_problem(config)
    pattern = build_workload_pattern(config)
    spec = get_dtype(config.dtype)
    words = ScalarStreams(
        dtype=spec,
        a_words=pattern.generate_words(
            problem.a_shape, spec, derive_rng(config.base_seed, "A", seed_index)
        ),
        b_stored_words=pattern.generate_words(
            problem.b_storage_shape, spec, derive_rng(config.base_seed, "B", seed_index)
        ),
        transpose_b=problem.transpose_b,
    )
    document = report(words, config.sampling, seed_index)
    document["shape"] = tuple(document["shape"])
    return pipeline.measure_seed(
        seed_index,
        plan_launch(problem, pipeline.device),
        ActivityReport(**document),
        DcgmMonitor(pipeline.device, config=config.telemetry),
    )
