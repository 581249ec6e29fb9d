"""Top-level switching-activity engine.

``estimate_activity`` combines the per-component estimators into a single
:class:`~repro.activity.report.ActivityReport` for one GEMM invocation;
``estimate_activity_batch`` does the same for a whole batch of same-shape
invocations (e.g. all seeds of one experiment configuration) with a single
stream build and stacked 3-D fast paths through every component estimator.

Both entry points are cache-aware: given an
:class:`~repro.cache.store.ActivityCache` and per-invocation fingerprints
(:func:`~repro.cache.fingerprint.activity_fingerprint`), previously
estimated invocations are served from the cache and — when operands are
passed as zero-argument factories — never even generate their matrices.
:class:`ActivityEngine` bundles a sampling configuration and a cache into a
reusable object; the experiment harness drives it so sweeps that vary only
the device or measurement procedure estimate each seed exactly once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.activity.accumulator import (
    DatapathActivity,
    estimate_datapath_activity,
    estimate_datapath_activity_batch,
)
from repro.activity.memory_traffic import (
    MemoryActivity,
    estimate_memory_activity,
    estimate_memory_activity_batch,
)
from repro.activity.multiplier import (
    MultiplierActivity,
    estimate_multiplier_activity,
    estimate_multiplier_activity_batch,
)
from repro.activity.operand_bus import (
    OperandActivity,
    estimate_operand_activity,
    estimate_operand_activity_batch,
)
from repro.activity.report import ActivityReport
from repro.activity.sampler import SamplingConfig
from repro.errors import ActivityError
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.schedule import (
    OperandStreams,
    StackedOperandStreams,
    build_streams,
    build_streams_stacked,
)
from repro.parallel.calibrate import chunk_budget_bytes

__all__ = [
    "ActivityEngine",
    "estimate_activity",
    "estimate_activity_batch",
    "activity_from_matrices",
]

#: One batch item: concrete operands, pre-built streams, or a zero-argument
#: factory producing either (invoked only when the item is not cached).
OperandSource = (
    "GemmOperands | OperandStreams | Callable[[], GemmOperands | OperandStreams]"
)


def recommended_chunk(per_invocation_values: int) -> int:
    """How many invocations of ``per_invocation_values`` operand values to
    stack per pass.

    The activity estimators are memory-bandwidth bound: stacking more
    invocations than fit in cache makes every pass stream from DRAM, so a
    batch is processed in chunks whose working set stays within the fixed
    budget of :func:`repro.parallel.calibrate.chunk_budget_bytes`.  Each
    value is counted as 8 bytes, although streams hold encoded words that
    are often narrower; the count is fixed so chunk sizes do not move.
    Callers that generate operands on the fly (e.g. the experiment harness)
    use this to size their generation chunks so peak memory stays bounded
    by the chunk, not the whole batch.  Chunking never changes results —
    chunked estimation is bit-for-bit identical at any chunk size — so the
    budget only affects speed.
    """
    per_invocation_bytes = per_invocation_values * 8
    return max(1, chunk_budget_bytes() // max(per_invocation_bytes, 1))


def estimate_activity(
    operands: "GemmOperands | OperandStreams",
    sampling: SamplingConfig | None = None,
    seed: int = 0,
) -> ActivityReport:
    """Estimate the switching activity of one GEMM invocation.

    Parameters
    ----------
    operands:
        Either concrete :class:`~repro.kernels.gemm.GemmOperands` or
        pre-built :class:`~repro.kernels.schedule.OperandStreams`.
    sampling:
        Sampling configuration for the product/accumulator estimator.
    seed:
        Extra seed mixed into the sampling RNG so repeated invocations with
        different seeds sample different output positions.
    """
    if isinstance(operands, GemmOperands):
        streams = build_streams(operands)
    elif isinstance(operands, OperandStreams):
        streams = operands
    else:
        raise ActivityError(
            f"estimate_activity expects GemmOperands or OperandStreams, got {type(operands).__name__}"
        )
    sampling = sampling or SamplingConfig()
    return _report(
        streams,
        estimate_operand_activity(streams),
        estimate_multiplier_activity(streams),
        estimate_datapath_activity(streams, sampling, seed=seed),
        estimate_memory_activity(streams),
    )


def _report(
    streams: "OperandStreams | StackedOperandStreams",
    operand: OperandActivity,
    multiplier: MultiplierActivity,
    datapath: DatapathActivity,
    memory: MemoryActivity,
) -> ActivityReport:
    """Combine one invocation's component estimates into a report."""
    return ActivityReport(
        operand_activity=operand.activity,
        multiplier_activity=multiplier.activity,
        datapath_activity=datapath.activity,
        memory_activity=memory.activity,
        operand_toggle_a=operand.toggle_a,
        operand_toggle_b=operand.toggle_b,
        multiplier_hw_product=multiplier.hw_product,
        zero_mac_fraction=multiplier.zero_mac_fraction,
        product_toggle=datapath.product_toggle,
        accumulator_toggle=datapath.accumulator_toggle,
        memory_toggle=memory.toggle,
        a_hamming_fraction=multiplier.a_hamming_fraction,
        b_hamming_fraction=multiplier.b_hamming_fraction,
        bit_alignment=datapath.bit_alignment,
        dtype=streams.dtype.name,
        shape=(streams.n, streams.m, streams.k),
        output_samples=datapath.output_samples,
    )


def _materialize(item: "object") -> "GemmOperands | OperandStreams":
    """Invoke a factory item if needed and type-check the result."""
    if callable(item) and not isinstance(item, (GemmOperands, OperandStreams)):
        item = item()
    if not isinstance(item, (GemmOperands, OperandStreams)):
        raise ActivityError(
            "estimate_activity_batch expects GemmOperands, OperandStreams, "
            "factories returning them, or StackedOperandStreams; got "
            f"{type(item).__name__}"
        )
    return item


def _per_invocation_values(item: "GemmOperands | OperandStreams") -> int:
    if isinstance(item, GemmOperands):
        return item.a.size + item.b_stored.size
    return item.a_words.size + item.b_stored_words.size


def estimate_activity_batch(
    operands: "Sequence[OperandSource] | StackedOperandStreams",
    sampling: SamplingConfig | None = None,
    seeds: "Sequence[int] | range | None" = None,
    chunk: int | None = None,
    cache: "object | None" = None,
    keys: "Sequence[str] | None" = None,
) -> list[ActivityReport]:
    """Estimate switching activity for a batch of same-shape GEMM invocations.

    This is the vectorized counterpart of calling :func:`estimate_activity`
    once per invocation: each operand is encoded once, the words of a chunk
    are stacked and every component estimator runs its stacked fast path.
    The returned reports are bit-for-bit identical to the sequential ones.

    Parameters
    ----------
    operands:
        A sequence of :class:`~repro.kernels.gemm.GemmOperands` (or
        pre-built :class:`~repro.kernels.schedule.OperandStreams`) sharing
        shape, dtype and transposition, zero-argument factories returning
        them, or an already-stacked
        :class:`~repro.kernels.schedule.StackedOperandStreams`.  Factory
        items are invoked only for invocations the cache cannot serve, so a
        fully warm batch skips operand generation entirely.
    sampling:
        Sampling configuration for the product/accumulator estimator.
    seeds:
        Per-invocation sampling seeds; defaults to ``range(batch)``, which is
        what the measurement harness uses for its seed loop.
    chunk:
        How many invocations to stack per pass.  Defaults to an automatic
        choice (:func:`recommended_chunk`, 8 bytes counted per operand
        value against the fixed 1 MiB budget); pass an explicit value to
        override.
    cache:
        Optional :class:`~repro.cache.store.ActivityCache` (or the
        ``DEFAULT_CACHE`` sentinel for the process-wide one).  ``None`` —
        the default — always estimates.
    keys:
        Per-invocation cache keys
        (:func:`~repro.cache.fingerprint.activity_fingerprint`), required
        when ``cache`` is given; ignored without a cache.
    """
    from repro.cache.store import resolve_activity_cache

    if isinstance(operands, StackedOperandStreams):
        if cache is not None:
            raise ActivityError(
                "pre-stacked streams cannot be combined with an activity cache; "
                "pass the per-invocation operands instead"
            )
        return _estimate_stacked(operands, sampling or SamplingConfig(), seeds)

    items: list[object] = list(operands)
    if not items:
        return []
    sampling = sampling or SamplingConfig()
    seed_list = list(seeds) if seeds is not None else list(range(len(items)))
    if len(seed_list) != len(items):
        raise ActivityError(
            f"got {len(seed_list)} seeds for a batch of {len(items)} invocations"
        )
    if chunk is not None and chunk < 1:
        raise ActivityError(f"chunk must be >= 1, got {chunk}")

    resolved = resolve_activity_cache(cache) if cache is not None else None
    reports: list[ActivityReport | None] = [None] * len(items)
    if resolved is not None:
        if keys is None:
            raise ActivityError("an activity cache needs per-invocation keys")
        key_list = list(keys)
        if len(key_list) != len(items):
            raise ActivityError(
                f"got {len(key_list)} keys for a batch of {len(items)} invocations"
            )
        missing = []
        for index, key in enumerate(key_list):
            hit = resolved.get(key)
            if hit is None:
                missing.append(index)
            else:
                reports[index] = hit
    else:
        key_list = None
        missing = list(range(len(items)))

    if missing:
        if chunk is None:
            first = _materialize(items[missing[0]])
            items[missing[0]] = first
            chunk = recommended_chunk(_per_invocation_values(first))
        for start in range(0, len(missing), chunk):
            group = missing[start : start + chunk]
            materialized = [_materialize(items[index]) for index in group]
            # Drop the item slots (each index is visited once) so operands —
            # including the one materialized above for chunk sizing — stay
            # alive only for their own chunk, keeping peak memory bounded by
            # the chunk even at paper scale (~70 MB per seed).
            for index in group:
                items[index] = None
            stacked = build_streams_stacked(materialized)
            estimated = _estimate_stacked(
                stacked, sampling, [seed_list[index] for index in group]
            )
            for index, report in zip(group, estimated):
                reports[index] = report
                if resolved is not None and key_list is not None:
                    resolved.put(key_list[index], report)
    return reports  # type: ignore[return-value]


class ActivityEngine:
    """Reusable activity estimator bound to sampling knobs and a cache.

    The engine is the unit the experiment harness holds on to: one instance
    per configuration, carrying the configuration's
    :class:`~repro.activity.sampler.SamplingConfig` and the activity cache
    to consult.  ``cache`` accepts an explicit
    :class:`~repro.cache.store.ActivityCache`, ``None`` to always estimate,
    or the ``DEFAULT_CACHE`` sentinel for the process-wide tier.
    """

    def __init__(
        self,
        sampling: SamplingConfig | None = None,
        cache: "object | None" = None,
    ) -> None:
        from repro.cache.store import resolve_activity_cache

        self.sampling = sampling or SamplingConfig()
        self.cache = resolve_activity_cache(cache) if cache is not None else None

    def estimate(
        self,
        operands: "OperandSource",
        seed: int = 0,
        key: str | None = None,
    ) -> ActivityReport:
        """Estimate one invocation, consulting the cache when ``key`` is given."""
        if self.cache is not None and key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        report = estimate_activity(_materialize(operands), sampling=self.sampling, seed=seed)
        if self.cache is not None and key is not None:
            self.cache.put(key, report)
        return report

    def estimate_batch(
        self,
        operands: "Sequence[OperandSource] | StackedOperandStreams",
        seeds: "Sequence[int] | range | None" = None,
        keys: "Sequence[str] | None" = None,
        chunk: int | None = None,
    ) -> list[ActivityReport]:
        """Batch counterpart of :meth:`estimate` (see
        :func:`estimate_activity_batch`); keys are dropped when the engine
        has no cache, so callers need not special-case disabled caching."""
        return estimate_activity_batch(
            operands,
            sampling=self.sampling,
            seeds=seeds,
            chunk=chunk,
            cache=self.cache,
            keys=keys if self.cache is not None else None,
        )


def _estimate_stacked(
    stacked: StackedOperandStreams,
    sampling: SamplingConfig,
    seeds: "Sequence[int] | range | None",
) -> list[ActivityReport]:
    """Run every component estimator's stacked fast path over one chunk."""
    if stacked.batch == 0:
        return []
    return [
        _report(stacked, *components)
        for components in zip(
            estimate_operand_activity_batch(stacked),
            estimate_multiplier_activity_batch(stacked),
            estimate_datapath_activity_batch(stacked, sampling, seeds=seeds),
            estimate_memory_activity_batch(stacked),
        )
    ]


def activity_from_matrices(
    a: np.ndarray,
    b_stored: np.ndarray,
    dtype: str = "fp16_t",
    transpose_b: bool = True,
    sampling: SamplingConfig | None = None,
    seed: int = 0,
) -> ActivityReport:
    """Convenience wrapper: estimate activity directly from two matrices."""
    a = np.asarray(a, dtype=np.float64)
    b_stored = np.asarray(b_stored, dtype=np.float64)
    n, k = a.shape
    m = b_stored.shape[0] if transpose_b else b_stored.shape[1]
    problem = GemmProblem(n=n, m=m, k=k, dtype=dtype, transpose_b=transpose_b)
    operands = GemmOperands(problem=problem, a=a, b_stored=b_stored)
    return estimate_activity(operands, sampling=sampling, seed=seed)
