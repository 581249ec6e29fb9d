"""Top-level switching-activity engine.

``estimate_activity_batch`` combines the per-component estimators into one
:class:`~repro.activity.report.ActivityReport` per invocation of a batch of
same-shape GEMM invocations (e.g. the seeds of one sweep task): each
operand is encoded once, a chunk of invocations is stacked along the seed
axis, and every component estimator makes one pass over the stack.
``estimate_activity`` is the same path for a batch of one.

The engine is cache-aware: given an
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

from repro.activity.accumulator import DatapathActivity, estimate_datapath_activity_batch
from repro.activity.counts import StackCounts
from repro.activity.memory_traffic import MemoryActivity, estimate_memory_activity_batch
from repro.activity.multiplier import MultiplierActivity, estimate_multiplier_activity_batch
from repro.activity.operand_bus import OperandActivity, estimate_operand_activity_batch
from repro.activity.report import ActivityReport
from repro.activity.sampler import SamplingConfig
from repro.errors import ActivityError
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.schedule import OperandStreams, build_streams_stacked
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
        pre-built :class:`~repro.kernels.schedule.OperandStreams` of one
        invocation.
    sampling:
        Sampling configuration for the product/accumulator estimator.
    seed:
        Extra seed mixed into the sampling RNG so repeated invocations with
        different seeds sample different output positions.
    """
    return estimate_activity_batch([operands], sampling=sampling, seeds=[seed])[0]


def _report(
    streams: OperandStreams,
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
    """Invoke a factory item if needed and check it is one invocation."""
    if callable(item) and not isinstance(item, (GemmOperands, OperandStreams)):
        item = item()
    if not isinstance(item, (GemmOperands, OperandStreams)):
        raise ActivityError(
            "estimate_activity_batch expects GemmOperands, OperandStreams, "
            f"or factories returning them; got {type(item).__name__}"
        )
    if isinstance(item, OperandStreams) and item.batch != 1:
        raise ActivityError(
            f"each batch item must be one invocation, got a stack of {item.batch}"
        )
    return item


def _per_invocation_values(item: "GemmOperands | OperandStreams") -> int:
    if isinstance(item, GemmOperands):
        return item.a.size + item.b_stored.size
    return item.a_words.size + item.b_stored_words.size


def estimate_activity_batch(
    operands: "Sequence[OperandSource] | OperandStreams",
    sampling: SamplingConfig | None = None,
    seeds: "Sequence[int] | range | None" = None,
    chunk: int | None = None,
    cache: "object | None" = None,
    keys: "Sequence[str] | None" = None,
) -> list[ActivityReport]:
    """Estimate switching activity for a batch of same-shape GEMM invocations.

    Each operand is encoded once, the words of a chunk are stacked along
    the seed axis and every component estimator makes one pass over the
    stack.  A report depends only on its own invocation and seed, never on
    the chunking, so the reports are the same at any ``chunk``.

    Parameters
    ----------
    operands:
        A sequence of one-invocation items sharing shape, dtype and
        transposition — :class:`~repro.kernels.gemm.GemmOperands`,
        pre-built :class:`~repro.kernels.schedule.OperandStreams` stacks of
        one, or zero-argument factories returning either — or one
        :class:`~repro.kernels.schedule.OperandStreams` stack, whose slices
        are the items.  Factory items are invoked only for invocations the
        cache cannot serve, so a fully warm batch skips operand generation
        entirely.
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

    if chunk is not None and chunk < 1:
        raise ActivityError(f"chunk must be >= 1, got {chunk}")
    if isinstance(operands, OperandStreams):
        operands = [operands.slice(index) for index in range(operands.batch)]
    items: list[object] = list(operands)
    if not items:
        return []
    sampling = sampling or SamplingConfig()
    seed_list = _seed_list(seeds, len(items))

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
            items[missing[0]] = _materialize(items[missing[0]])
            chunk = recommended_chunk(_per_invocation_values(items[missing[0]]))
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
            del materialized
            estimated = _estimate_stacked(
                stacked, sampling, [seed_list[index] for index in group]
            )
            # Free this chunk's operands before the next pass materializes
            # its own: rebinding the names there would free them one chunk
            # late.
            del stacked
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
        return estimate_activity_batch(
            [operands],
            sampling=self.sampling,
            seeds=[seed],
            cache=self.cache if key is not None else None,
            keys=[key],
        )[0]

    def estimate_batch(
        self,
        operands: "Sequence[OperandSource] | OperandStreams",
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


def _seed_list(seeds: "Sequence[int] | range | None", batch: int) -> "list[int]":
    """One sampling seed per invocation; ``range(batch)`` by default."""
    seed_list = list(seeds) if seeds is not None else list(range(batch))
    if len(seed_list) != batch:
        raise ActivityError(f"got {len(seed_list)} seeds for a batch of {batch} invocations")
    return seed_list


def _estimate_stacked(
    stacked: OperandStreams,
    sampling: SamplingConfig,
    seeds: "Sequence[int] | range | None",
) -> list[ActivityReport]:
    """Run every component estimator over one chunk's stack.

    One counts stage per stack: the operand bus, multiplier and memory
    estimators reduce the same integer counts, each made once.  The
    datapath reads the words of sampled outputs only, which no shared
    count covers.
    """
    counts = StackCounts(stacked)
    return [
        _report(stacked, *components)
        for components in zip(
            estimate_operand_activity_batch(stacked, counts),
            estimate_multiplier_activity_batch(stacked, counts),
            estimate_datapath_activity_batch(stacked, sampling, seeds=seeds),
            estimate_memory_activity_batch(stacked, counts),
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
    return estimate_activity_batch([operands], sampling=sampling, seeds=[seed])[0]
