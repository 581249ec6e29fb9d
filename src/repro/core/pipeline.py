"""The pure estimation pipeline: config in, measured result out.

This module is the side-effect-free core the rest of the system is built
around.  Given one :class:`~repro.experiments.config.ExperimentConfig` it

1. builds the configuration's :class:`~repro.experiments.plan.
   ExperimentPlan` — device, pattern, CUTLASS-style launch plan and
   telemetry monitor — once, shared by every seed;
2. for each requested seed, generates A and B from the plan's pattern
   (same pattern, different seeds; B stored transposed unless disabled) as
   the words the estimators read, and estimates switching activity — the
   requested seeds go through the batched activity engine in a single
   call, one :func:`seed_chunk` of seeds alive at a time;
3. runs the power model (with TDP throttling) and the runtime model;
4. simulates the DCGM 100 ms power trace for the full iteration loop,
   trims the first 500 ms of samples, and averages the rest;
5. aggregates across seeds into an :class:`ExperimentResult`.

A run may cover only some of a configuration's seeds
(``run(seeds=range(start, stop))``).  Every seed draws from its own
derived RNG streams, so a partial run's measurements are bit for bit the
ones a full run reports for the same seeds; the sweep runner uses that to
make seed chunks its unit of work.

Configurations that change one input property on top of the same base
draw (the paper's method) share that draw: :func:`run_seed_group` runs one
seed chunk of several configurations with equal :func:`shared_base_key`
and draws each ``(operand, seed)`` base once into a :class:`SharedBases`
memo.  Every configuration restores its own generator to the state right
after the base draw and applies its own transforms, so its words are bit
for bit those of a standalone run; the last consumer of a base frees it.

"Side-effect-free" means: no result-cache writes, no environment reads, no
global state beyond the (optional, injectable) activity cache tier —
everything observable is in the returned result, and the result is
a deterministic function of the config.  Orchestration concerns — the
content-addressed *result* cache, sweep deduplication, execution backends,
and the serving layer's request coalescing — live above this module:
:mod:`repro.experiments.harness` and :mod:`repro.experiments.sweep` wrap it
for one-shot and batch invocation, and :mod:`repro.serve` drives it from a
long-running server.  Both call exactly this code, which is what makes a
served response bit-for-bit identical to a local
:func:`repro.run_experiment` call.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro._deprecated import ignore_plan_cache
from repro.activity.engine import ActivityEngine, recommended_chunk
from repro.activity.report import ActivityReport
from repro.cache.fingerprint import activity_fingerprint
from repro.cache.store import DEFAULT_CACHE
from repro.dtypes.base import DTypeSpec
from repro.dtypes.registry import get_dtype
from repro.errors import ExperimentError, ReproError
from repro.experiments.plan import (
    ExperimentPlan,
    build_plan,
    build_problem,
    build_workload_pattern,
)
from repro.experiments.results import ExperimentResult, SeedMeasurement
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.launch import KernelLaunch
from repro.kernels.schedule import OperandStreams
from repro.patterns.base import Pattern, TransformedPattern
from repro.power.energy import EnergyEstimate
from repro.power.model import PowerModel
from repro.runtime.model import RuntimeModel
from repro.telemetry.dcgm import DcgmMonitor
from repro.telemetry.sampler import MIN_MEASUREMENT_DURATION_S
from repro.util.rng import derive_rng, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig

__all__ = [
    "MIN_MEASUREMENT_DURATION_S",
    "EstimationPipeline",
    "SharedBases",
    "estimate_experiment",
    "run_seed_group",
    "seed_chunk",
    "shared_base_key",
]


def seed_chunk(config: "ExperimentConfig") -> int:
    """How many of ``config``'s seeds the activity engine stacks per pass.

    The engine materializes one such chunk of operands at a time, and the
    sweep runner submits one executor task per chunk, so this also bounds
    what one worker holds: one seed at 256² and larger, several for small
    matrices (see :func:`~repro.activity.engine.recommended_chunk`).
    """
    problem = build_problem(config)
    return recommended_chunk(problem.n * problem.k + problem.m * problem.k)


def shared_base_key(
    config: "ExperimentConfig", pattern: Pattern | None = None
) -> "tuple | None":
    """Identity of the base operands ``config`` draws, or ``None`` if they
    are drawn per configuration.

    Configurations with equal keys draw the same A and B base words for
    every seed: same dtype, same A and B storage shapes, same ``base_seed``
    (hence the same :func:`~repro.util.rng.derive_rng` streams) and the
    same base pattern — ``TransformedPattern.base``, or the pattern itself
    — identified by its class and its canonical ``describe()``.  Only the
    classes of :mod:`repro.patterns` are trusted to describe everything
    they draw with, so any other base gets ``None``; so does a
    configuration whose pattern does not build (its run raises instead).
    ``pattern`` defaults to the configuration's workload pattern.
    """
    if pattern is None:
        try:
            pattern = build_workload_pattern(config)
        except (ReproError, ValueError):
            return None
    base = pattern.base if isinstance(pattern, TransformedPattern) else pattern
    cls = type(base)
    if cls.__module__.split(".")[:2] != ["repro", "patterns"]:
        return None
    problem = build_problem(config)
    return (
        get_dtype(config.dtype).name,
        problem.a_shape,
        problem.b_storage_shape,
        config.base_seed,
        f"{cls.__module__}.{cls.__qualname__}",
        json.dumps(base.describe(), sort_keys=True),
    )


class SharedBases:
    """Base operand words shared by the configurations of one seed group.

    Each ``(base key, operand, seed)`` that two or more consumers
    :meth:`expect` is drawn once, on first use, and kept read-only with the
    generator state right after the draw (a base with one consumer is
    drawn as usual).  Every consumer gets a fresh
    generator restored to that state and applies its own transforms, so
    its words are bit for bit those of a standalone draw.  The last
    consumer removes the entry: the memo holds one base pair per seed in
    flight, never one per configuration.  An entry whose remaining
    consumers skip generation (their seeds are in the activity cache)
    lives until the memo itself is dropped at the end of its group.  One
    memo serves one task on one thread; it is not thread-safe.
    """

    def __init__(self) -> None:
        self._pending: dict[tuple, int] = {}
        self._entries: dict[tuple, tuple[np.ndarray, dict]] = {}

    def expect(self, key: "tuple | None", seeds: "range") -> None:
        """Count one consumer of ``key``'s A and B bases for every seed in
        ``seeds`` (a ``None`` key shares nothing)."""
        if key is None:
            return
        for seed in seeds:
            for operand in ("A", "B"):
                entry = (key, operand, seed)
                self._pending[entry] = self._pending.get(entry, 0) + 1

    def draw(
        self,
        entry: tuple,
        pattern: Pattern,
        shape: tuple[int, int],
        spec: DTypeSpec,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``pattern.generate_words(shape, spec, rng)`` for the memo entry
        ``(base key, operand, seed)``, drawing its base at most once."""
        remaining = self._pending.pop(entry, 0)
        cached = self._entries.pop(entry, None)
        if cached is None:
            if remaining <= 1:  # nobody else wants this base
                return pattern.generate_words(shape, spec, rng)
            base = pattern.base if isinstance(pattern, TransformedPattern) else pattern
            words = base.generate_words(shape, spec, rng)
            words.flags.writeable = False
            cached = (words, rng.bit_generator.state)
        if remaining > 1:
            self._pending[entry] = remaining - 1
            self._entries[entry] = cached
        words, state = cached
        if not isinstance(pattern, TransformedPattern):
            return words
        bit_generator = type(rng.bit_generator)()
        bit_generator.state = state
        return pattern.transform_words(words, spec, np.random.Generator(bit_generator))


def run_seed_group(
    members: "Sequence[tuple[ExperimentConfig, int, int]]",
    activity_cache: "object | None" = DEFAULT_CACHE,
) -> Iterator[ExperimentResult]:
    """Run one seed group, yielding each member's partial result in order.

    ``members`` are seed chunks ``(config, start, stop)``, usually of
    configurations with equal :func:`shared_base_key`.  The group owns one
    :class:`SharedBases` memo: every member counts as a consumer of its
    key's bases up front, then runs ``EstimationPipeline(config).run(seeds=
    range(start, stop))`` drawing through the memo, so each base is drawn
    once per group and each result is bit for bit the standalone one.  A
    member's pipeline is built just before it runs, so an error raises at
    the ``next()`` that asked for that member.  The memo is freed with the
    generator, at the end of the group.
    """
    shared = SharedBases()
    for config, start, stop in members:
        shared.expect(shared_base_key(config), range(start, stop))
    for config, start, stop in members:
        pipeline = EstimationPipeline(
            config, activity_cache=activity_cache, shared_bases=shared
        )
        yield pipeline.run(seeds=range(start, stop))


class EstimationPipeline:
    """The pure estimation path for one configuration.

    Each pipeline builds its configuration's
    :class:`~repro.experiments.plan.ExperimentPlan` (device, pattern,
    launch plan, monitor) once and shares it across every seed it runs —
    all of the configuration's, or one sweep task's seed range — with its
    own power/runtime models and activity engine on top.  Pipelines share
    nothing *mutable* with each other except the thread-safe activity
    cache, so the sweep runner and the serving layer may drive many of
    them concurrently from thread workers.  The expensive part of a run is switching-activity
    estimation, whose kernels release the GIL inside NumPy (see
    :mod:`repro.util.bits`), which is what makes those threads scale.

    ``shared_bases`` (set by :func:`run_seed_group`) is a memo of base
    operand words shared with the other configurations of a seed group;
    the plan's pattern then draws its base through it.
    """

    def __init__(
        self,
        config: "ExperimentConfig",
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
        *,
        shared_bases: SharedBases | None = None,
    ) -> None:
        ignore_plan_cache(plan_cache)
        self.config = config
        self.plan: ExperimentPlan = build_plan(config)
        self.shared_bases = shared_bases
        self._base_key = (
            shared_base_key(config, self.plan.pattern) if shared_bases is not None else None
        )
        self.device = self.plan.device
        self.power_model = PowerModel(self.device)
        self.runtime_model = RuntimeModel()
        self.activity_engine = ActivityEngine(
            sampling=config.sampling, cache=activity_cache
        )

    # ------------------------------------------------------------------ API

    def run(self, seeds: "range | None" = None) -> ExperimentResult:
        """Run the configuration's seeds through the batched pipeline.

        ``seeds`` selects a contiguous, non-empty range of seed indices
        (default: all of them); the result then holds only those seeds'
        measurements, in seed order.  Problem, pattern, launch plan and
        telemetry monitor come from the pipeline's :class:`ExperimentPlan`
        and are shared by every seed; switching activity for the requested
        seeds goes through the :class:`ActivityEngine` in one call, which
        keeps one :func:`seed_chunk` of operands alive at a time.  Each
        seed is keyed by :func:`~repro.cache.fingerprint.activity_fingerprint` and
        operands are passed as factories, so seeds already in the activity
        cache (e.g. the same workload measured on another GPU) skip operand
        generation and estimation entirely.  The per-seed measurements are
        bit-for-bit identical to running each seed independently without
        any cache.
        """
        config = self.config
        if seeds is None:
            seeds = range(config.seeds)
        if not seeds or seeds.step != 1 or seeds.start < 0 or seeds.stop > config.seeds:
            raise ExperimentError(
                f"seeds must be a non-empty contiguous range within "
                f"range({config.seeds}), got {seeds!r}"
            )
        problem = self.plan.problem
        pattern = self.plan.pattern
        launch = self.plan.launch
        monitor = self.plan.monitor

        # The engine materializes operand factories chunk by chunk (matching
        # its own stacking granularity) so peak memory is one chunk of seeds,
        # not the whole batch — at paper scale a seed's operands are ~70 MB.
        factories = [
            partial(self.generate_streams, problem, index, pattern=pattern)
            for index in seeds
        ]
        keys = None
        if self.activity_engine.cache is not None:
            keys = [activity_fingerprint(config, seed=index) for index in seeds]
        reports: list[ActivityReport] = self.activity_engine.estimate_batch(
            factories, seeds=seeds, keys=keys, chunk=seed_chunk(config)
        )
        measurements = [
            self.measure_seed(index, launch, report, monitor)
            for index, report in zip(seeds, reports)
        ]
        description = config.describe()
        description["device"] = self.device.describe()
        return ExperimentResult(config=description, measurements=measurements)

    def generate_streams(
        self, problem: GemmProblem, seed_index: int, pattern: Pattern | None = None
    ) -> OperandStreams:
        """Draw one seed's A/B operand pair from the workload pattern, as
        the stack of one the estimators read (each operand encoded once).  The
        plan's pattern draws its bases through :attr:`shared_bases` when
        the pipeline has one."""
        spec = get_dtype(self.config.dtype)
        if pattern is None:
            pattern = self.plan.pattern
        return OperandStreams(
            dtype=spec,
            a_words=self._operand_words(pattern, problem.a_shape, spec, "A", seed_index),
            b_stored_words=self._operand_words(
                pattern, problem.b_storage_shape, spec, "B", seed_index
            ),
            transpose_b=problem.transpose_b,
        )

    def _operand_words(
        self,
        pattern: Pattern,
        shape: tuple[int, int],
        spec: DTypeSpec,
        operand: str,
        seed_index: int,
    ) -> np.ndarray:
        rng = derive_rng(self.config.base_seed, operand, seed_index)
        if self.shared_bases is None or pattern is not self.plan.pattern:
            return pattern.generate_words(shape, spec, rng)
        return self.shared_bases.draw(
            (self._base_key, operand, seed_index), pattern, shape, spec, rng
        )

    def generate_operands(
        self, problem: GemmProblem, seed_index: int, pattern: Pattern | None = None
    ) -> GemmOperands:
        """One seed's A/B operand pair as float values: the decode of
        :meth:`generate_streams`'s words."""
        streams = self.generate_streams(problem, seed_index, pattern=pattern)
        spec = streams.dtype
        return GemmOperands(
            problem=problem,
            a=spec.decode(streams.a_words[0]),
            b_stored=spec.decode(streams.b_stored_words[0]),
        )

    def measure_seed(
        self,
        seed_index: int,
        launch: KernelLaunch,
        activity: ActivityReport,
        monitor: DcgmMonitor,
    ) -> SeedMeasurement:
        """Power model, runtime model and simulated trace for one seed."""
        config = self.config
        power = self.power_model.estimate(
            launch,
            activity,
            include_process_variation=config.include_process_variation,
        )
        runtime = self.runtime_model.estimate(launch, clock_scale=power.clock_scale)

        # Size the simulated measurement window like the paper sizes its
        # iteration counts: long enough for stable 100 ms sampling.
        iterations = max(
            config.iterations,
            int(math.ceil(MIN_MEASUREMENT_DURATION_S / runtime.iteration_time_s)),
        )
        duration_s = iterations * runtime.iteration_time_s

        trace_seed = derive_seed(config.base_seed, "trace", seed_index)
        trace = monitor.power_trace(power.watts, duration_s, seed=trace_seed)
        trimmed = trace.trim_warmup(config.warmup_trim_s)
        measured_power = trimmed.mean_power_watts()

        energy = EnergyEstimate(
            power_watts=measured_power,
            iteration_time_s=runtime.iteration_time_s,
            iterations=iterations,
        )

        return SeedMeasurement(
            seed=seed_index,
            power_watts=measured_power,
            unconstrained_power_watts=power.unconstrained_watts,
            iteration_time_s=runtime.iteration_time_s,
            iteration_energy_j=energy.iteration_energy_j,
            activity_factor=power.activity_factor,
            throttled=power.throttled,
            clock_scale=power.clock_scale,
            activity=activity,
        )


def estimate_experiment(
    config: "ExperimentConfig",
    *,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
) -> ExperimentResult:
    """Estimate one configuration through the pure pipeline.

    This is the canonical entry point for consumers that manage their own
    result caching and orchestration (the serving layer, custom batch
    drivers): it never consults or writes the content-addressed *result*
    cache — only the injectable activity tier, which changes when the
    answer is computed, never what it is.  For the cache-consulting
    one-shot call, use :func:`repro.run_experiment`.  ``plan_cache`` is
    deprecated and ignored.  To spread one configuration's seeds over a
    pool, call :func:`repro.run_configs` with ``[config]``, ``cache=None``
    and ``dedupe=False``; the result is bit for bit this one.
    """
    ignore_plan_cache(plan_cache)
    return EstimationPipeline(config, activity_cache=activity_cache).run()
