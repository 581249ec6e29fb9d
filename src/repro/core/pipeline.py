"""The pure estimation pipeline: config in, measured result out.

This module is the side-effect-free core the rest of the system is built
around.  Given one :class:`~repro.experiments.config.ExperimentConfig` it

1. builds the configuration's :class:`~repro.experiments.plan.
   ExperimentPlan` — device, pattern, CUTLASS-style launch plan and
   telemetry monitor — once, shared by every seed;
2. for each seed, generates A and B from the plan's pattern (same pattern,
   different seeds; B stored transposed unless disabled) as the words the
   estimators read, and estimates switching activity — all seeds go
   through the batched activity engine in a single call;
3. runs the power model (with TDP throttling) and the runtime model;
4. simulates the DCGM 100 ms power trace for the full iteration loop,
   trims the first 500 ms of samples, and averages the rest;
5. aggregates across seeds into an :class:`ExperimentResult`.

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

import math
from functools import partial
from typing import TYPE_CHECKING

from repro._deprecated import ignore_plan_cache
from repro.activity.engine import (
    ActivityEngine,
    estimate_activity,
    recommended_chunk,
)
from repro.activity.report import ActivityReport
from repro.cache.fingerprint import activity_fingerprint
from repro.cache.store import DEFAULT_CACHE
from repro.dtypes.registry import get_dtype
from repro.experiments.plan import (
    ExperimentPlan,
    build_plan,
    build_problem,
    build_workload_pattern,
)
from repro.experiments.results import ExperimentResult, SeedMeasurement
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.launch import KernelLaunch, plan_launch
from repro.kernels.schedule import OperandStreams
from repro.patterns.base import Pattern
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
    "estimate_experiment",
]

class EstimationPipeline:
    """The pure estimation path for one configuration.

    Each pipeline builds its configuration's
    :class:`~repro.experiments.plan.ExperimentPlan` (device, pattern,
    launch plan, monitor) once and shares it across all of the
    configuration's seeds, with its own power/runtime models and activity
    engine on top.  Pipelines share nothing *mutable* with each other
    except the thread-safe activity cache, so the sweep runner and the
    serving layer may drive many of them concurrently from thread
    workers.  The expensive part of a run is switching-activity
    estimation, whose kernels release the GIL inside NumPy (see
    :mod:`repro.util.bits`), which is what makes those threads scale.
    """

    def __init__(
        self,
        config: "ExperimentConfig",
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
    ) -> None:
        ignore_plan_cache(plan_cache)
        self.config = config
        self.plan: ExperimentPlan = build_plan(config)
        self.device = self.plan.device
        self.power_model = PowerModel(self.device)
        self.runtime_model = RuntimeModel()
        self.activity_engine = ActivityEngine(
            sampling=config.sampling, cache=activity_cache
        )

    # ------------------------------------------------------------------ API

    def run(self) -> ExperimentResult:
        """Run all seeds of the configuration through the batched pipeline.

        Problem, pattern, launch plan and telemetry monitor come from the
        pipeline's :class:`ExperimentPlan` and are shared by every seed;
        switching activity for the whole seed batch goes through the
        :class:`ActivityEngine` in one call.  Each seed is
        keyed by :func:`~repro.cache.fingerprint.activity_fingerprint` and
        operands are passed as factories, so seeds already in the activity
        cache (e.g. the same workload measured on another GPU) skip operand
        generation and estimation entirely.  The per-seed measurements are
        bit-for-bit identical to running each seed independently without
        any cache.
        """
        config = self.config
        problem = self.plan.problem
        pattern = self.plan.pattern
        launch = self.plan.launch
        monitor = self.plan.monitor

        # The engine materializes operand factories chunk by chunk (matching
        # its own stacking granularity) so peak memory is one chunk of seeds,
        # not the whole batch — at paper scale a seed's operands are ~70 MB.
        # The chunk is sized from the fixed 1 MiB working-set budget
        # (repro.parallel.calibrate).
        per_invocation = problem.n * problem.k + problem.m * problem.k
        chunk = recommended_chunk(per_invocation)
        factories = [
            partial(self.generate_streams, problem, index, pattern=pattern)
            for index in range(config.seeds)
        ]
        keys = None
        if self.activity_engine.cache is not None:
            keys = [
                activity_fingerprint(config, seed=index)
                for index in range(config.seeds)
            ]
        reports: list[ActivityReport] = self.activity_engine.estimate_batch(
            factories, seeds=range(config.seeds), keys=keys, chunk=chunk
        )
        measurements = [
            self.measure_seed(index, launch, report, monitor)
            for index, report in enumerate(reports)
        ]
        description = config.describe()
        description["device"] = self.device.describe()
        return ExperimentResult(config=description, measurements=measurements)

    def generate_streams(
        self, problem: GemmProblem, seed_index: int, pattern: Pattern | None = None
    ) -> OperandStreams:
        """Draw one seed's A/B operand pair from the workload pattern, as
        the words the estimators read (each operand encoded once)."""
        spec = get_dtype(self.config.dtype)
        if pattern is None:
            pattern = self.plan.pattern
        rng_a = derive_rng(self.config.base_seed, "A", seed_index)
        rng_b = derive_rng(self.config.base_seed, "B", seed_index)
        return OperandStreams(
            dtype=spec,
            a_words=pattern.generate_words(problem.a_shape, spec, rng_a),
            b_stored_words=pattern.generate_words(problem.b_storage_shape, spec, rng_b),
            transpose_b=problem.transpose_b,
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
            a=spec.decode(streams.a_words),
            b_stored=spec.decode(streams.b_stored_words),
        )

    def run_seed_reference(self, seed_index: int) -> SeedMeasurement:
        """Run a single seed end to end (the unbatched reference path).

        Deliberately bypasses the plan: problem, pattern, launch and
        monitor are rebuilt from scratch so this path stays an independent
        reference for the plan-sharing equivalence tests.
        """
        config = self.config
        problem = build_problem(config)
        operands = self.generate_operands(
            problem, seed_index, pattern=build_workload_pattern(config)
        )
        launch = plan_launch(problem, self.device)
        activity = estimate_activity(operands, sampling=config.sampling, seed=seed_index)
        monitor = DcgmMonitor(self.device, config=config.telemetry)
        return self.measure_seed(seed_index, launch, activity, monitor)

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
    deprecated and ignored.
    """
    ignore_plan_cache(plan_cache)
    return EstimationPipeline(config, activity_cache=activity_cache).run()
