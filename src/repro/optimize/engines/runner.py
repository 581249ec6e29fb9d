"""The orchestration layer: engines propose, the cached sweep stack evaluates.

:class:`OptimizationRunner` drives one engine to convergence.  Each
proposed batch is mapped onto :class:`ExperimentConfig` objects by the
engine's :class:`~repro.optimize.engines.space.ParameterSpace` and
submitted through :func:`repro.experiments.sweep.run_configs` — so every
evaluation consults both cache tiers, deduplicates, and fans out
over the serial/threads backends exactly like a sweep point.
A re-run of a deterministic study is therefore free: iteration N+1
re-proposals cost zero engine runs (asserted in
``benchmarks/bench_optimize.py``).

Constrained objectives are handled before the engine sees a value:

* ``mode="penalty"`` adds ``weight * violation`` to the minimization
  scalar — the engine is steered away from, but can travel through,
  infeasible regions;
* ``mode="filter"`` replaces infeasible values with ``math.inf`` — the
  engine can never accept an infeasible incumbent.

The runner also owns checkpointing: :meth:`OptimizationRunner.checkpoint`
captures engine state + history in one JSON document, and
:meth:`OptimizationRunner.from_checkpoint` resumes it bit-for-bit (the
resumed run's history is identical to an uninterrupted run's).

Study files (the CLI/`api.optimize` wire format) describe a whole run —
engine, space, base config, objective, constraint — as one JSON
document; see :func:`load_study` / :func:`run_study`.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import env, wire
from repro._deprecated import ignore_plan_cache
from repro.cache.store import DEFAULT_CACHE
from repro.errors import OptimizationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import RunStats, run_configs
from repro.optimize.engines.base import (
    INFEASIBLE,
    Evaluation,
    OptimizationEngine,
    Point,
    engine_from_state,
    get_engine,
)
from repro.optimize.engines.result import IterationRecord, OptimizationResult
from repro.optimize.engines.space import Dimension, ParameterSpace

__all__ = [
    "METRICS",
    "ConfigObjective",
    "Constraint",
    "OptimizationRunner",
    "STUDY_FORMAT",
    "CHECKPOINT_FORMAT",
    "load_study",
    "build_runner",
    "run_study",
]

#: Scalar metrics an objective or constraint may target on an
#: :class:`~repro.experiments.results.ExperimentResult`.
METRICS = (
    "mean_power_watts",
    "power_std_watts",
    "mean_iteration_time_s",
    "mean_iteration_energy_j",
    "mean_activity_factor",
    "mean_bit_alignment",
    "mean_hamming_fraction",
)

#: Wire-format tags.
STUDY_FORMAT = "repro.optimize.study/v1"
CHECKPOINT_FORMAT = "repro.optimize.checkpoint/v1"


@dataclass(frozen=True)
class ConfigObjective:
    """Minimize/maximize one result metric over experiment configurations."""

    base: ExperimentConfig
    metric: str = "mean_power_watts"
    mode: str = "min"

    _wire = wire.Wire(tag=("kind", "config"), tag_optional=True, keys={"base": "base_config"})

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise OptimizationError(
                f"unknown objective metric {self.metric!r}; known: {list(METRICS)}"
            )
        if self.mode not in ("min", "max"):
            raise OptimizationError(f"mode must be 'min' or 'max', got {self.mode!r}")

    def value(self, result: "Any") -> float:
        return float(getattr(result, self.metric))

    def signed(self, value: float) -> float:
        """The minimization scalar (engines always minimize)."""
        return value if self.mode == "min" else -value

    def as_dict(self) -> "dict[str, Any]":
        return {
            "kind": "config",
            "metric": self.metric,
            "mode": self.mode,
            "base_config": dataclasses.asdict(self.base),
        }

    from_dict = wire.from_dict("objective", OptimizationError)


@dataclass(frozen=True)
class Constraint:
    """Bound one metric; violations are penalized or filtered out.

    For callable objectives the only legal ``metric`` is ``"objective"``
    (the returned value itself); config objectives may constrain any
    :data:`METRICS` entry — e.g. minimize energy subject to
    ``mean_iteration_time_s <= t`` (iso-runtime co-design).
    """

    metric: str
    upper: "float | None" = None
    lower: "float | None" = None
    mode: str = "penalty"
    weight: float = 1000.0

    def __post_init__(self) -> None:
        if self.metric != "objective" and self.metric not in METRICS:
            raise OptimizationError(
                f"unknown constraint metric {self.metric!r}; known: "
                f"{['objective', *METRICS]}"
            )
        if self.upper is None and self.lower is None:
            raise OptimizationError("a constraint needs an upper and/or lower bound")
        for bound in ("upper", "lower"):
            wire.decode(float | None, getattr(self, bound), bound, OptimizationError)
        if self.mode not in ("penalty", "filter"):
            raise OptimizationError(
                f"constraint mode must be 'penalty' or 'filter', got {self.mode!r}"
            )
        if wire.require_real(self.weight, "weight", OptimizationError) <= 0:
            raise OptimizationError(f"constraint weight must be positive, got {self.weight}")

    def violation(self, value: float) -> float:
        amount = 0.0
        if self.upper is not None and value > self.upper:
            amount += value - self.upper
        if self.lower is not None and value < self.lower:
            amount += self.lower - value
        return amount

    def as_dict(self) -> "dict[str, Any]":
        return dataclasses.asdict(self)

    from_dict = wire.from_dict("constraint", OptimizationError)


@dataclass(frozen=True)
class _Checkpoint:
    """The top-level fields of a checkpoint document."""

    engine: str
    engine_state: "dict[str, Any]"
    objective: "dict[str, Any]"
    constraint: "Constraint | None" = None
    iterations: "list[IterationRecord]" = field(default_factory=list)
    evaluations: int = 0
    engine_runs: int = 0
    cache_hits: int = 0
    duration_s: float = 0.0

    _wire = wire.Wire(tag=("format", CHECKPOINT_FORMAT))


@dataclass(frozen=True)
class _Study:
    """The top-level fields of a study document (see :func:`load_study`)."""

    engine: str
    space: "list[dict[str, Any]]"
    base_config: "dict[str, Any]"
    description: str = ""
    engine_params: "dict[str, Any]" = field(default_factory=dict)
    objective: "dict[str, Any]" = field(default_factory=dict)
    constraint: "dict[str, Any] | None" = None

    _wire = wire.Wire(tag=("format", STUDY_FORMAT), tag_optional=True)


@dataclass(frozen=True)
class _StudyObjective:
    """A study's ``objective``: a :class:`ConfigObjective` minus its base."""

    metric: str = "mean_power_watts"
    mode: str = "min"


class OptimizationRunner:
    """Drive one engine to convergence through the cached sweep machinery."""

    def __init__(
        self,
        engine: OptimizationEngine,
        objective: "ConfigObjective | Callable[[Point], float]",
        *,
        constraint: "Constraint | None" = None,
        workers: int = 1,
        backend: str = "auto",
        cache: "object | None" = DEFAULT_CACHE,
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
        keep_results: bool = False,
        checkpoint_path: "str | Path | None" = None,
    ) -> None:
        if not isinstance(objective, ConfigObjective) and not callable(objective):
            raise OptimizationError("objective must be a ConfigObjective or a callable")
        ignore_plan_cache(plan_cache)
        if (
            constraint is not None
            and not isinstance(objective, ConfigObjective)
            and constraint.metric != "objective"
        ):
            raise OptimizationError(
                "callable objectives only support constraint metric 'objective'"
            )
        self.engine = engine
        self.objective = objective
        self.constraint = constraint
        self.space: ParameterSpace = engine.space
        self.workers = workers
        self.backend = backend
        self.cache = cache
        self.activity_cache = activity_cache
        self.keep_results = keep_results
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.history: "list[IterationRecord]" = []
        #: incumbent-best ExperimentResult after each iteration (config
        #: objectives with ``keep_results=True`` only; ``None`` entries
        #: before the first feasible evaluation)
        self.incumbent_results: "list[Any]" = []
        self._incumbent_result: "Any | None" = None
        self._evaluations = 0
        self._engine_runs = 0
        self._cache_hits = 0
        self._duration_s = 0.0

    # ------------------------------------------------------------ evaluation

    def _evaluate(self, points: "list[Point]") -> "tuple[list[Evaluation], dict[str, int], list[Any]]":
        if isinstance(self.objective, ConfigObjective):
            return self._evaluate_configs(points)
        evaluations = []
        for point in points:
            value = float(self.objective(point))
            evaluations.append(self._constrain(point, value, {"objective": value}, value))
        return evaluations, {}, [None] * len(points)

    def _evaluate_configs(
        self, points: "list[Point]"
    ) -> "tuple[list[Evaluation], dict[str, int], list[Any]]":
        objective = self.objective
        assert isinstance(objective, ConfigObjective)
        configs = [self.space.to_config(point, objective.base) for point in points]
        stats = RunStats()
        results = run_configs(
            configs,
            workers=self.workers,
            backend=self.backend,
            cache=self.cache,
            activity_cache=self.activity_cache,
            stats=stats,
        )
        evaluations = []
        for point, result in zip(points, results):
            raw = objective.value(result)
            metrics = {objective.metric: raw}
            constrained_value = raw
            if self.constraint is not None and self.constraint.metric != objective.metric:
                constrained_value = float(getattr(result, self.constraint.metric))
                metrics[self.constraint.metric] = constrained_value
            evaluations.append(
                self._constrain(point, objective.signed(raw), metrics, constrained_value)
            )
        counters = {
            "total": stats.total,
            "unique": stats.unique,
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
        }
        return evaluations, counters, results

    def _constrain(
        self,
        point: Point,
        scalar: float,
        metrics: "dict[str, float]",
        constrained_value: float,
    ) -> Evaluation:
        if self.constraint is None:
            return Evaluation(point=point, objective=scalar, feasible=True, metrics=metrics)
        violation = self.constraint.violation(constrained_value)
        if violation == 0.0:
            return Evaluation(point=point, objective=scalar, feasible=True, metrics=metrics)
        if self.constraint.mode == "filter":
            return Evaluation(point=point, objective=INFEASIBLE, feasible=False, metrics=metrics)
        return Evaluation(
            point=point,
            objective=scalar + self.constraint.weight * violation,
            feasible=False,
            metrics=metrics,
        )

    # ------------------------------------------------------------- the loop

    def step(self) -> "IterationRecord | None":
        """One propose → evaluate → ingest round (``None`` once converged)."""
        if self.engine.is_converged:
            return None
        proposals = self.engine.propose()
        if not proposals:
            return None
        started = time.perf_counter()
        points = [self.space.clip(point) for point in proposals]
        evaluations, counters, results = self._evaluate(points)
        self.engine.ingest(evaluations)
        self._evaluations += len(points)
        self._engine_runs += counters.get("executed", 0)
        self._cache_hits += counters.get("cache_hits", 0)
        self._duration_s += time.perf_counter() - started

        best = self.engine.best
        if self.keep_results and best is not None:
            for point, result in zip(points, results):
                if result is not None and point == dict(best.point):
                    self._incumbent_result = result
        self.incumbent_results.append(self._incumbent_result)

        record = IterationRecord(
            index=len(self.history),
            proposals=points,
            objectives=[e.objective for e in evaluations],
            feasible=[e.feasible for e in evaluations],
            best_point=None if best is None else dict(best.point),
            best_objective=None if best is None else best.objective,
            run_stats=counters,
        )
        self.history.append(record)
        if self.checkpoint_path is not None:
            self.save_checkpoint(self.checkpoint_path)
        return record

    def run(self, *, max_evaluations: "int | None" = None) -> OptimizationResult:
        """Iterate to convergence (or an evaluation budget) and summarize."""
        if max_evaluations is not None and max_evaluations < 1:
            raise OptimizationError(f"max_evaluations must be >= 1, got {max_evaluations}")
        while self.step() is not None:
            if max_evaluations is not None and self._evaluations >= max_evaluations:
                break
        return self.result()

    def result(self) -> OptimizationResult:
        best = self.engine.best
        feasible = getattr(self.engine, "feasible", None)
        if feasible is None:
            feasible = best is not None and best.feasible
        objective_spec = (
            self.objective.as_dict()
            if isinstance(self.objective, ConfigObjective)
            else {"kind": "callable"}
        )
        if self.constraint is not None:
            objective_spec = dict(objective_spec)
            objective_spec["constraint"] = self.constraint.as_dict()
        return OptimizationResult(
            engine=self.engine.name,
            iterations=list(self.history),
            best_point=None if best is None else dict(best.point),
            best_objective=None if best is None else best.objective,
            best_metrics={} if best is None else dict(best.metrics),
            best_feasible=bool(feasible),
            converged=self.engine.is_converged,
            evaluations=self._evaluations,
            engine_runs=self._engine_runs,
            cache_hits=self._cache_hits,
            space=self.space.as_dict(),
            objective=objective_spec,
            duration_s=self._duration_s,
        )

    # ----------------------------------------------------------- checkpoint

    def checkpoint(self) -> "dict[str, Any]":
        """JSON document sufficient for a bit-for-bit resume."""
        objective_spec = (
            self.objective.as_dict()
            if isinstance(self.objective, ConfigObjective)
            else {"kind": "callable"}
        )
        return {
            "format": CHECKPOINT_FORMAT,
            "engine": self.engine.name,
            "engine_state": self.engine.state_dict(),
            "objective": objective_spec,
            "constraint": None if self.constraint is None else self.constraint.as_dict(),
            "iterations": [record.as_dict() for record in self.history],
            "evaluations": self._evaluations,
            "engine_runs": self._engine_runs,
            "cache_hits": self._cache_hits,
            "duration_s": self._duration_s,
        }

    def save_checkpoint(self, path: "str | Path") -> Path:
        return wire.save_json(path, self.checkpoint())

    @classmethod
    def from_checkpoint(
        cls,
        source: "str | Path | Mapping[str, Any]",
        *,
        objective: "Callable[[Point], float] | None" = None,
        workers: int = 1,
        backend: str = "auto",
        cache: "object | None" = DEFAULT_CACHE,
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
        keep_results: bool = False,
        checkpoint_path: "str | Path | None" = None,
    ) -> "OptimizationRunner":
        """Rebuild a runner mid-flight from :meth:`checkpoint` output.

        Config objectives are self-contained; a checkpoint of a *callable*
        objective stores only the marker ``{"kind": "callable"}`` and the
        caller must pass the callable back in.  ``plan_cache`` is deprecated
        and ignored.
        """
        ignore_plan_cache(plan_cache)
        if not isinstance(source, Mapping):
            source = wire.load_json(source, "checkpoint", OptimizationError)
        state = wire.decode(_Checkpoint, source, "checkpoint", OptimizationError)
        engine = engine_from_state(state.engine_state)
        resolved: "ConfigObjective | Callable[[Point], float] | None" = objective
        if state.objective.get("kind") != "callable":
            resolved = wire.decode(
                ConfigObjective, state.objective, "checkpoint.objective", OptimizationError
            )
        elif objective is None:
            raise OptimizationError(
                "this checkpoint used a callable objective; pass objective= to resume"
            )
        runner = cls(
            engine,
            resolved,
            constraint=state.constraint,
            workers=workers,
            backend=backend,
            cache=cache,
            activity_cache=activity_cache,
            keep_results=keep_results,
            checkpoint_path=checkpoint_path,
        )
        runner.history = state.iterations
        runner._evaluations = state.evaluations
        runner._engine_runs = state.engine_runs
        runner._cache_hits = state.cache_hits
        runner._duration_s = state.duration_s
        return runner


# ------------------------------------------------------------------ studies


def load_study(source: "str | Path | Mapping[str, Any]") -> "dict[str, Any]":
    """Read and validate a study document (path or already-parsed mapping).

    A study names everything one optimization run needs::

        {
          "format": "repro.optimize.study/v1",
          "engine": "nelder_mead",
          "engine_params": {"seed": 0, "max_iterations": 20},
          "space": [{"name": "sparsity", "low": 0.0, "high": 0.95}],
          "base_config": {"pattern_family": "sparsity", "matrix_size": 128},
          "objective": {"metric": "mean_power_watts", "mode": "min"},
          "constraint": {"metric": "mean_iteration_time_s", "upper": 0.01}
        }

    The top-level fields decode through :mod:`repro.wire`, so an unknown
    one is rejected — a misspelled knob must not silently optimize
    something else.  :func:`build_runner` decodes the nested ones.
    """
    if not isinstance(source, Mapping):
        source = wire.load_json(source, "study", OptimizationError)
    return wire.read(_Study, source, "study", OptimizationError)


def build_runner(
    study: "str | Path | Mapping[str, Any]",
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    keep_results: bool = False,
    checkpoint_path: "str | Path | None" = None,
) -> OptimizationRunner:
    """Build a ready-to-run :class:`OptimizationRunner` from a study.

    When the study's ``engine_params`` carry no ``seed``, seeded engines
    default to ``REPRO_OPT_SEED`` (default ``0``), so an entire study is
    replayable from the environment alone.  ``plan_cache`` is deprecated
    and ignored.
    """
    ignore_plan_cache(plan_cache)
    payload = load_study(study)
    error = OptimizationError
    space = ParameterSpace(wire.decode(list[Dimension], payload["space"], "study.space", error))
    engine_cls = get_engine(payload["engine"])
    engine_params = dict(payload.get("engine_params", {}))
    signature = inspect.signature(engine_cls.__init__)
    if "seed" in signature.parameters and "seed" not in engine_params:
        engine_params["seed"] = env.read("REPRO_OPT_SEED")
    try:
        engine = engine_cls(space, **engine_params)
    except TypeError as exc:
        raise OptimizationError(
            f"invalid engine_params for {payload['engine']!r}: {exc}"
        ) from exc
    objective = ConfigObjective(
        base=wire.decode(ExperimentConfig, payload["base_config"], "study.base_config", error),
        **wire.read(_StudyObjective, payload.get("objective", {}), "study.objective", error),
    )
    return OptimizationRunner(
        engine,
        objective,
        constraint=wire.decode(
            Constraint | None, payload.get("constraint"), "study.constraint", error
        ),
        workers=workers,
        backend=backend,
        cache=cache,
        activity_cache=activity_cache,
        keep_results=keep_results,
        checkpoint_path=checkpoint_path,
    )


def run_study(
    study: "str | Path | Mapping[str, Any]",
    *,
    workers: int = 1,
    backend: str = "auto",
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    max_evaluations: "int | None" = None,
    checkpoint_path: "str | Path | None" = None,
) -> OptimizationResult:
    """Run a study document end to end and return its result.

    ``plan_cache`` is deprecated and ignored."""
    ignore_plan_cache(plan_cache)
    runner = build_runner(
        study,
        workers=workers,
        backend=backend,
        cache=cache,
        activity_cache=activity_cache,
        checkpoint_path=checkpoint_path,
    )
    return runner.run(max_evaluations=max_evaluations)
