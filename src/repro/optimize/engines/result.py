"""Replayable history of one optimization run.

An :class:`OptimizationResult` records, per engine iteration, what was
proposed, what it scored, and what the evaluation *cost* (the
``run_configs`` counters: engine runs vs cache hits) — enough to replay,
diff, and audit a run.  :meth:`OptimizationResult.summary` is the replay
contract used by ``python -m repro.optimize --expect``: floats rounded
to six decimals, wall-clock and cache counters excluded, so the same
study with the same seed produces the identical summary on any machine
and any cache temperature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro import wire
from repro.errors import OptimizationError
from repro.optimize.engines.base import INFEASIBLE, Point

__all__ = ["IterationRecord", "OptimizationResult", "RESULT_FORMAT"]

#: Wire-format tag checked by :meth:`OptimizationResult.from_dict`.
RESULT_FORMAT = "repro.optimize.result/v1"


def _encode_objective(value: "float | None") -> "float | None":
    if value is None or math.isinf(value):
        return None
    return float(value)


def _round(value: "float | None", digits: int = 6) -> "float | None":
    return None if value is None else round(float(value), digits)


def _infeasible_if_nulls(objectives: "list[float | None]") -> "list[float]":
    """Wire objectives: ``null`` is the :data:`INFEASIBLE` a filter wrote."""
    return [INFEASIBLE if value is None else value for value in objectives]


@dataclass(frozen=True)
class IterationRecord:
    """One propose → evaluate → ingest round."""

    index: int
    proposals: "list[Point]"
    #: minimization objective per proposal; ``None`` = rejected by a
    #: feasibility filter (internally ``math.inf``)
    objectives: "list[float | None]"
    feasible: "list[bool]"
    best_point: "Point | None"
    best_objective: "float | None"
    #: ``run_configs`` counters for this batch ({} for callable objectives)
    run_stats: "dict[str, int]" = field(default_factory=dict)

    _wire = wire.Wire(convert={"objectives": (list[float | None], _infeasible_if_nulls)})

    def as_dict(self) -> "dict[str, Any]":
        return {
            **asdict(self),
            "objectives": [_encode_objective(v) for v in self.objectives],
            "best_objective": _encode_objective(self.best_objective),
        }

    from_dict = wire.from_dict("iteration", OptimizationError)


@dataclass
class OptimizationResult:
    """Everything one optimization run did, in replayable form."""

    engine: str
    iterations: "list[IterationRecord]"
    best_point: "Point | None"
    best_objective: "float | None"
    best_metrics: "dict[str, float]"
    best_feasible: bool
    converged: bool
    evaluations: int
    #: configurations actually computed by the estimation engine (sum of
    #: per-iteration ``executed``) — 0 on a fully warm replay
    engine_runs: int
    #: configurations served from the result cache (sum of ``cache_hits``)
    cache_hits: int
    space: "list[dict[str, Any]] | None"
    objective: "dict[str, Any]"
    duration_s: float = 0.0

    _wire = wire.Wire(tag=("format", RESULT_FORMAT))

    # ---------------------------------------------------------------- views

    def trajectory(self) -> "list[float | None]":
        """Best-so-far objective after each iteration."""
        return [record.best_objective for record in self.iterations]

    def summary(self) -> "dict[str, Any]":
        """Machine-independent replay digest (see ``--expect``).

        Deterministic for a fixed study + seed: floats are rounded to six
        decimals and the cost counters (cache temperature) and wall-clock
        are deliberately absent.
        """
        return {
            "engine": self.engine,
            "iterations": len(self.iterations),
            "evaluations": self.evaluations,
            "converged": self.converged,
            "feasible": self.best_feasible,
            "best_point": (
                None
                if self.best_point is None
                else {k: _round(v) for k, v in sorted(self.best_point.items())}
            ),
            "best_objective": _round(self.best_objective),
            "trajectory": [_round(v) for v in self.trajectory()],
        }

    def render(self) -> str:
        """Human-readable trajectory table."""
        lines = [
            f"=== optimization: engine={self.engine} "
            f"converged={self.converged} feasible={self.best_feasible} ===",
            f"{'iter':>4}  {'evals':>5}  {'best objective':>16}  {'engine runs':>11}  {'cache hits':>10}",
        ]
        for record in self.iterations:
            best = record.best_objective
            lines.append(
                f"{record.index:>4}  {len(record.proposals):>5}  "
                f"{'-' if best is None else format(best, '>16.6f'):>16}  "
                f"{record.run_stats.get('executed', 0):>11}  "
                f"{record.run_stats.get('cache_hits', 0):>10}"
            )
        best_point = (
            "n/a"
            if self.best_point is None
            else ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.best_point.items()))
        )
        lines.append(f"best point: {best_point}")
        if self.best_objective is not None:
            lines.append(f"best objective: {self.best_objective:.6f}")
        lines.append(
            f"totals: {self.evaluations} evaluations, {self.engine_runs} engine runs, "
            f"{self.cache_hits} cache hits, {self.duration_s:.3f}s"
        )
        return "\n".join(lines)

    # ----------------------------------------------------------------- wire

    def as_dict(self) -> "dict[str, Any]":
        return {
            "format": RESULT_FORMAT,
            **asdict(self),
            "iterations": [record.as_dict() for record in self.iterations],
            "best_objective": _encode_objective(self.best_objective),
        }

    from_dict = wire.from_dict("result", OptimizationError)

    def save_json(self, path: "str | Path") -> Path:
        return wire.save_json(path, self.as_dict())

    @classmethod
    def load(cls, path: "str | Path") -> "OptimizationResult":
        return cls.from_dict(wire.load_json(path, "optimization result", OptimizationError))
