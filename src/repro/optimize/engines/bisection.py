"""Bisection engine for monotone 1-D threshold questions.

Answers "what is the boundary of the feasible region?" for a monotone
objective: given a target value and the direction of monotonicity, find
the tightest ``x`` with ``f(x) <= target``.

* ``direction="decreasing"`` (power vs sparsity, the paper's T12): the
  feasible region is ``[x*, high]``; the engine finds the *smallest*
  feasible ``x``.  This is exactly the search
  :func:`repro.optimize.power_capping.find_sparsity_for_cap` needs.
* ``direction="increasing"``: the feasible region is ``[low, x*]``; the
  engine finds the *largest* feasible ``x``.

Evaluation order is fixed — trivial bound first, far bound second, then
midpoints — and reproduces the retired ad-hoc loop in ``power_capping``
bit for bit: same probes, same bracket updates, same stop condition
(bracket width ``<= tolerance`` checked after each midpoint, capped at
``max_iterations`` midpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import wire
from repro.errors import OptimizationError
from repro.optimize.engines.base import (
    Evaluation,
    OptimizationEngine,
    Point,
    register_engine,
)
from repro.optimize.engines.space import Dimension, ParameterSpace

__all__ = ["BisectionEngine"]

#: State-machine phases, in evaluation order.
_PHASES = ("near", "far", "search", "done")


@dataclass
class _State:
    """A checkpoint, as :meth:`BisectionEngine.state_dict` writes it."""

    engine: str
    space: "list[Dimension]"
    target: float
    direction: str
    tolerance: float
    max_iterations: int
    low: float
    high: float
    phase: str
    iteration: int
    feasible: bool
    best: "Evaluation | None" = None


@register_engine("bisection")
class BisectionEngine(OptimizationEngine):
    """Monotone bisection over a single dimension.

    ``space`` must be one-dimensional; ``target`` is compared against the
    *ingested objective value* directly (use a min-mode objective — the
    engine answers a threshold question, it does not minimize).
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        target: float,
        direction: str = "decreasing",
        tolerance: float = 0.01,
        max_iterations: int = 12,
    ) -> None:
        super().__init__()
        if len(space) != 1:
            raise OptimizationError(
                f"bisection is one-dimensional; the space has {len(space)} dimensions"
            )
        if direction not in ("decreasing", "increasing"):
            raise OptimizationError(
                f"direction must be 'decreasing' or 'increasing', got {direction!r}"
            )
        if tolerance <= 0:
            raise OptimizationError(f"tolerance must be positive, got {tolerance}")
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        self.space = space
        self.dimension = space.names[0]
        self.target = float(target)
        self.direction = direction
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        dim = space.dimensions[0]
        self._low = dim.low
        self._high = dim.high
        self._phase = "near"
        self._iteration = 0
        self._feasible = False

    # ------------------------------------------------------------- helpers

    def _point(self, x: float) -> Point:
        return {self.dimension: float(x)}

    def _meets_target(self, value: float) -> bool:
        return value <= self.target

    @property
    def _near(self) -> float:
        """The trivially-best end of the bracket (probed first)."""
        return self._low if self.direction == "decreasing" else self._high

    @property
    def _far(self) -> float:
        """The most-feasible end of the bracket (probed second)."""
        return self._high if self.direction == "decreasing" else self._low

    @property
    def bracket(self) -> "tuple[float, float]":
        """Current ``(low, high)`` bracket around the feasibility boundary."""
        return (self._low, self._high)

    @property
    def feasible(self) -> bool:
        """Whether any probed point met the target."""
        return self._feasible

    @property
    def iteration(self) -> int:
        """Midpoint evaluations performed so far."""
        return self._iteration

    # ------------------------------------------------------------- protocol

    def propose(self) -> "list[Point]":
        if self._phase == "near":
            return [self._point(self._near)]
        if self._phase == "far":
            return [self._point(self._far)]
        if self._phase == "search":
            return [self._point(0.5 * (self._low + self._high))]
        return []

    def ingest(self, evaluations: "Iterable[Evaluation]") -> None:
        batch = list(evaluations)
        self._check_batch(self.propose(), batch)
        if self._phase == "done":
            raise OptimizationError("bisection engine is already converged")
        (evaluation,) = batch
        value = evaluation.objective
        if self._phase == "near":
            if self._meets_target(value):
                # The whole bracket is feasible: the near end is the answer.
                self._feasible = True
                self._observe(evaluation)
                self._phase = "done"
            else:
                self._phase = "far"
            return
        if self._phase == "far":
            if not self._meets_target(value):
                # Even the far end misses the target: infeasible; keep the
                # best attempt so callers can report how close it came.
                self._best = evaluation
                self._phase = "done"
            else:
                self._feasible = True
                self._best = evaluation
                self._phase = "search"
            return
        # search: shrink the bracket toward the boundary.
        mid = evaluation.point[self.dimension]
        self._iteration += 1
        if self._meets_target(value):
            self._feasible = True
            self._best = evaluation
            if self.direction == "decreasing":
                self._high = mid
            else:
                self._low = mid
        else:
            if self.direction == "decreasing":
                self._low = mid
            else:
                self._high = mid
        if self._high - self._low <= self.tolerance or self._iteration >= self.max_iterations:
            self._phase = "done"

    @property
    def is_converged(self) -> bool:
        return self._phase == "done"

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> "dict[str, Any]":
        return {
            "engine": self.name,
            "space": self.space.as_dict(),
            "target": self.target,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "low": self._low,
            "high": self._high,
            "phase": self._phase,
            "iteration": self._iteration,
            "feasible": self._feasible,
            "best": self._best_state(),
        }

    @classmethod
    def from_state(cls, state: "Mapping[str, Any]") -> "BisectionEngine":
        saved = wire.decode(_State, state, "bisection state", OptimizationError)
        if saved.phase not in _PHASES:
            raise OptimizationError(f"unknown bisection phase {saved.phase!r}")
        engine = cls(
            ParameterSpace(saved.space),
            target=saved.target,
            direction=saved.direction,
            tolerance=saved.tolerance,
            max_iterations=saved.max_iterations,
        )
        engine._low = saved.low
        engine._high = saved.high
        engine._phase = saved.phase
        engine._iteration = saved.iteration
        engine._feasible = saved.feasible
        engine._best = saved.best
        return engine
