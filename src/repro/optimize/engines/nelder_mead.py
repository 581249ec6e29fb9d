"""Nelder–Mead simplex engine over the box of continuous knobs.

Classic downhill simplex (reflection α=1, expansion γ=2, contraction
ρ=0.5, shrink σ=0.5) recast as a propose/ingest state machine, the
aiida-optimize idiom: every function evaluation the textbook algorithm
would perform inline becomes one proposed batch, so the runner can
stream it through the cached, parallel sweep machinery.

Proposals are kept inside the parameter-space box, which makes the
engine natively bound-constrained.  An out-of-box coordinate is not
projected onto the bound — once every vertex shares a hard-clipped
coordinate exactly, centroid, reflection and shrink all stay inside that
face forever and the simplex is stuck one dimension short.  Instead it
is damped to the midpoint between the violated bound and the move's
interior anchor (the centroid, or the best vertex for shrink steps):
candidates stay strictly interior whenever the anchor is, while a
boundary optimum is still approached geometrically.  Damping shrinks
only the violating coordinate, so near a bound the simplex can still
flatten into a needle or onto a face; a flat simplex is rebuilt around
its best vertex while that keeps improving the best value by more than
``ftol``.  The initial simplex is derived from
``seed`` alone, so a fixed seed pins the entire trajectory; all state is
JSON-scalar (Python floats round-trip exactly through ``json``), so a
checkpointed engine resumes bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import OptimizationError
from repro.optimize.engines.base import (
    Evaluation,
    OptimizationEngine,
    Point,
    register_engine,
)
from repro.optimize.engines.space import ParameterSpace

__all__ = ["NelderMeadEngine"]

_ALPHA = 1.0   # reflection
_GAMMA = 2.0   # expansion
_RHO = 0.5     # contraction
_SIGMA = 0.5   # shrink
#: a simplex whose shortest axis extent (relative to the box) is below this
#: fraction of its longest is flat
_FLAT_RATIO = 1e-2

_PHASES = ("init", "reflect", "expand", "contract", "shrink", "done")


@register_engine("nelder_mead")
class NelderMeadEngine(OptimizationEngine):
    """Derivative-free simplex minimization of a continuous objective."""

    def __init__(
        self,
        space: ParameterSpace,
        *,
        seed: int = 0,
        max_iterations: int = 50,
        xtol: float = 1e-3,
        ftol: float = 1e-6,
        initial_point: "Mapping[str, float] | None" = None,
        step: float = 0.25,
    ) -> None:
        super().__init__()
        if max_iterations < 1:
            raise OptimizationError(f"max_iterations must be >= 1, got {max_iterations}")
        if xtol <= 0 or ftol <= 0:
            raise OptimizationError(f"xtol/ftol must be positive, got {xtol}/{ftol}")
        if not 0.0 < step <= 0.5:
            raise OptimizationError(f"step must be in (0, 0.5], got {step}")
        self.space = space
        self.seed = int(seed)
        self.max_iterations = int(max_iterations)
        self.xtol = float(xtol)
        self.ftol = float(ftol)
        self.step = float(step)
        self._iteration = 0
        self._phase = "init"
        self._simplex: "list[list[float]]" = []
        self._values: "list[float]" = []
        #: vectors awaiting evaluation, in proposal order
        self._pending: "list[list[float]]" = self._initial_simplex(initial_point)
        #: the reflection candidate carried into expand/contract decisions
        self._reflection: "list[float] | None" = None
        self._reflection_value: "float | None" = None
        self._contract_kind = ""
        #: best value when the simplex was last rebuilt (see _start_iteration)
        self._restart_value = float("inf")

    # --------------------------------------------------------------- set-up

    def _initial_simplex(self, initial_point: "Mapping[str, float] | None") -> "list[list[float]]":
        dims = self.space.dimensions
        if initial_point is not None:
            x0 = np.array(self.space.vector(initial_point), dtype=np.float64)
        else:
            rng = np.random.default_rng([self.seed, len(dims)])
            lows = np.array([d.low for d in dims])
            spans = np.array([d.span for d in dims])
            x0 = lows + rng.uniform(0.0, 1.0, size=len(dims)) * spans
        return self._simplex_around(x0, [self.step * dim.span for dim in dims])

    def _simplex_around(self, x0: np.ndarray, offsets: "list[float]") -> "list[list[float]]":
        """``x0`` plus one vertex per dimension, offset along that axis
        (away from the upper bound when the step would cross it)."""
        vertices = [self.space.vector(self.space.point(x0))]
        for index, (dim, offset) in enumerate(zip(self.space.dimensions, offsets)):
            vertex = x0.copy()
            vertex[index] = vertex[index] + offset
            if vertex[index] > dim.high:
                vertex[index] = x0[index] - offset
            vertices.append(self.space.vector(self.space.point(vertex)))
        return vertices

    # -------------------------------------------------------------- helpers

    def _bounded(self, vector: np.ndarray, anchor: np.ndarray) -> "list[float]":
        """Damp out-of-box coordinates toward ``anchor`` instead of clipping.

        Hard projection onto a face can leave every vertex with the same
        clipped coordinate, collapsing the simplex into the face for
        good; the midpoint between the anchor and the violated bound
        stays strictly interior whenever the anchor is.
        """
        out = np.array(vector, dtype=np.float64)
        for index, dim in enumerate(self.space.dimensions):
            if out[index] < dim.low:
                out[index] = 0.5 * (float(anchor[index]) + dim.low)
            elif out[index] > dim.high:
                out[index] = 0.5 * (float(anchor[index]) + dim.high)
        return self.space.vector(self.space.point(out))

    def _centroid(self) -> np.ndarray:
        """Centroid of every vertex but the worst (simplex is kept sorted)."""
        return np.mean(np.array(self._simplex[:-1], dtype=np.float64), axis=0)

    def _sort_simplex(self) -> None:
        # Stable sort on the value alone keeps insertion order for ties,
        # which keeps the trajectory independent of how ties were batched.
        order = sorted(range(len(self._values)), key=lambda i: self._values[i])
        self._simplex = [self._simplex[i] for i in order]
        self._values = [self._values[i] for i in order]

    def _replace_worst(self, vector: "list[float]", value: float) -> None:
        self._simplex[-1] = list(vector)
        self._values[-1] = float(value)

    def _spread(self) -> "tuple[float, float]":
        points = np.array(self._simplex, dtype=np.float64)
        x_spread = float(np.max(points.max(axis=0) - points.min(axis=0)))
        f_spread = self._values[-1] - self._values[0]
        return x_spread, f_spread

    def _is_flat(self) -> bool:
        """Whether the simplex has (nearly) lost a dimension.

        Damping a move that leaves the box shrinks only the violating
        coordinate, so near a bound the simplex can flatten into a needle
        that crawls, or collapse exactly onto a face where its
        "convergence" only certifies a minimum within that face.  A
        one-dimensional simplex cannot flatten.
        """
        points = np.array(self._simplex, dtype=np.float64)
        spans = np.array([dim.span for dim in self.space.dimensions])
        extents = (points.max(axis=0) - points.min(axis=0)) / spans
        return bool(extents.min() < _FLAT_RATIO * extents.max())

    def _start_iteration(self) -> None:
        """Sort, check convergence, and stage the next reflection."""
        self._sort_simplex()
        if (
            self._iteration < self.max_iterations
            and self._is_flat()
            and self._values[0] < self._restart_value - self.ftol
        ):
            # Rebuild a full simplex around the best vertex, as large as
            # the flat one's longest extent; a flat simplex that brings no
            # improvement since the last rebuild is left to converge.
            self._restart_value = self._values[0]
            points = np.array(self._simplex, dtype=np.float64)
            size = float((points.max(axis=0) - points.min(axis=0)).max())
            self._phase = "init"
            self._pending = self._simplex_around(
                points[0], [size] * len(self.space.dimensions)
            )
            return
        x_spread, f_spread = self._spread()
        if self._iteration >= self.max_iterations or (
            x_spread <= self.xtol and f_spread <= self.ftol
        ):
            self._phase = "done"
            self._pending = []
            self._reflection = None
            self._reflection_value = None
            self._contract_kind = ""
            return
        centroid = self._centroid()
        worst = np.array(self._simplex[-1], dtype=np.float64)
        reflected = self._bounded(centroid + _ALPHA * (centroid - worst), centroid)
        self._phase = "reflect"
        self._pending = [reflected]
        self._reflection = None
        self._reflection_value = None
        self._contract_kind = ""

    # ------------------------------------------------------------- protocol

    def propose(self) -> "list[Point]":
        return [self.space.point(vector) for vector in self._pending]

    def ingest(self, evaluations: "Iterable[Evaluation]") -> None:
        batch = list(evaluations)
        self._check_batch(self.propose(), batch)
        if self._phase == "done":
            raise OptimizationError("Nelder-Mead engine is already converged")
        for evaluation in batch:
            self._observe(evaluation)
        values = [evaluation.objective for evaluation in batch]

        if self._phase == "init":
            self._simplex = [list(v) for v in self._pending]
            self._values = list(values)
            self._start_iteration()
            return

        if self._phase == "reflect":
            (reflected,), (f_reflected,) = self._pending, values
            if f_reflected < self._values[0]:
                centroid = self._centroid()
                expanded = self._bounded(
                    centroid + _GAMMA * (np.array(reflected) - centroid), centroid
                )
                self._reflection = list(reflected)
                self._reflection_value = f_reflected
                self._phase = "expand"
                self._pending = [expanded]
            elif f_reflected < self._values[-2]:
                self._replace_worst(reflected, f_reflected)
                self._iteration += 1
                self._start_iteration()
            else:
                centroid = self._centroid()
                if f_reflected < self._values[-1]:
                    self._contract_kind = "outside"
                    contracted = self._bounded(
                        centroid + _RHO * (np.array(reflected) - centroid), centroid
                    )
                else:
                    self._contract_kind = "inside"
                    worst = np.array(self._simplex[-1], dtype=np.float64)
                    contracted = self._bounded(
                        centroid + _RHO * (worst - centroid), centroid
                    )
                self._reflection = list(reflected)
                self._reflection_value = f_reflected
                self._phase = "contract"
                self._pending = [contracted]
            return

        if self._phase == "expand":
            (expanded,), (f_expanded,) = self._pending, values
            assert self._reflection is not None and self._reflection_value is not None
            if f_expanded < self._reflection_value:
                self._replace_worst(expanded, f_expanded)
            else:
                self._replace_worst(self._reflection, self._reflection_value)
            self._iteration += 1
            self._start_iteration()
            return

        if self._phase == "contract":
            (contracted,), (f_contracted,) = self._pending, values
            assert self._reflection_value is not None
            accepted = (
                f_contracted <= self._reflection_value
                if self._contract_kind == "outside"
                else f_contracted < self._values[-1]
            )
            if accepted:
                self._replace_worst(contracted, f_contracted)
                self._iteration += 1
                self._start_iteration()
            else:
                best = np.array(self._simplex[0], dtype=np.float64)
                self._phase = "shrink"
                self._pending = [
                    self._bounded(best + _SIGMA * (np.array(vertex) - best), best)
                    for vertex in self._simplex[1:]
                ]
            return

        # shrink: the batch replaces every vertex but the best.
        for index, (vector, value) in enumerate(zip(self._pending, values), start=1):
            self._simplex[index] = list(vector)
            self._values[index] = float(value)
        self._iteration += 1
        self._start_iteration()

    @property
    def is_converged(self) -> bool:
        return self._phase == "done"

    @property
    def iteration(self) -> int:
        """Completed Nelder-Mead iterations (simplex updates)."""
        return self._iteration

    @property
    def simplex(self) -> "list[tuple[Point, float]]":
        """Current (point, value) vertices, best first once evaluated."""
        return [
            (self.space.point(vector), value)
            for vector, value in zip(self._simplex, self._values)
        ]

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> "dict[str, Any]":
        return {
            "engine": self.name,
            "space": self.space.as_dict(),
            "seed": self.seed,
            "max_iterations": self.max_iterations,
            "xtol": self.xtol,
            "ftol": self.ftol,
            "step": self.step,
            "iteration": self._iteration,
            "phase": self._phase,
            "simplex": [list(v) for v in self._simplex],
            "values": list(self._values),
            "pending": [list(v) for v in self._pending],
            "reflection": None if self._reflection is None else list(self._reflection),
            "reflection_value": self._reflection_value,
            "contract_kind": self._contract_kind,
            "restart_value": None if np.isinf(self._restart_value) else self._restart_value,
            "best": self._best_state(),
        }

    @classmethod
    def from_state(cls, state: "Mapping[str, Any]") -> "NelderMeadEngine":
        engine = cls(
            ParameterSpace.from_dict(state["space"]),
            seed=int(state["seed"]),
            max_iterations=int(state["max_iterations"]),
            xtol=float(state["xtol"]),
            ftol=float(state["ftol"]),
            step=float(state["step"]),
        )
        phase = state["phase"]
        if phase not in _PHASES:
            raise OptimizationError(f"unknown Nelder-Mead phase {phase!r}")
        engine._iteration = int(state["iteration"])
        engine._phase = phase
        engine._simplex = [list(map(float, v)) for v in state["simplex"]]
        engine._values = [float(v) for v in state["values"]]
        engine._pending = [list(map(float, v)) for v in state["pending"]]
        reflection = state.get("reflection")
        engine._reflection = None if reflection is None else [float(v) for v in reflection]
        value = state.get("reflection_value")
        engine._reflection_value = None if value is None else float(value)
        engine._contract_kind = str(state.get("contract_kind", ""))
        restart_value = state.get("restart_value")
        engine._restart_value = float("inf") if restart_value is None else float(restart_value)
        engine._restore_best(state)
        return engine
