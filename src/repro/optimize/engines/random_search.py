"""Seeded random / grid-refine engine: the baseline the others must beat.

Round 0 covers the whole box — uniformly at random (``mode="random"``) or
with a regular grid (``mode="grid"``).  Every later round shrinks the
sampling box by ``refine`` around the incumbent best and covers it again,
clipped into the global bounds.  This is deliberately simple: it is the
sanity baseline for the smarter engines, the seeding stage for
refinement studies, and — because each round's samples are drawn from a
generator derived from ``(seed, round)`` alone — its proposals are a
pure function of ``(seed, round, incumbent)``, so checkpoints need no
RNG state at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro import wire
from repro.errors import OptimizationError
from repro.optimize.engines.base import (
    Evaluation,
    OptimizationEngine,
    Point,
    register_engine,
)
from repro.optimize.engines.space import Dimension, ParameterSpace

__all__ = ["RandomRefineEngine"]


@dataclass
class _State:
    """A checkpoint, as :meth:`RandomRefineEngine.state_dict` writes it."""

    engine: str
    space: "list[Dimension]"
    seed: int
    batch_size: int
    rounds: int
    refine: float
    mode: str
    round: int
    best: "Evaluation | None" = None


@register_engine("random")
class RandomRefineEngine(OptimizationEngine):
    """Random (or grid) sampling with geometric refinement around the best."""

    def __init__(
        self,
        space: ParameterSpace,
        *,
        seed: int = 0,
        batch_size: int = 8,
        rounds: int = 6,
        refine: float = 0.5,
        mode: str = "random",
    ) -> None:
        super().__init__()
        if batch_size < 1:
            raise OptimizationError(f"batch_size must be >= 1, got {batch_size}")
        if rounds < 1:
            raise OptimizationError(f"rounds must be >= 1, got {rounds}")
        if not 0.0 < refine < 1.0:
            raise OptimizationError(f"refine must be in (0, 1), got {refine}")
        if mode not in ("random", "grid"):
            raise OptimizationError(f"mode must be 'random' or 'grid', got {mode!r}")
        self.space = space
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        self.rounds = int(rounds)
        self.refine = float(refine)
        self.mode = mode
        self._round = 0

    # -------------------------------------------------------------- helpers

    def _box(self) -> "tuple[np.ndarray, np.ndarray]":
        """Sampling box of the current round: full space, then refined."""
        dims = self.space.dimensions
        lows = np.array([d.low for d in dims], dtype=np.float64)
        highs = np.array([d.high for d in dims], dtype=np.float64)
        if self._round == 0 or self._best is None:
            return lows, highs
        spans = (highs - lows) * (self.refine ** self._round)
        center = np.array(self.space.vector(self._best.point), dtype=np.float64)
        return np.maximum(lows, center - 0.5 * spans), np.minimum(highs, center + 0.5 * spans)

    def _proposals(self) -> "list[list[float]]":
        lows, highs = self._box()
        if self.mode == "grid":
            per_dim = max(2, int(round(self.batch_size ** (1.0 / len(self.space)))))
            axes = [
                np.linspace(low, high, per_dim) if high > low else np.array([low])
                for low, high in zip(lows, highs)
            ]
            vectors = [list(combo) for combo in itertools.product(*axes)]
        else:
            rng = np.random.default_rng([self.seed, self._round, len(self.space)])
            samples = lows + rng.uniform(0.0, 1.0, size=(self.batch_size, len(self.space))) * (
                highs - lows
            )
            vectors = [list(row) for row in samples]
        return [self.space.vector(self.space.point(v)) for v in vectors]

    # ------------------------------------------------------------- protocol

    def propose(self) -> "list[Point]":
        if self.is_converged:
            return []
        return [self.space.point(vector) for vector in self._proposals()]

    def ingest(self, evaluations: "Iterable[Evaluation]") -> None:
        if self.is_converged:
            raise OptimizationError("random engine is already converged")
        batch = list(evaluations)
        self._check_batch(self.propose(), batch)
        for evaluation in batch:
            self._observe(evaluation)
        self._round += 1

    @property
    def is_converged(self) -> bool:
        return self._round >= self.rounds

    @property
    def round(self) -> int:
        """Completed sampling rounds."""
        return self._round

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> "dict[str, Any]":
        return {
            "engine": self.name,
            "space": self.space.as_dict(),
            "seed": self.seed,
            "batch_size": self.batch_size,
            "rounds": self.rounds,
            "refine": self.refine,
            "mode": self.mode,
            "round": self._round,
            "best": self._best_state(),
        }

    @classmethod
    def from_state(cls, state: "Mapping[str, Any]") -> "RandomRefineEngine":
        saved = wire.decode(_State, state, "random state", OptimizationError)
        engine = cls(
            ParameterSpace(saved.space),
            seed=saved.seed,
            batch_size=saved.batch_size,
            rounds=saved.rounds,
            refine=saved.refine,
            mode=saved.mode,
        )
        engine._round = saved.round
        engine._best = saved.best
        return engine
