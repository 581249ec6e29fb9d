"""Engine protocol and registry for stateful derivative-free optimization.

The paper *samples* the dtype × sparsity × pattern × GPU design space;
the engines in this package *converge* on it.  An
:class:`OptimizationEngine` is a deterministic state machine that

* **proposes** a batch of points to evaluate next (:meth:`propose`),
* **ingests** the evaluated batch (:meth:`ingest`), and
* reports :attr:`is_converged` once no further proposals would help.

Engines never evaluate anything themselves — the
:class:`~repro.optimize.engines.runner.OptimizationRunner` maps proposed
points onto :class:`~repro.experiments.config.ExperimentConfig` objects
and submits them through :func:`repro.experiments.sweep.run_configs`, so
every evaluation hits the cache tiers and the parallel backends for
free.  This follows the aiida-optimize idiom cited in the ROADMAP:
engine state is a plain JSON-serializable dict (:meth:`state_dict` /
:meth:`from_state`), which makes a half-finished optimization
checkpointable and bit-for-bit resumable.

Determinism contract (shared by every registered engine):

* the proposal sequence is a pure function of the constructor arguments
  (including ``seed``) and the ingested objective values;
* ``from_state(state_dict())`` resumes *bit-for-bit*: the resumed engine
  proposes exactly what the uninterrupted engine would have proposed;
* no engine reads clocks, environment variables or global RNG state.
"""

from __future__ import annotations

import abc
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro import wire
from repro.errors import OptimizationError

__all__ = [
    "Point",
    "Evaluation",
    "OptimizationEngine",
    "ENGINES",
    "register_engine",
    "get_engine",
    "list_engines",
    "engine_from_state",
]

#: A point in parameter space: dimension name -> value.
Point = dict

#: Objective value used for infeasible points under ``filter`` constraint
#: handling.  Serialized as ``None`` (JSON has no infinity).
INFEASIBLE = math.inf


def _infeasible_if_null(objective: "float | None") -> float:
    """A wire objective: the ``null`` JSON writes for :data:`INFEASIBLE`."""
    return INFEASIBLE if objective is None else objective


@dataclass(frozen=True)
class Evaluation:
    """One evaluated point, as handed back to an engine.

    ``objective`` is the scalar the engine minimizes — already sign-flipped
    for maximization and penalty-adjusted for constrained objectives by the
    runner.  ``metrics`` carries the raw metric values (unsigned, no
    penalty) for the history record.  ``math.inf`` marks a point rejected
    by a feasibility filter.
    """

    point: "Point"
    objective: float
    feasible: bool = True
    metrics: "Mapping[str, float]" = field(default_factory=dict)

    _wire = wire.Wire(convert={"objective": (float | None, _infeasible_if_null)})

    def as_dict(self) -> "dict[str, Any]":
        objective = None if math.isinf(self.objective) else self.objective
        return {**asdict(self), "objective": objective}

    from_dict = wire.from_dict("evaluation", OptimizationError)


class OptimizationEngine(abc.ABC):
    """Stateful propose/ingest optimization engine (minimization).

    Subclasses implement the four abstract members and keep *all* mutable
    state JSON-serializable so :meth:`state_dict`/:meth:`from_state`
    round-trip exactly.  ``best`` tracking is shared: :meth:`_observe`
    keeps the first-seen minimum, which makes tie-breaking deterministic.
    """

    #: Registry name, set by :func:`register_engine`.
    name: str = ""

    def __init__(self) -> None:
        self._best: "Evaluation | None" = None

    # -------------------------------------------------------------- protocol

    @abc.abstractmethod
    def propose(self) -> "list[Point]":
        """The next batch of points to evaluate (empty once converged).

        Calling ``propose`` repeatedly without an interleaved
        :meth:`ingest` returns the same batch — proposals are part of the
        engine state, not a side effect.
        """

    @abc.abstractmethod
    def ingest(self, evaluations: "Iterable[Evaluation]") -> None:
        """Advance the engine state with the evaluated batch.

        The batch must be exactly the last :meth:`propose` result, in
        order; engines raise :class:`OptimizationError` otherwise.
        """

    @property
    @abc.abstractmethod
    def is_converged(self) -> bool:
        """True once no further proposals would improve the result."""

    @abc.abstractmethod
    def state_dict(self) -> "dict[str, Any]":
        """JSON-serializable snapshot sufficient for a bit-for-bit resume."""

    @classmethod
    @abc.abstractmethod
    def from_state(cls, state: "Mapping[str, Any]") -> "OptimizationEngine":
        """Rebuild an engine from :meth:`state_dict` output."""

    # --------------------------------------------------------------- shared

    @property
    def best(self) -> "Evaluation | None":
        """Best (minimum-objective) feasible evaluation seen so far."""
        return self._best

    def _observe(self, evaluation: Evaluation) -> None:
        """Fold one evaluation into the shared ``best`` tracker.

        Strict ``<`` keeps the *first* of equal-valued evaluations, so the
        incumbent never depends on ingest batching.
        """
        if math.isinf(evaluation.objective):
            return
        if self._best is None or evaluation.objective < self._best.objective:
            self._best = evaluation

    def _best_state(self) -> "dict[str, Any] | None":
        return None if self._best is None else self._best.as_dict()

    @staticmethod
    def _check_batch(expected: "list[Point]", got: "list[Evaluation]") -> None:
        if len(got) != len(expected):
            raise OptimizationError(
                f"engine expected {len(expected)} evaluation(s), got {len(got)}"
            )
        for want, have in zip(expected, got):
            if dict(have.point) != dict(want):
                raise OptimizationError(
                    f"evaluation out of order: expected point {dict(want)!r}, "
                    f"got {dict(have.point)!r}"
                )


# ------------------------------------------------------------------ registry

#: Registered engine name -> engine class.  Populated by
#: :func:`register_engine` when the engine modules are imported (the
#: package ``__init__`` imports them all for exactly this side effect).
ENGINES: "dict[str, type]" = {}


def register_engine(name: str) -> "Callable[[type], type]":
    """Class decorator registering an engine under ``name``.

    The name is the study-file / CLI spelling (``"nelder_mead"``,
    ``"bisection"``, ``"random"``); the ``engine-registry`` staticcheck
    pass keeps registered names, package exports and the documentation in
    sync.
    """

    def decorate(cls: type) -> type:
        if name in ENGINES:
            raise OptimizationError(f"engine {name!r} is already registered")
        cls.name = name
        ENGINES[name] = cls
        return cls

    return decorate


def get_engine(name: str) -> type:
    """Look up a registered engine class by name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise OptimizationError(
            f"unknown engine {name!r}; registered: {list_engines()}"
        ) from None


def list_engines() -> "list[str]":
    """Names of all registered engines."""
    return sorted(ENGINES)


def engine_from_state(state: "Mapping[str, Any]") -> OptimizationEngine:
    """Rebuild any registered engine from its :meth:`state_dict` output.

    Every engine writes its registry name under ``"engine"``; this helper
    dispatches on it, which is what lets a checkpoint file name its engine
    without the caller knowing the concrete class.
    """
    name = state.get("engine")
    if not isinstance(name, str):
        raise OptimizationError("engine state carries no 'engine' name")
    return get_engine(name).from_state(state)
