"""Parameter-space encoder: abstract points ↔ valid experiment configs.

Engines optimize over an abstract box — named continuous dimensions with
bounds — and know nothing about :class:`ExperimentConfig`.  The
:class:`ParameterSpace` owns the mapping in both directions:

* :meth:`ParameterSpace.clip` normalizes a proposed point into the box
  (and rounds integer dimensions), so every engine proposal is valid by
  construction;
* :meth:`ParameterSpace.to_config` applies a point to a base config,
  writing each dimension either into ``pattern_params`` (the default) or
  onto a whitelisted numeric config field (``matrix_size``,
  ``iterations``, …).

The space serializes to plain JSON (:meth:`as_dict`/:meth:`from_dict`),
which is what makes optimization checkpoints and study files
self-contained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro import wire
from repro.errors import OptimizationError
from repro.experiments.config import ExperimentConfig
from repro.optimize.engines.base import Point

__all__ = ["Dimension", "ParameterSpace", "CONFIG_FIELD_TARGETS"]

#: Config fields a dimension may target directly (numeric knobs only —
#: categorical fields like ``dtype``/``gpu``/``pattern_family`` belong in
#: the study's base config, one study per category).
CONFIG_FIELD_TARGETS = ("matrix_size", "iterations", "seeds", "base_seed", "instance_id")

#: Targets that must be integers (rounding is forced on).
_INTEGER_TARGETS = set(CONFIG_FIELD_TARGETS)


@dataclass(frozen=True)
class Dimension:
    """One continuous (optionally integer-rounded) search dimension.

    ``target`` names where the value lands in the experiment config:
    ``"pattern_params.<key>"`` (default: ``pattern_params.<name>``) or one
    of :data:`CONFIG_FIELD_TARGETS`.
    """

    name: str
    low: float
    high: float
    target: str = ""
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise OptimizationError("dimension name must be non-empty")
        for bound in ("low", "high"):
            wire.require_real(getattr(self, bound), bound, OptimizationError)
        if not self.low < self.high:
            raise OptimizationError(
                f"dimension {self.name!r} needs low < high, got [{self.low}, {self.high}]"
            )
        target = self.resolved_target()
        if not target.startswith("pattern_params."):
            if target not in CONFIG_FIELD_TARGETS:
                raise OptimizationError(
                    f"dimension {self.name!r} target {target!r} is neither "
                    f"'pattern_params.<key>' nor one of {CONFIG_FIELD_TARGETS}"
                )
            if not self.integer:
                # Config-field targets are integer knobs; force rounding so
                # a proposed 127.3 becomes a valid matrix_size.
                object.__setattr__(self, "integer", True)

    def resolved_target(self) -> str:
        return self.target or f"pattern_params.{self.name}"

    def clip(self, value: float) -> float:
        clipped = min(max(float(value), self.low), self.high)
        if self.integer:
            clipped = float(int(round(clipped)))
        return clipped

    @property
    def span(self) -> float:
        return self.high - self.low

    def as_dict(self) -> "dict[str, Any]":
        return asdict(self)

    from_dict = wire.from_dict("dimension", OptimizationError)


class ParameterSpace:
    """An ordered set of named dimensions forming the search box."""

    def __init__(self, dimensions: "Sequence[Dimension]") -> None:
        dims = list(dimensions)
        if not dims:
            raise OptimizationError("a parameter space needs at least one dimension")
        names = [dim.name for dim in dims]
        if len(set(names)) != len(names):
            raise OptimizationError(f"duplicate dimension names: {names}")
        self.dimensions: "tuple[Dimension, ...]" = tuple(dims)

    # ------------------------------------------------------------- geometry

    def __len__(self) -> int:
        return len(self.dimensions)

    @property
    def names(self) -> "tuple[str, ...]":
        return tuple(dim.name for dim in self.dimensions)

    def clip(self, point: "Mapping[str, float]") -> Point:
        """Normalize a point into the box, in dimension order."""
        unknown = sorted(set(point) - set(self.names))
        if unknown:
            raise OptimizationError(f"point has unknown dimension(s): {', '.join(unknown)}")
        missing = sorted(set(self.names) - set(point))
        if missing:
            raise OptimizationError(f"point is missing dimension(s): {', '.join(missing)}")
        return {dim.name: dim.clip(point[dim.name]) for dim in self.dimensions}

    def vector(self, point: "Mapping[str, float]") -> "list[float]":
        """Point dict -> coordinate list in dimension order."""
        clipped = self.clip(point)
        return [clipped[name] for name in self.names]

    def point(self, vector: "Iterable[float]") -> Point:
        """Coordinate list -> clipped point dict."""
        values = list(vector)
        if len(values) != len(self.dimensions):
            raise OptimizationError(
                f"vector has {len(values)} coordinates for {len(self.dimensions)} dimensions"
            )
        return {
            dim.name: dim.clip(value) for dim, value in zip(self.dimensions, values)
        }

    def center(self) -> Point:
        return {dim.name: dim.clip(dim.low + 0.5 * dim.span) for dim in self.dimensions}

    # ------------------------------------------------------------ config map

    def to_config(self, point: "Mapping[str, float]", base: ExperimentConfig) -> ExperimentConfig:
        """Apply a (clipped) point to a base config.

        ``pattern_params.*`` targets merge into the base's pattern
        parameters; field targets go through ``with_overrides`` so config
        validation still runs on every proposal.
        """
        clipped = self.clip(point)
        pattern_params = dict(base.pattern_params)
        overrides: "dict[str, Any]" = {}
        for dim in self.dimensions:
            value: "float | int" = clipped[dim.name]
            if dim.integer:
                value = int(value)
            target = dim.resolved_target()
            if target.startswith("pattern_params."):
                pattern_params[target[len("pattern_params."):]] = value
            else:
                overrides[target] = value
        if pattern_params != dict(base.pattern_params):
            overrides["pattern_params"] = pattern_params
        return base.with_overrides(**overrides) if overrides else base

    # ---------------------------------------------------------------- wire

    def as_dict(self) -> "list[dict[str, Any]]":
        return [dim.as_dict() for dim in self.dimensions]

    @classmethod
    def from_dict(cls, data: "Sequence[Mapping[str, Any]]") -> "ParameterSpace":
        return cls(wire.decode(list[Dimension], data, "space", OptimizationError))
