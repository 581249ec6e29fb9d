"""Result containers for experiments, sweeps and figures."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro import wire
from repro.activity.report import ActivityReport
from repro.errors import ExperimentError
from repro.util.stats import SummaryStats, summarize
from repro.util.tables import format_series_chart, format_table

__all__ = ["SeedMeasurement", "ExperimentResult", "SweepResult", "FigureResult"]

#: Aggregate properties :meth:`ExperimentResult.as_dict` writes for readers;
#: they derive from the measurements, so decoding skips them.
_AGGREGATES = (
    "mean_power_watts",
    "power_std_watts",
    "mean_iteration_time_s",
    "mean_iteration_energy_j",
    "mean_activity_factor",
    "mean_bit_alignment",
    "mean_hamming_fraction",
    "any_throttled",
)


@dataclass(frozen=True)
class SeedMeasurement:
    """Everything measured for one seed of one configuration."""

    seed: int
    power_watts: float
    unconstrained_power_watts: float
    iteration_time_s: float
    iteration_energy_j: float
    activity_factor: float
    throttled: bool
    clock_scale: float
    activity: ActivityReport

    def as_dict(self) -> dict[str, Any]:
        return {**vars(self), "activity": self.activity.as_dict()}

    from_dict = wire.from_dict("measurement", ExperimentError)


@dataclass
class ExperimentResult:
    """Aggregate of one configuration over all its seeds."""

    config: Mapping[str, Any]
    measurements: list[SeedMeasurement]

    _wire = wire.Wire(ignore=frozenset(_AGGREGATES))

    def __post_init__(self) -> None:
        if not self.measurements:
            raise ExperimentError("an experiment result needs at least one measurement")

    # ------------------------------------------------------------ aggregates

    @property
    def label(self) -> str:
        return str(self.config.get("label", ""))

    def power_summary(self) -> SummaryStats:
        return summarize(m.power_watts for m in self.measurements)

    @property
    def mean_power_watts(self) -> float:
        return self.power_summary().mean

    @property
    def power_std_watts(self) -> float:
        return self.power_summary().std

    @property
    def mean_iteration_time_s(self) -> float:
        return summarize(m.iteration_time_s for m in self.measurements).mean

    @property
    def mean_iteration_energy_j(self) -> float:
        return summarize(m.iteration_energy_j for m in self.measurements).mean

    @property
    def mean_activity_factor(self) -> float:
        return summarize(m.activity_factor for m in self.measurements).mean

    @property
    def mean_bit_alignment(self) -> float:
        return summarize(m.activity.bit_alignment for m in self.measurements).mean

    @property
    def mean_hamming_fraction(self) -> float:
        return summarize(m.activity.mean_hamming_fraction for m in self.measurements).mean

    @property
    def any_throttled(self) -> bool:
        return any(m.throttled for m in self.measurements)

    from_dict = wire.from_dict("result", ExperimentError)

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": dict(self.config),
            "measurements": [m.as_dict() for m in self.measurements],
            **{name: getattr(self, name) for name in _AGGREGATES},
        }


@dataclass
class SweepResult:
    """Results of one configuration swept over a single parameter."""

    parameter: str
    values: list[Any]
    results: list[ExperimentResult]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.values) != len(self.results):
            raise ExperimentError(
                f"sweep has {len(self.values)} values but {len(self.results)} results"
            )
        if not self.results:
            raise ExperimentError("a sweep needs at least one point")

    # ------------------------------------------------------------ accessors

    def powers(self) -> list[float]:
        return [r.mean_power_watts for r in self.results]

    def energies(self) -> list[float]:
        return [r.mean_iteration_energy_j for r in self.results]

    def runtimes(self) -> list[float]:
        return [r.mean_iteration_time_s for r in self.results]

    def activity_factors(self) -> list[float]:
        return [r.mean_activity_factor for r in self.results]

    def power_range_fraction(self) -> float:
        """Peak-to-trough power swing relative to the maximum power."""
        powers = self.powers()
        high, low = max(powers), min(powers)
        return (high - low) / high if high > 0 else 0.0

    def relative_powers(self) -> list[float]:
        """Power at each point relative to the first point of the sweep."""
        powers = self.powers()
        baseline = powers[0]
        if baseline == 0:
            raise ExperimentError("baseline power is zero; cannot normalize")
        return [p / baseline for p in powers]

    # ------------------------------------------------------------ rendering

    def to_rows(self) -> list[list[Any]]:
        rows = []
        for value, result in zip(self.values, self.results):
            rows.append(
                [
                    value,
                    result.mean_power_watts,
                    result.power_std_watts,
                    result.mean_iteration_time_s * 1e6,
                    result.mean_iteration_energy_j * 1e3,
                    result.mean_activity_factor,
                ]
            )
        return rows

    def render_table(self, precision: int = 2) -> str:
        headers = [self.parameter, "power_W", "std_W", "runtime_us", "energy_mJ", "activity"]
        return format_table(headers, self.to_rows(), precision=precision, title=self.label)

    def render_chart(self) -> str:
        try:
            xs = [float(v) for v in self.values]
        except (TypeError, ValueError):
            xs = list(range(len(self.values)))
        return format_series_chart(
            xs, {"power_W": self.powers()}, title=self.label or self.parameter
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "label": self.label,
            "results": [r.as_dict() for r in self.results],
        }


@dataclass
class FigureResult:
    """A reproduced paper figure: one or more labelled panels."""

    name: str
    description: str
    panels: dict[str, SweepResult] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_panel(self, key: str, sweep: SweepResult) -> None:
        if key in self.panels:
            raise ExperimentError(f"panel {key!r} already present in {self.name}")
        self.panels[key] = sweep

    def panel(self, key: str) -> SweepResult:
        try:
            return self.panels[key]
        except KeyError:
            raise ExperimentError(
                f"figure {self.name} has no panel {key!r}; available: {sorted(self.panels)}"
            ) from None

    def render(self, charts: bool = True) -> str:
        blocks = [f"=== {self.name}: {self.description} ==="]
        for key in self.panels:
            sweep = self.panels[key]
            blocks.append(f"--- panel {key} ---")
            blocks.append(sweep.render_table())
            if charts:
                blocks.append(sweep.render_chart())
        if self.notes:
            blocks.append("notes:")
            blocks.extend(f"  - {note}" for note in self.notes)
        return "\n".join(blocks)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "panels": {key: sweep.as_dict() for key, sweep in self.panels.items()},
            "notes": list(self.notes),
        }

    def save_json(self, path: "str | Path") -> Path:
        """Write the figure result to a JSON file and return its path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=2))
        return target


def results_to_json(results: Iterable[ExperimentResult]) -> str:
    """Serialize a collection of experiment results to a JSON string."""
    return json.dumps([r.as_dict() for r in results], indent=2)
