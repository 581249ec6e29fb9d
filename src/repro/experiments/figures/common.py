"""Shared settings and helpers for the per-figure experiment definitions."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dtypes.registry import PAPER_DTYPES, get_dtype
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.parallel.backends import BACKENDS

__all__ = ["FigureSettings", "base_config", "mean_sweep_values"]


@dataclass(frozen=True)
class FigureSettings:
    """Knobs controlling how faithfully (and how slowly) figures are reproduced.

    ``quick()`` keeps matrices small so the whole figure suite runs in
    seconds (used by tests and the default benchmark pass); ``paper()``
    matches the paper's 2048x2048 matrices and 10 seeds.
    """

    matrix_size: int = 256
    seeds: int = 2
    gpu: str = "a100"
    dtypes: tuple[str, ...] = PAPER_DTYPES
    #: number of points per swept parameter (sweeps are subsampled to this)
    sweep_points: int = 5
    workers: int = 1
    #: sweep execution backend (see :mod:`repro.parallel`): ``"auto"``
    #: resolves to released-GIL threads when ``workers > 1``
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.matrix_size < 8:
            raise ExperimentError(f"matrix_size must be >= 8, got {self.matrix_size}")
        if self.seeds < 1:
            raise ExperimentError(f"seeds must be >= 1, got {self.seeds}")
        if self.sweep_points < 2:
            raise ExperimentError(f"sweep_points must be >= 2, got {self.sweep_points}")
        if self.backend not in BACKENDS + ("auto",):
            raise ExperimentError(
                f"backend must be one of {BACKENDS + ('auto',)}, got {self.backend!r}"
            )
        for dtype in self.dtypes:
            get_dtype(dtype)

    @classmethod
    def quick(cls, **overrides: object) -> "FigureSettings":
        """Fast settings for tests and default benchmark runs."""
        return replace(cls(), **overrides)  # type: ignore[arg-type]

    @classmethod
    def standard(cls, **overrides: object) -> "FigureSettings":
        """Medium-fidelity settings (1024² matrices, 3 seeds)."""
        settings = cls(matrix_size=1024, seeds=3, sweep_points=6)
        return replace(settings, **overrides)  # type: ignore[arg-type]

    @classmethod
    def paper(cls, **overrides: object) -> "FigureSettings":
        """Paper-faithful settings (2048² matrices, 10 seeds)."""
        settings = cls(matrix_size=2048, seeds=10, sweep_points=8)
        return replace(settings, **overrides)  # type: ignore[arg-type]

    def subsample(self, values: list) -> list:
        """Subsample a sweep's value list down to ``sweep_points`` entries."""
        if len(values) <= self.sweep_points:
            return list(values)
        step = (len(values) - 1) / (self.sweep_points - 1)
        indices = sorted({int(round(i * step)) for i in range(self.sweep_points)})
        return [values[i] for i in indices]


def resolve_settings(settings: "FigureSettings | None") -> FigureSettings:
    """Normalize the optional settings argument every figure runner accepts."""
    return settings if settings is not None else FigureSettings.quick()


def base_config(
    settings: FigureSettings,
    dtype: str,
    pattern_family: str = "gaussian",
    **pattern_params: object,
) -> ExperimentConfig:
    """Build the baseline experiment config for a figure panel."""
    return ExperimentConfig(
        pattern_family=pattern_family,
        pattern_params=dict(pattern_params),
        dtype=dtype,
        gpu=settings.gpu,
        matrix_size=settings.matrix_size,
        seeds=settings.seeds,
    )


def mean_sweep_values(dtype: str) -> list[float]:
    """Mean values swept in the Figure 3b experiment, per datatype.

    The paper keeps values inside each datatype's representable range; INT8
    therefore sweeps a much smaller range than the floating point types.
    """
    if get_dtype(dtype).is_integer:
        return [0.0, 8.0, 24.0, 60.0, 100.0]
    return [0.0, 16.0, 256.0, 4096.0, 16384.0]


def std_sweep_values(dtype: str) -> list[float]:
    """Standard deviations swept in the Figure 3a experiment, per datatype.

    The paper chooses parameters so values "practically fall within each
    datatype's representation range": for INT8 that means standard deviations
    large enough that values do not collapse onto a handful of integers, yet
    small enough to avoid constant saturation at ±127.
    """
    if get_dtype(dtype).is_integer:
        return [4.0, 8.0, 16.0, 25.0, 48.0, 64.0]
    return [0.25, 1.0, 16.0, 210.0, 1024.0, 4096.0]
