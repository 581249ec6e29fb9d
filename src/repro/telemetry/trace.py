"""Power traces: time series of power samples plus the paper's post-processing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TelemetryError
from repro.util.stats import SummaryStats, summarize

__all__ = ["PowerTrace"]


@dataclass
class PowerTrace:
    """A sampled power time series for one measurement run."""

    timestamps_s: np.ndarray
    power_watts: np.ndarray
    sample_period_s: float

    def __post_init__(self) -> None:
        self.timestamps_s = np.asarray(self.timestamps_s, dtype=np.float64)
        self.power_watts = np.asarray(self.power_watts, dtype=np.float64)
        if self.timestamps_s.shape != self.power_watts.shape:
            raise TelemetryError(
                "timestamps and power arrays must have the same shape, got "
                f"{self.timestamps_s.shape} vs {self.power_watts.shape}"
            )
        if self.timestamps_s.ndim != 1:
            raise TelemetryError("a power trace must be one-dimensional")
        if self.sample_period_s <= 0:
            raise TelemetryError(
                f"sample period must be positive, got {self.sample_period_s}"
            )
        if self.timestamps_s.size and np.any(np.diff(self.timestamps_s) < 0):
            raise TelemetryError("timestamps must be non-decreasing")

    # ------------------------------------------------------------ properties

    @property
    def num_samples(self) -> int:
        return int(self.power_watts.size)

    @property
    def duration_s(self) -> float:
        if self.num_samples == 0:
            return 0.0
        return float(self.timestamps_s[-1] - self.timestamps_s[0]) + self.sample_period_s

    def mean_power_watts(self) -> float:
        if self.num_samples == 0:
            raise TelemetryError("cannot average an empty power trace")
        return float(self.power_watts.mean())

    def summary(self) -> SummaryStats:
        return summarize(self.power_watts)

    def energy_joules(self) -> float:
        """Total energy, integrating samples over the sampling period."""
        return float(self.power_watts.sum() * self.sample_period_s)

    # ------------------------------------------------------------ transforms

    def trim_warmup(self, warmup_s: float = 0.5) -> "PowerTrace":
        """Drop the first ``warmup_s`` seconds of samples (paper's procedure).

        Raises :class:`TelemetryError` when no sample remains.
        """
        if warmup_s < 0:
            raise TelemetryError(f"warmup must be non-negative, got {warmup_s}")
        if self.num_samples == 0:
            return self
        cutoff = self.timestamps_s[0] + warmup_s
        keep = self.timestamps_s >= cutoff
        if not np.any(keep):
            raise TelemetryError(
                f"a {warmup_s} s warmup trim leaves no sample of a trace whose "
                f"last sample is at {self.timestamps_s[-1] - self.timestamps_s[0]} s"
            )
        return PowerTrace(
            timestamps_s=self.timestamps_s[keep],
            power_watts=self.power_watts[keep],
            sample_period_s=self.sample_period_s,
        )

    def resampled(self, period_s: float) -> "PowerTrace":
        """Resample the trace to a different period by nearest-sample selection."""
        if period_s <= 0:
            raise TelemetryError(f"period must be positive, got {period_s}")
        if self.num_samples == 0:
            return PowerTrace(self.timestamps_s, self.power_watts, period_s)
        start, end = self.timestamps_s[0], self.timestamps_s[-1]
        new_times = np.arange(start, end + period_s / 2, period_s)
        indices = np.searchsorted(self.timestamps_s, new_times, side="left")
        indices = np.clip(indices, 0, self.num_samples - 1)
        return PowerTrace(new_times, self.power_watts[indices], period_s)

    def as_dict(self) -> dict[str, object]:
        return {
            "timestamps_s": self.timestamps_s.tolist(),
            "power_watts": self.power_watts.tolist(),
            "sample_period_s": self.sample_period_s,
        }
