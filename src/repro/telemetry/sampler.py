"""Power-trace simulation.

Given the steady-state power of a kernel loop, produce the time series a
DCGM/NVML power sensor would report: a warmup ramp from idle toward the
steady level (board capacitance, thermal inertia, clock ramp), per-sample
sensor noise, and the configured sampling period.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from repro import wire
from repro.errors import TelemetryError
from repro.telemetry.trace import PowerTrace
from repro.util.rng import derive_rng

__all__ = [
    "MIN_MEASUREMENT_DURATION_S",
    "TelemetryConfig",
    "latest_warmup_trim_s",
    "simulate_power_trace",
]

#: Minimum simulated measurement window.  The paper sizes its iteration
#: counts so each run spans many 100 ms samples; short configurations are
#: padded up to this duration (by running more iterations) so warmup
#: trimming and trace averaging stay meaningful.
MIN_MEASUREMENT_DURATION_S = 3.0


@lru_cache(maxsize=64)
def _sample_time_grid(num_samples: int, sample_period_s: float) -> np.ndarray:
    """Shared, read-only sampling-time grid.

    Every trace with the same sample count and period uses the same
    timestamps, so the grid is built once and reused across the seeds and
    sweep points of a measurement campaign (traces never mutate their
    timestamps; the array is marked read-only to enforce that).
    """
    times = np.arange(num_samples, dtype=np.float64) * sample_period_s
    times.setflags(write=False)
    return times


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling behaviour of the simulated power sensor."""

    #: sampling period; the paper samples every 100 ms
    sample_period_s: float = 0.1
    #: time constant of the warmup ramp from idle to steady power
    warmup_time_constant_s: float = 0.18
    #: standard deviation of per-sample sensor noise, watts
    noise_std_watts: float = 1.6
    #: amplitude of slow power drift (thermal / fan effects), watts
    drift_watts: float = 0.8
    #: period of the slow drift, seconds
    drift_period_s: float = 7.0

    def __post_init__(self) -> None:
        for field in fields(self):
            wire.require_real(getattr(self, field.name), field.name, TelemetryError)
        if self.sample_period_s <= 0:
            raise TelemetryError("sample period must be positive")
        if self.warmup_time_constant_s <= 0:
            raise TelemetryError("warmup time constant must be positive")
        if self.drift_period_s <= 0:  # it divides the sample times
            raise TelemetryError("drift period must be positive")
        if self.noise_std_watts < 0 or self.drift_watts < 0:
            raise TelemetryError("noise and drift amplitudes must be non-negative")


def _sample_count(duration_s: float, sample_period_s: float) -> int:
    return max(int(np.ceil(duration_s / sample_period_s)), 1)


def latest_warmup_trim_s(config: TelemetryConfig) -> float:
    """The longest warmup trim that leaves a sample in every measurement.

    A measurement window is ``iterations * iteration_time`` with enough
    iterations to reach :data:`MIN_MEASUREMENT_DURATION_S`; the division
    and the product round, which can leave it a relative ``eps`` short of
    that, so the bound is taken for a window of ``MIN * (1 - 2 eps)``.
    Trimming keeps the samples at or after the trim, so the bound is the
    last timestamp of that window's trace, computed as
    :func:`_sample_time_grid` computes it.
    """
    shortest_s = MIN_MEASUREMENT_DURATION_S * (1.0 - 2.0 * np.finfo(np.float64).eps)
    last_index = _sample_count(shortest_s, config.sample_period_s) - 1
    return float(np.float64(last_index) * config.sample_period_s)


def simulate_power_trace(
    steady_power_watts: float,
    duration_s: float,
    idle_power_watts: float,
    config: TelemetryConfig | None = None,
    seed: int = 0,
) -> PowerTrace:
    """Simulate the power trace of a kernel loop running for ``duration_s``.

    The trace starts at idle power and approaches the steady level with an
    exponential ramp, reproducing why the paper trims the first 500 ms.
    """
    if duration_s <= 0:
        raise TelemetryError(f"duration must be positive, got {duration_s}")
    if steady_power_watts < 0 or idle_power_watts < 0:
        raise TelemetryError("power levels must be non-negative")
    config = config or TelemetryConfig()
    rng = derive_rng(seed, "telemetry", round(steady_power_watts, 3), round(duration_s, 6))

    num_samples = _sample_count(duration_s, config.sample_period_s)
    times = _sample_time_grid(num_samples, config.sample_period_s)

    ramp = 1.0 - np.exp(-times / config.warmup_time_constant_s)
    power = idle_power_watts + (steady_power_watts - idle_power_watts) * ramp

    if config.drift_watts > 0:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        power = power + config.drift_watts * np.sin(
            2.0 * np.pi * times / config.drift_period_s + phase
        )
    if config.noise_std_watts > 0:
        power = power + rng.normal(0.0, config.noise_std_watts, size=num_samples)

    power = np.clip(power, 0.0, None)
    return PowerTrace(
        timestamps_s=times,
        power_watts=power,
        sample_period_s=config.sample_period_s,
    )
