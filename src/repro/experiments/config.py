"""Experiment configuration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.activity.sampler import SamplingConfig
from repro.dtypes.registry import get_dtype
from repro.errors import ExperimentError, PatternError
from repro.gpu.specs import get_gpu_spec
from repro.patterns.library import PATTERN_FAMILIES, build_pattern
from repro.telemetry.sampler import TelemetryConfig, latest_warmup_trim_s

__all__ = ["ExperimentConfig", "PAPER_MATRIX_SIZE", "PAPER_SEEDS", "PAPER_ITERATIONS"]

#: Matrix dimension used for the paper's main experiments.
PAPER_MATRIX_SIZE = 2048
#: Number of seeds the paper averages over.
PAPER_SEEDS = 10
#: Kernel iterations per run (the paper uses 20k for FP16-T, 10k otherwise).
PAPER_ITERATIONS = {"fp16_t": 20_000, "default": 10_000}


@dataclass(frozen=True)
class ExperimentConfig:
    """One measurement configuration (a single point of a sweep)."""

    # workload
    pattern_family: str = "gaussian"
    pattern_params: Mapping[str, Any] = field(default_factory=dict)
    dtype: str = "fp16_t"
    matrix_size: int = 512
    transpose_b: bool = True

    # device
    gpu: str = "a100"
    instance_id: int = 0

    # measurement procedure
    seeds: int = 3
    base_seed: int = 2024
    iterations: int = 2_000
    warmup_trim_s: float = 0.5
    include_process_variation: bool = True

    # estimator / telemetry knobs
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    # bookkeeping
    label: str = ""

    def __post_init__(self) -> None:
        if self.pattern_family not in PATTERN_FAMILIES:
            raise ExperimentError(
                f"unknown pattern family {self.pattern_family!r}; "
                f"known: {sorted(PATTERN_FAMILIES)}"
            )
        get_dtype(self.dtype)          # raises on unknown dtype
        get_gpu_spec(self.gpu)         # raises on unknown GPU
        for name in ("matrix_size", "instance_id", "seeds", "base_seed", "iterations"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        if self.matrix_size < 8:
            raise ExperimentError(f"matrix_size must be >= 8, got {self.matrix_size}")
        if self.seeds < 1:
            raise ExperimentError(f"seeds must be >= 1, got {self.seeds}")
        if self.iterations < 1:
            raise ExperimentError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.warmup_trim_s < math.inf:  # NaN fails every comparison
            raise ExperimentError(
                f"warmup_trim_s must be finite and >= 0, got {self.warmup_trim_s}"
            )
        latest_trim_s = latest_warmup_trim_s(self.telemetry)
        if self.warmup_trim_s > latest_trim_s:
            raise ExperimentError(
                f"warmup_trim_s={self.warmup_trim_s} can leave no power sample; "
                f"the shortest measurement's last sample is at {latest_trim_s} s"
            )
        if _has_non_finite(self.pattern_params):
            raise ExperimentError(
                f"pattern_params must be finite, got {dict(self.pattern_params)}"
            )
        # Freeze the mapping so the config is hashable-ish and safe to share.
        object.__setattr__(self, "pattern_params", dict(self.pattern_params))
        # Building the pattern is cheap and checks the family's parameters,
        # so a bad one is rejected here rather than partway through a run.
        try:
            build_pattern(self.pattern_family, self.dtype, **self.pattern_params)
        except (PatternError, ValueError) as exc:
            raise ExperimentError(f"invalid pattern_params: {exc}") from exc

    # ------------------------------------------------------------- builders

    def with_overrides(self, **overrides: Any) -> "ExperimentConfig":
        """Return a copy of this config with selected fields replaced."""
        return replace(self, **overrides)

    def with_pattern(self, family: str, **params: Any) -> "ExperimentConfig":
        """Return a copy with a different pattern family / parameters."""
        return replace(self, pattern_family=family, pattern_params=dict(params))

    @classmethod
    def paper_defaults(cls, dtype: str = "fp16_t", **overrides: Any) -> "ExperimentConfig":
        """Configuration matching the paper's methodology (2048², 10 seeds)."""
        dtype_name = get_dtype(dtype).name
        iterations = PAPER_ITERATIONS.get(dtype_name, PAPER_ITERATIONS["default"])
        config = cls(
            dtype=dtype_name,
            matrix_size=PAPER_MATRIX_SIZE,
            seeds=PAPER_SEEDS,
            iterations=iterations,
        )
        return config.with_overrides(**overrides) if overrides else config

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        """Build a configuration from a JSON-shaped mapping.

        Accepts the dataclass's own field names, with ``sampling`` and
        ``telemetry`` optionally given as nested mappings (their dataclass
        fields, e.g. ``{"sampling": {"output_samples": 64}}``).  This is the
        inverse of :meth:`describe` for the fields :meth:`describe` carries,
        and the wire format of the serving layer (:mod:`repro.serve`).
        Unknown or ill-typed fields raise :class:`ExperimentError` — a
        misspelled knob must not silently measure something else.
        """
        from dataclasses import fields as dataclass_fields

        data = dict(payload)
        known = {spec.name for spec in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError(
                f"unknown config field(s): {', '.join(unknown)}; "
                f"known: {sorted(known)}"
            )
        for field_name, factory in (("sampling", SamplingConfig), ("telemetry", TelemetryConfig)):
            value = data.get(field_name)
            if isinstance(value, Mapping):
                try:
                    data[field_name] = factory(**dict(value))
                except TypeError as exc:
                    raise ExperimentError(f"invalid {field_name} config: {exc}") from exc
        try:
            return cls(**data)
        except TypeError as exc:
            raise ExperimentError(f"invalid config: {exc}") from exc

    # ------------------------------------------------------------ utilities

    def describe(self) -> dict[str, Any]:
        """JSON-serializable description."""
        return {
            "pattern_family": self.pattern_family,
            "pattern_params": dict(self.pattern_params),
            "dtype": self.dtype,
            "matrix_size": self.matrix_size,
            "transpose_b": self.transpose_b,
            "gpu": self.gpu,
            "instance_id": self.instance_id,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "iterations": self.iterations,
            "warmup_trim_s": self.warmup_trim_s,
            "label": self.label or self.default_label(),
        }

    def default_label(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.pattern_params.items()))
        suffix = f"({params})" if params else ""
        return f"{self.pattern_family}{suffix}/{self.dtype}/{self.gpu}/{self.matrix_size}"


def _require_int(name: str, value: Any) -> int:
    """``value`` as a plain ``int``; floats (even integral ones), bools and
    other non-integers raise :class:`ExperimentError` naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ExperimentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _has_non_finite(value: Any) -> bool:
    """Whether ``value`` is, or nests in lists/mappings, a NaN or infinity."""
    if isinstance(value, Mapping):
        return any(_has_non_finite(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_non_finite(item) for item in value)
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, numbers.Integral)
        and not math.isfinite(value)
    )
