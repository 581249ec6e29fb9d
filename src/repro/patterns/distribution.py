"""Value-distribution patterns (paper §IV-A).

* :class:`GaussianPattern` — Gaussian values with configurable mean and
  standard deviation (Fig. 3a/3b sweeps).
* :class:`ValueSetPattern` — values drawn uniformly, with replacement, from
  a small set of Gaussian random values (Fig. 3c).
* :class:`ConstantPattern` / :class:`ConstantRandomPattern` — constant
  fills, the starting point for the bit-similarity experiments (Fig. 4).
* :class:`UniformPattern` — uniform values (extension, not in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.dtypes.convert import clip_to_range
from repro.errors import PatternError
from repro.patterns.base import Pattern

__all__ = [
    "GaussianPattern",
    "ValueSetPattern",
    "ConstantPattern",
    "ConstantRandomPattern",
    "UniformPattern",
]


class GaussianPattern(Pattern):
    """Matrix of Gaussian random values, clipped into the datatype's range."""

    blockwise = True

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std < 0:
            raise PatternError(f"std must be >= 0, got {std}")
        self.mean = float(mean)
        self.std = float(std)
        self.name = f"gaussian(mean={self.mean:g},std={self.std:g})"

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        values = rng.normal(self.mean, self.std, size=shape)
        return clip_to_range(values, dtype, out=values)

    def describe(self) -> dict[str, object]:
        return {"name": "gaussian", "mean": self.mean, "std": self.std}


class ValueSetPattern(Pattern):
    """Values selected uniformly (with replacement) from a small Gaussian set."""

    def __init__(self, set_size: int, mean: float = 0.0, std: float = 1.0) -> None:
        if set_size < 1:
            raise PatternError(f"set_size must be >= 1, got {set_size}")
        if std < 0:
            raise PatternError(f"std must be >= 0, got {std}")
        self.set_size = int(set_size)
        self.mean = float(mean)
        self.std = float(std)
        self.name = f"value_set(size={self.set_size})"

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        pool = rng.normal(self.mean, self.std, size=self.set_size)
        pool = clip_to_range(pool, dtype)
        indices = rng.integers(0, self.set_size, size=shape)
        return pool[indices]

    def describe(self) -> dict[str, object]:
        return {
            "name": "value_set",
            "set_size": self.set_size,
            "mean": self.mean,
            "std": self.std,
        }


class ConstantPattern(Pattern):
    """Matrix filled with a single fixed value."""

    def __init__(self, value: float) -> None:
        self.value = float(value)
        self.name = f"constant({self.value:g})"

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        clipped = float(clip_to_range(np.array([self.value]), dtype)[0])
        return np.full(shape, clipped, dtype=np.float64)

    def describe(self) -> dict[str, object]:
        return {"name": "constant", "value": self.value}


class ConstantRandomPattern(Pattern):
    """Matrix filled with a single random Gaussian value.

    The paper's bit-similarity experiments fill the A matrix with one random
    value and the B matrix with another; using different seeds for A and B
    (as the harness does) reproduces that setup.
    """

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std < 0:
            raise PatternError(f"std must be >= 0, got {std}")
        self.mean = float(mean)
        self.std = float(std)
        self.name = f"constant_random(mean={self.mean:g},std={self.std:g})"

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        value = rng.normal(self.mean, self.std)
        clipped = float(clip_to_range(np.array([value]), dtype)[0])
        return np.full(shape, clipped, dtype=np.float64)

    def describe(self) -> dict[str, object]:
        return {"name": "constant_random", "mean": self.mean, "std": self.std}


class UniformPattern(Pattern):
    """Matrix of uniform random values in ``[low, high)`` (extension)."""

    blockwise = True

    def __init__(self, low: float, high: float) -> None:
        if not high > low:
            raise PatternError(f"high must be > low, got low={low}, high={high}")
        self.low = float(low)
        self.high = float(high)
        self.name = f"uniform({self.low:g},{self.high:g})"

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        values = rng.uniform(self.low, self.high, size=shape)
        return clip_to_range(values, dtype, out=values)

    def describe(self) -> dict[str, object]:
        return {"name": "uniform", "low": self.low, "high": self.high}
