"""Sampling configuration for the activity estimators.

Operand-stream, multiplier and memory statistics are exact (they reduce to
row/column aggregates), but the product/accumulator stream requires walking
the reduction dimension per output element, which is ``O(N*M*K)`` if done
exhaustively.  The engine therefore samples output positions; the default
sample is large enough that the sampled mean's error is far below the
trends being measured.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.errors import ActivityError

__all__ = ["SamplingConfig"]


@dataclass(frozen=True)
class SamplingConfig:
    """Controls how much of the output space the estimators sample."""

    #: number of (i, j) output positions sampled for product/accumulator toggles
    output_samples: int = 192
    #: cap on reduction length walked per sampled output (None = full K)
    max_k: int | None = None
    #: base seed for the sampling RNG (combined with the experiment seed)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("output_samples", "max_k", "seed"):
            value = getattr(self, name)
            if not (name == "max_k" and value is None):  # None walks the full K
                object.__setattr__(self, name, _require_int(name, value))
        if self.output_samples < 1:
            raise ActivityError(
                f"output_samples must be >= 1, got {self.output_samples}"
            )
        if self.max_k is not None and self.max_k < 2:
            raise ActivityError(f"max_k must be >= 2 when set, got {self.max_k}")

    def effective_k(self, k: int) -> int:
        """Reduction length actually walked for a problem with dimension ``k``."""
        if self.max_k is None:
            return k
        return min(k, self.max_k)


def _require_int(name: str, value: object) -> int:
    """``value`` as a plain ``int``; floats (even integral ones), bools and
    other non-integers raise :class:`ActivityError` naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ActivityError(f"{name} must be an integer, got {value!r}")
    return int(value)
