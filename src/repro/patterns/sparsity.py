"""Sparsity transforms (paper §IV-D).

* :class:`SparsityTransform` — set a random fraction of elements to zero
  (Fig. 6a; composed after a full sort it gives Fig. 6b).
* :class:`ZeroLowBitsTransform` / :class:`ZeroHighBitsTransform` — zero the
  least / most significant bits of every element (Fig. 6c / 6d, "sparsity in
  physical structure").
* :class:`StructuredSparsityTransform` — N:M structured sparsity along rows
  (extension; used by the power-aware sparsity designs of §V).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import PatternError
from repro.patterns.base import Transform
from repro.patterns.bitsim import BitFieldTransform

__all__ = [
    "SparsityTransform",
    "ZeroLowBitsTransform",
    "ZeroHighBitsTransform",
    "StructuredSparsityTransform",
]


class SparsityTransform(Transform):
    """Set a uniformly random fraction of elements to zero."""

    def __init__(self, sparsity: float) -> None:
        if not 0.0 <= sparsity <= 1.0:
            raise PatternError(f"sparsity must be in [0, 1], got {sparsity}")
        self.sparsity = float(sparsity)
        self.name = f"sparsity({self.sparsity:g})"

    def apply_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        arr = np.array(words, copy=True)
        if self.sparsity == 0.0:
            return arr
        count = int(round(self.sparsity * arr.size))
        if count >= arr.size:
            return np.zeros_like(arr)
        zero_indices = rng.choice(arr.size, size=count, replace=False)
        arr.reshape(-1)[zero_indices] = 0
        return arr

    # Zero is word 0 in every datatype and the zeroed positions do not depend
    # on the elements, so the same code rewrites values exactly (no encode
    # round trip, so unrepresentable inputs pass through unchanged).
    apply = apply_words

    def describe(self) -> dict[str, object]:
        return {"name": "sparsity", "sparsity": self.sparsity}


class ZeroLowBitsTransform(BitFieldTransform):
    """Zero the ``count`` least significant bits of every element."""

    family = "zero_lsb"


class ZeroHighBitsTransform(BitFieldTransform):
    """Zero the ``count`` most significant bits of every element."""

    family = "zero_msb"
    high = True


class StructuredSparsityTransform(Transform):
    """Keep the ``n`` largest-magnitude values in every group of ``m`` along rows.

    This is the N:M structured sparsity pattern supported by NVIDIA sparse
    tensor cores (e.g. 2:4); it is used by the power-aware sparsity designs
    in :mod:`repro.optimize.sparsity_design`.
    """

    def __init__(self, n: int, m: int) -> None:
        if m < 1 or n < 0 or n > m:
            raise PatternError(f"invalid N:M sparsity spec {n}:{m}")
        self.n = int(n)
        self.m = int(m)
        self.name = f"structured_sparsity({self.n}:{self.m})"

    def apply(
        self, values: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        arr = np.array(values, dtype=np.float64, copy=True)
        rows, cols = arr.shape
        if cols % self.m != 0:
            raise PatternError(
                f"matrix width {cols} is not a multiple of the group size {self.m}"
            )
        groups = arr.reshape(rows, cols // self.m, self.m)
        if self.n == 0:
            return np.zeros_like(arr)
        # Rank within each group by magnitude; zero everything below the top n.
        order = np.argsort(np.abs(groups), axis=-1)
        keep = np.zeros_like(groups, dtype=bool)
        top_indices = order[..., self.m - self.n:]
        np.put_along_axis(keep, top_indices, True, axis=-1)
        groups = np.where(keep, groups, 0.0)
        return groups.reshape(rows, cols)

    def describe(self) -> dict[str, object]:
        return {"name": "structured_sparsity", "n": self.n, "m": self.m}
