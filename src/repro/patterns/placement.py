"""Placement (sorting) transforms (paper §IV-C).

"Sorting n percent" follows the paper's definition: the lowest n percent of
values are sorted (ascending) into the first n percent of indices in the
traversal order (row-major for row sorting, column-major for column
sorting); the remaining values keep their original relative order in the
remaining indices.

The sorts are exact: they return the bits a stable sort would, but run on
NumPy's default (unstable, vectorized) sort.  Two floats that compare equal
have the same bits unless they are zeros of either sign or NaNs with
different payloads, so a stable order can only be observed in those two
classes.  Both are contiguous blocks of the sorted output (zeros in the
middle, NaNs at the end), and :func:`_stable_order` refills each block with
the input's members in input order.  A partial sort takes the lowest ``k``
values as a stable argsort would: every value below the ``k``-th smallest,
then the earliest values tied with it in input order (NaN ties only NaN).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import PatternError
from repro.patterns.base import Transform

__all__ = [
    "sort_rows",
    "sort_columns",
    "sort_within_rows",
    "PartialSortTransform",
    "SORT_MODES",
]

SORT_MODES = ("rows", "columns", "within_rows")


def _partial_sort_flat(flat: np.ndarray, fraction: float) -> np.ndarray:
    """Partially sort a 1-D array per the paper's definition."""
    size = flat.size
    k = int(round(fraction * size))
    if k <= 0:
        return flat.copy()
    ordered = np.sort(flat)
    if k >= size:
        return _stable_order(ordered, flat)
    lowest = _lowest_k(flat, ordered[k - 1], k)
    return np.concatenate([_stable_order(ordered[:k], flat[lowest]), flat[~lowest]])


def _lowest_k(flat: np.ndarray, threshold: float, k: int) -> np.ndarray:
    """Mask of the ``k`` elements a stable sort puts first, given the
    ``k``-th smallest value ``threshold``."""
    if np.isnan(threshold):
        ties = np.isnan(flat)
        lowest = ~ties
    else:
        lowest = flat < threshold
        ties = flat == threshold
    lowest[np.flatnonzero(ties)[: k - np.count_nonzero(lowest)]] = True
    return lowest


def _stable_order(ordered: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Refill the zero and NaN blocks of ``ordered`` (the sorted values of
    ``source``) with ``source``'s zeros and NaNs in input order, in place."""
    zeros_start = np.searchsorted(ordered, 0.0, side="left")
    zeros_end = np.searchsorted(ordered, 0.0, side="right")
    if zeros_end > zeros_start:
        ordered[zeros_start:zeros_end] = source[source == 0.0]
    nan_start = np.searchsorted(ordered, np.inf, side="right")
    if nan_start < ordered.size:
        ordered[nan_start:] = source[np.isnan(source)]
    return ordered


def sort_rows(matrix: np.ndarray, fraction: float) -> np.ndarray:
    """Partially sort a matrix into rows (row-major traversal)."""
    _check_fraction(fraction)
    arr = np.asarray(matrix, dtype=np.float64)
    flat = arr.reshape(-1)  # row-major
    return _partial_sort_flat(flat, fraction).reshape(arr.shape)


def sort_columns(matrix: np.ndarray, fraction: float) -> np.ndarray:
    """Partially sort a matrix into columns (column-major traversal)."""
    _check_fraction(fraction)
    arr = np.asarray(matrix, dtype=np.float64)
    flat = arr.reshape(-1, order="F")
    return _partial_sort_flat(flat, fraction).reshape(arr.shape, order="F")


def sort_within_rows(matrix: np.ndarray, fraction: float) -> np.ndarray:
    """Partially sort each row independently (paper's intra-row sorting)."""
    _check_fraction(fraction)
    arr = np.asarray(matrix, dtype=np.float64)
    result = np.empty_like(arr)
    for row_index in range(arr.shape[0]):
        result[row_index] = _partial_sort_flat(arr[row_index], fraction)
    return result


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise PatternError(f"sort fraction must be in [0, 1], got {fraction}")


class PartialSortTransform(Transform):
    """Partial sorting transform; ``mode`` selects rows/columns/within_rows."""

    def __init__(self, fraction: float, mode: str = "rows") -> None:
        _check_fraction(fraction)
        if mode not in SORT_MODES:
            raise PatternError(f"mode must be one of {SORT_MODES}, got {mode!r}")
        self.fraction = float(fraction)
        self.mode = mode
        self.name = f"sort_{mode}({self.fraction:g})"

    def apply(
        self, values: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        if self.mode == "rows":
            return sort_rows(values, self.fraction)
        if self.mode == "columns":
            return sort_columns(values, self.fraction)
        return sort_within_rows(values, self.fraction)

    def describe(self) -> dict[str, object]:
        return {"name": "partial_sort", "mode": self.mode, "fraction": self.fraction}
