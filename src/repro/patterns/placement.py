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

For 16-bit float words (fp16, bf16) the ``rows`` and ``columns`` modes sort
the words themselves with a counting sort: every one of the 65,536 words
has a place in a per-dtype value order (tabulated once, NaNs last), so a
histogram of the input replayed in that order is the sorted output.  The
same two tie classes are refilled in input order, and the partial sort
reads its threshold off the cumulative histogram, so the words are exactly
those of the float path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class _WordOrder:
    """Value order of every word of a 16-bit float dtype."""

    #: all words, ascending by value; ``±0`` adjacent, NaNs last
    order: np.ndarray
    #: tie class of each word: equal values share a class, and so do NaNs
    rank: np.ndarray
    #: position of the first zero in ``order`` (``-0`` and ``+0`` take two)
    zero_pos: int
    #: position of the first NaN in ``order`` (NaNs run to the end)
    nan_pos: int


@lru_cache(maxsize=None)
def _word_order(dtype: DTypeSpec) -> _WordOrder:
    """Tabulate ``dtype``'s word order (once per dtype and process)."""
    words = np.arange(1 << 16, dtype=np.uint32).astype(dtype.word_dtype)
    values = dtype.decode(words)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    nan = np.isnan(ordered)
    same = (ordered[1:] == ordered[:-1]) | (nan[1:] & nan[:-1])
    rank = np.empty(words.size, dtype=np.uint16)
    rank[order] = np.concatenate([[0], np.cumsum(~same)])
    order = words[order]
    # Shared by every caller in the process: make the tables read-only.
    order.flags.writeable = rank.flags.writeable = False
    return _WordOrder(
        order=order,
        rank=rank,
        zero_pos=int(np.searchsorted(ordered, 0.0, side="left")),
        nan_pos=int(np.count_nonzero(~nan)),
    )


def _counting_sort(flat: np.ndarray, table: _WordOrder) -> np.ndarray:
    """Stable sort of 16-bit float words: the histogram replayed in value
    order, with the ``±0`` and NaN blocks refilled in input order."""
    counts = np.bincount(flat, minlength=table.order.size)[table.order]
    ordered = np.repeat(table.order, counts)
    ends = np.cumsum(counts)
    zeros_start = int(ends[table.zero_pos - 1]) if table.zero_pos else 0
    zeros_end = int(ends[table.zero_pos + 1])
    nan_start = int(ends[table.nan_pos - 1])
    # np.compress: boolean indexing is several times slower on 2-byte words.
    if zeros_end - zeros_start > 1:
        ordered[zeros_start:zeros_end] = np.compress(
            table.rank[flat] == table.rank[0], flat
        )
    if flat.size - nan_start > 1:
        ordered[nan_start:] = np.compress(
            table.rank[flat] == table.rank[table.order[-1]], flat
        )
    return ordered


def _partial_sort_words(flat: np.ndarray, fraction: float, table: _WordOrder) -> np.ndarray:
    """:func:`_partial_sort_flat` on 16-bit float words.

    The lowest ``k`` words in stable order are the first ``k`` of the full
    stable sort; the rest keep their input order behind them."""
    size = flat.size
    k = int(round(fraction * size))
    if k <= 0:
        return flat.copy()
    ordered = _counting_sort(flat, table)
    if k >= size:
        return ordered
    ranks = table.rank[flat]
    threshold = table.rank[ordered[k - 1]]
    lowest = ranks < threshold
    ties = np.flatnonzero(ranks == threshold)
    lowest[ties[: k - np.count_nonzero(lowest)]] = True
    ordered[k:] = np.compress(~lowest, flat)
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

    def apply_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        if self.mode == "within_rows" or dtype.float_format is None or dtype.bits != 16:
            return super().apply_words(words, dtype, rng)
        table = _word_order(dtype)
        if self.mode == "rows":
            flat = _partial_sort_words(words.reshape(-1), self.fraction, table)
            out = flat.reshape(words.shape)
        else:
            flat = _partial_sort_words(words.reshape(-1, order="F"), self.fraction, table)
            out = np.ascontiguousarray(flat.reshape(words.shape, order="F"))
        return dtype.canonical(out)

    def describe(self) -> dict[str, object]:
        return {"name": "partial_sort", "mode": self.mode, "fraction": self.fraction}
