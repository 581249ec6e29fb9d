"""Vectorized bit-level primitives.

Everything in this module operates on NumPy arrays of *unsigned integer
words* (``uint8``/``uint16``/``uint32``/``uint64``).  Encoding values of a
particular datatype into such words is the job of :mod:`repro.dtypes`; this
module only counts bits.

The implementations follow the HPC guidance for this project: no Python
loops over elements, native or byte-table popcount, and explicit
contiguity so views never silently copy in hot paths.  Toggle counts
(:func:`toggle_fraction_per_slice`) run on the contiguous layout of a word
stack: one XOR of each slice's flat word stream against itself shifted by
the stride of the counted axis, popcounted 64 bits at a time through a
``uint64`` view, minus the pairs that straddle the axis.  The activity
estimators' counts stage (:mod:`repro.activity.counts`) makes every count
it shares through these primitives.

.. rubric:: Released-GIL (nogil) sections

Every hot kernel here bottoms out in NumPy ufunc/reduction loops —
``bitwise_xor``, ``bitwise_count`` (or the byte-table fancy-index gather on
older NumPy), ``sum`` reductions — all of which drop the GIL for the
duration of their C inner loop (NumPy's ``NPY_BEGIN_THREADS`` around ufunc
and reduction execution).  Python-level work per call is a handful of shape
checks and view constructions, so concurrent calls from a thread pool run
effectively in parallel; this is what makes the sweep runner's ``threads``
backend scale near-linearly on estimation-bound workloads
(``benchmarks/bench_engine_performance.py::bench_nogil_kernel_threads``
measures it).  The kernels share no mutable module state — the only global,
:data:`POPCOUNT_TABLE`, is read-only — so no locking is needed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ActivityError

__all__ = [
    "POPCOUNT_TABLE",
    "bit_width",
    "popcount",
    "hamming_weight",
    "hamming_weight_fraction",
    "hamming_distance",
    "bit_alignment",
    "toggle_count",
    "toggle_fraction",
    "toggle_fraction_along_axis",
    "toggle_fraction_per_slice",
    "set_low_bits_mask",
    "set_high_bits_mask",
]

#: Precomputed popcount for every byte value.  Indexing an arbitrary-shape
#: ``uint8`` array with this table is the fastest pure-NumPy popcount on
#: NumPy builds without the native ``bitwise_count`` ufunc.
POPCOUNT_TABLE: np.ndarray = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

#: NumPy >= 2.0 ships a hardware-backed popcount ufunc that is an order of
#: magnitude faster than the byte-table gather; fall back to the table on
#: older builds.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_UNSIGNED_KINDS = ("u",)


def _require_unsigned(words: np.ndarray, name: str = "words") -> np.ndarray:
    arr = np.asarray(words)
    if arr.dtype.kind not in _UNSIGNED_KINDS:
        raise ActivityError(
            f"{name} must be an unsigned integer array, got dtype {arr.dtype}"
        )
    return arr


def bit_width(words: np.ndarray) -> int:
    """Return the number of bits per word for an unsigned integer array."""
    arr = _require_unsigned(words)
    return arr.dtype.itemsize * 8


def popcount(words: np.ndarray) -> np.ndarray:
    """Count the set bits of each word.

    Parameters
    ----------
    words:
        Unsigned integer array of any shape.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array with the same shape as ``words`` containing the
        number of set bits in each element (at most 64, so it fits).
        Reduce it with an explicit wide ``dtype`` or a float mean; do not
        subtract counts, which wraps around in ``uint8``.
    """
    arr = _require_unsigned(words)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(arr)
    flat = np.ascontiguousarray(arr)
    as_bytes = flat.view(np.uint8).reshape(*flat.shape, flat.dtype.itemsize)
    return POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


def hamming_weight(words: np.ndarray) -> int:
    """Total number of set bits across the whole array."""
    return int(popcount(words).sum())


def hamming_weight_fraction(words: np.ndarray) -> float:
    """Fraction of set bits across the whole array, in ``[0, 1]``."""
    arr = _require_unsigned(words)
    if arr.size == 0:
        return 0.0
    total_bits = arr.size * bit_width(arr)
    return hamming_weight(arr) / total_bits


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-element Hamming distance between two equally shaped word arrays."""
    aa = _require_unsigned(a, "a")
    bb = _require_unsigned(b, "b")
    if aa.shape != bb.shape:
        raise ActivityError(
            f"hamming_distance requires matching shapes, got {aa.shape} vs {bb.shape}"
        )
    if aa.dtype != bb.dtype:
        raise ActivityError(
            f"hamming_distance requires matching dtypes, got {aa.dtype} vs {bb.dtype}"
        )
    return popcount(np.bitwise_xor(aa, bb))


def bit_alignment(a: np.ndarray, b: np.ndarray) -> float:
    """Mean bit alignment between paired words of ``a`` and ``b``.

    Alignment is 1.0 when all bits agree and 0.0 when every bit differs,
    matching the definition used for Figure 8 of the paper.
    """
    aa = _require_unsigned(a, "a")
    if aa.size == 0:
        return 1.0
    width = bit_width(aa)
    mean_distance = float(hamming_distance(a, b).mean())
    return 1.0 - mean_distance / width


def toggle_count(a: np.ndarray, b: np.ndarray) -> int:
    """Total number of bit flips when words ``a`` are replaced by words ``b``."""
    return int(hamming_distance(a, b).sum())


def toggle_fraction(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of bits that flip when ``a`` is replaced by ``b`` (in ``[0, 1]``)."""
    aa = _require_unsigned(a, "a")
    if aa.size == 0:
        return 0.0
    total_bits = aa.size * bit_width(aa)
    return toggle_count(a, b) / total_bits


def toggle_fraction_along_axis(words: np.ndarray, axis: int) -> float:
    """Mean toggle fraction between successive words along ``axis``.

    This models a datapath latch that sees the words streamed one after the
    other in the order they appear along ``axis`` (for example the k-loop of
    a GEMM streaming a row of ``A``).  For an array with a single element
    along ``axis`` there are no transitions and the result is 0.
    """
    arr = _require_unsigned(words)
    if arr.ndim == 0:
        raise ActivityError("toggle_fraction_along_axis requires at least 1-D input")
    axis = axis % arr.ndim
    n = arr.shape[axis]
    if n < 2:
        return 0.0
    lag, lead = _successive_views(arr, axis)
    return toggle_fraction(lag, lead)


def _successive_views(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (lag, lead) views of successive words along ``axis``."""
    lag_index = [slice(None)] * arr.ndim
    lead_index = [slice(None)] * arr.ndim
    lag_index[axis] = slice(0, -1)
    lead_index[axis] = slice(1, None)
    return arr[tuple(lag_index)], arr[tuple(lead_index)]


def toggle_fraction_per_slice(words: np.ndarray, axis: int) -> np.ndarray:
    """Per-slice toggle fraction between successive words along ``axis``.

    Axis 0 is the batch axis: for input of shape ``(S, ...)`` the result is a
    ``float64`` array of ``S`` toggle fractions, where entry ``s`` equals
    ``toggle_fraction_along_axis(words[s], axis - 1)`` bit for bit.

    The count runs on the contiguous layout, never on a strided view: each
    slice's flat word stream is XORed with itself shifted by the stride of
    ``axis`` (one word for the last axis), the XOR is popcounted 64 bits at
    a time through a ``uint64`` view whose tail is padded with zeros, and
    the pairs that straddle a boundary of ``axis`` (for the last axis, the
    last word of a row against the first of the next) are subtracted
    again.  Counts are integer sums, divided by the bit count of the
    successive pairs once at the end, so any order gives the same result.
    """
    arr = _require_unsigned(words)
    if arr.ndim < 2:
        raise ActivityError("toggle_fraction_per_slice requires at least 2-D input")
    axis = axis % arr.ndim
    if axis == 0:
        raise ActivityError("axis 0 is the batch axis; toggles must run along another axis")
    batch, n = arr.shape[0], arr.shape[axis]
    if n < 2 or arr.size == 0:
        return np.zeros(batch, dtype=np.float64)
    stride = int(np.prod(arr.shape[axis + 1 :]))
    flat = arr.reshape(batch, -1)
    pairs = flat.shape[1] - stride
    per_lane = 8 // arr.itemsize
    xor = np.empty((batch, -(-pairs // per_lane) * per_lane), dtype=arr.dtype)
    xor[:, pairs:] = 0
    np.bitwise_xor(flat[:, stride:], flat[:, :-stride], out=xor[:, :pairs])
    counts = popcount(xor.view(np.uint64)).sum(axis=1, dtype=np.int64)
    # XOR row j pairs the words of row j with those one step further along
    # ``axis``; rows at the last position along ``axis`` cross into the
    # next block and are not successive words.
    straddling = xor[:, :pairs].reshape(batch, -1, stride)[:, n - 1 :: n]
    if straddling.size:
        counts -= popcount(straddling).reshape(batch, -1).sum(axis=1, dtype=np.int64)
    return counts / (flat.shape[1] // n * (n - 1) * bit_width(arr))


def set_low_bits_mask(width: int, count: int, dtype: np.dtype) -> int:
    """Return a mask with the ``count`` least significant bits of a ``width``-bit word set."""
    if not 0 <= count <= width:
        raise ActivityError(f"count must be within [0, {width}], got {count}")
    if count == 0:
        return 0
    mask = (1 << count) - 1
    return int(np.array(mask, dtype=np.uint64).astype(dtype))


def set_high_bits_mask(width: int, count: int, dtype: np.dtype) -> int:
    """Return a mask with the ``count`` most significant bits of a ``width``-bit word set."""
    if not 0 <= count <= width:
        raise ActivityError(f"count must be within [0, {width}], got {count}")
    if count == 0:
        return 0
    low = (1 << (width - count)) - 1
    full = (1 << width) - 1
    mask = full ^ low
    return int(np.array(mask, dtype=np.uint64).astype(dtype))
