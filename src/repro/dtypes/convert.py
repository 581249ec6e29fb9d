"""Value conversion helpers shared by pattern generators and experiments.

The paper generates all floating point inputs as FP32 values and converts
them to the target datatype with round-to-nearest; integer inputs are drawn
with a narrower distribution so values stay in range.  These helpers
centralize that behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.dtypes.registry import get_dtype

__all__ = [
    "quantize_matrix",
    "encode_matrix",
    "paper_distribution_scale",
    "clip_to_range",
]

#: Standard deviation used by the paper for Gaussian inputs: 2**10 = 210 ≈ "210"
#: for floating point datatypes and 25 for INT8 (Fig. 2 caption).
PAPER_FP_STD = 210.0
PAPER_INT8_STD = 25.0


def paper_distribution_scale(dtype: "str | DTypeSpec") -> float:
    """Return the Gaussian standard deviation the paper uses for a datatype."""
    spec = get_dtype(dtype)
    return PAPER_INT8_STD if spec.is_integer else PAPER_FP_STD


def clip_to_range(
    values: np.ndarray,
    dtype: "str | DTypeSpec",
    margin: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Clip values into the representable range of ``dtype``.

    ``margin`` shrinks the range by a relative amount (e.g. ``0.01`` keeps
    values 1% away from the extremes), mirroring the paper's practice of
    choosing parameters so that values "practically fall within each
    datatype's representation range".  ``out`` (for example ``values``
    itself, to clip in place) receives the result, as in :func:`numpy.clip`.
    """
    spec = get_dtype(dtype)
    low, high = spec.representable_range
    if margin:
        span = (high - low) * margin / 2.0
        low, high = low + span, high - span
    return np.clip(np.asarray(values, dtype=np.float64), low, high, out=out)


def quantize_matrix(values: np.ndarray, dtype: "str | DTypeSpec") -> np.ndarray:
    """Round ``values`` to the nearest representable value of ``dtype`` (float64 out)."""
    spec = get_dtype(dtype)
    return spec.quantize(np.asarray(values, dtype=np.float64))


def encode_matrix(values: np.ndarray, dtype: "str | DTypeSpec") -> np.ndarray:
    """Return the bit patterns of ``values`` in ``dtype`` as unsigned words."""
    spec = get_dtype(dtype)
    return spec.encode(np.asarray(values, dtype=np.float64))
