"""bfloat16 datatype (extension beyond the paper's setups).

NumPy has no native bfloat16, so encoding goes through float32: the value is
rounded to nearest-even by adding the rounding increment to the float32 bit
pattern before truncating to the upper 16 bits.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec, FloatFormat

__all__ = ["BF16", "BF16_FORMAT", "BFloat16Spec"]

BF16_FORMAT = FloatFormat(exponent_bits=8, mantissa_bits=7)


class BFloat16Spec(DTypeSpec):
    """bfloat16: float32 dynamic range with a 7-bit mantissa."""

    def __init__(self, name: str = "bf16", tensor_core: bool = True) -> None:
        self.name = name
        self.kind = "float"
        self.bits = 16
        self.word_dtype = np.dtype(np.uint16)
        self.value_dtype = np.dtype(np.float32)
        self.float_format = BF16_FORMAT
        self.int_format = None
        self.tensor_core = tensor_core

    def encode(self, values: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float32))
        bits32 = arr.view(np.uint32)
        # Round to nearest even on the 16 truncated bits.
        lsb = (bits32 >> np.uint32(16)) & np.uint32(1)
        rounding = np.uint32(0x7FFF) + lsb
        rounded = bits32 + rounding
        # NaNs must stay NaN: truncation of a rounded NaN payload can produce
        # infinity, so force the quiet bit for NaN inputs.
        nan_mask = np.isnan(arr)
        upper = (rounded >> np.uint32(16)).astype(np.uint16)
        if np.any(nan_mask):
            upper = np.where(nan_mask, np.uint16(0x7FC0), upper)
        return upper

    def decode(self, words: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(self._check_words(words)).astype(np.uint32)
        bits32 = arr << np.uint32(16)
        # Widening a signalling NaN quiets it and raises "invalid".
        with np.errstate(invalid="ignore"):
            return bits32.view(np.float32).astype(np.float64)


BF16 = BFloat16Spec()
