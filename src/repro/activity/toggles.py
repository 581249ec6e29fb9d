"""Constants, the accumulator encoding and the stack-of-one check shared by
the activity estimators."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.dtypes.registry import get_dtype
from repro.errors import ActivityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.schedule import OperandStreams

__all__ = ["encode_for_accumulator"]

#: Expected toggle fraction between successive i.i.d.-random words; used to
#: normalize stream activities so "random data" maps to activity ~1.0.
RANDOM_TOGGLE_FRACTION = 0.5

#: Expected Hamming-weight fraction of an i.i.d.-random word.
RANDOM_HAMMING_FRACTION = 0.5

#: Residual activity of a zero-gated multiply (clocking and control overhead).
ZERO_GATED_RESIDUAL = 0.04


def one_invocation(streams: "OperandStreams") -> "OperandStreams":
    """``streams`` if it stacks exactly one GEMM invocation.

    The single-GEMM estimators run their batch body on a stack of one;
    anything larger would silently drop every estimate but the first.
    """
    if streams.batch != 1:
        raise ActivityError(
            f"a single-GEMM estimate needs a stack of one invocation, got {streams.batch}"
        )
    return streams


def encode_for_accumulator(values: np.ndarray, dtype: DTypeSpec) -> np.ndarray:
    """Encode intermediate products / partial sums in the accumulator format.

    NVIDIA GEMM pipelines accumulate FP16/BF16 tensor-core products in FP32
    and INT8 products in INT32; FP32/FP64 accumulate at their own width.
    The returned words are what the accumulator register bits would hold.
    """
    if dtype.is_integer:
        return get_dtype("int32").encode(values)
    return get_dtype("fp64" if dtype.bits >= 64 else "fp32").encode(values)
