"""Operand streaming order of the tiled GEMM mainloop.

For an output element ``(i, j)`` the mainloop walks the reduction dimension
``k``: the multiplier sees the operand sequence ``A[i, 0], A[i, 1], ...``
on one input and ``B[0, j], B[1, j], ...`` on the other, while the
accumulator sees the running partial sums.  The DRAM/L2 interface, by
contrast, sees operands in *storage* order (row-major of the stored
matrices).  Both orders are needed by the switching-activity engine and are
captured here.

Streams hold the operands' encoded words only: each operand is encoded
exactly once (encoding already rounds to the datatype), and B in
consumption order is a transposed view of B in storage order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import KernelError
from repro.kernels.gemm import GemmOperands
from repro.util.rng import sample_without_replacement

__all__ = [
    "OperandStreams",
    "StackedOperandStreams",
    "build_streams",
    "build_streams_stacked",
]


@dataclass
class OperandStreams:
    """Bit patterns of the operands in streaming and storage order."""

    dtype: DTypeSpec
    #: Bit patterns of A in consumption order, shape (N, K); the k-stream
    #: runs along axis 1
    a_words: np.ndarray
    #: Bit patterns of B as stored in memory (row-major), shape (M, K) when
    #: ``transpose_b`` else (K, M)
    b_stored_words: np.ndarray
    #: Whether the kernel consumes the transpose of the stored B
    transpose_b: bool

    @property
    def b_words(self) -> np.ndarray:
        """Bit patterns of B in consumption order (K, M); a view, never a copy."""
        return self.b_stored_words.T if self.transpose_b else self.b_stored_words

    @property
    def n(self) -> int:
        return self.a_words.shape[0]

    @property
    def k(self) -> int:
        return self.a_words.shape[1]

    @property
    def m(self) -> int:
        return self.b_words.shape[1]

    def sample_output_positions(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample distinct output coordinates ``(i, j)`` for per-output analysis.

        Sampling is over the full ``N x M`` output space; when ``count``
        exceeds the space the whole space is returned (shuffled).
        """
        if count <= 0:
            raise KernelError(f"sample count must be positive, got {count}")
        total = self.n * self.m
        flat = sample_without_replacement(rng, total, min(count, total))
        rows = flat // self.m
        cols = flat % self.m
        return rows.astype(np.int64), cols.astype(np.int64)


def build_streams(operands: GemmOperands) -> OperandStreams:
    """Build :class:`OperandStreams` for a concrete GEMM invocation."""
    spec = operands.problem.dtype_spec
    return OperandStreams(
        dtype=spec,
        a_words=spec.encode(operands.a),
        b_stored_words=spec.encode(operands.b_stored),
        transpose_b=operands.problem.transpose_b,
    )


@dataclass
class StackedOperandStreams:
    """Operand streams of a whole batch of same-shape GEMM invocations.

    The batch (seed) axis is axis 0 of every array: ``a_words`` has shape
    ``(S, N, K)``, ``b_words`` has shape ``(S, K, M)`` and
    ``b_stored_words`` keeps the storage layout per slice.  Each slice holds
    exactly the words :func:`build_streams` produces for that invocation, so
    any activity statistic derived from a slice is bit-for-bit identical to
    the one-invocation-at-a-time result.
    """

    dtype: DTypeSpec
    #: Bit patterns of A in consumption order, shape (S, N, K)
    a_words: np.ndarray
    #: Bit patterns of B in storage order, shape (S, M, K) or (S, K, M)
    b_stored_words: np.ndarray
    #: Whether the kernel consumes the transpose of the stored B
    transpose_b: bool

    @property
    def b_words(self) -> np.ndarray:
        """Bit patterns of B in consumption order, shape (S, K, M); a view."""
        if self.transpose_b:
            return self.b_stored_words.transpose(0, 2, 1)
        return self.b_stored_words

    @property
    def batch(self) -> int:
        return self.a_words.shape[0]

    @property
    def n(self) -> int:
        return self.a_words.shape[1]

    @property
    def k(self) -> int:
        return self.a_words.shape[2]

    @property
    def m(self) -> int:
        return self.b_words.shape[2]

    def slice(self, index: int) -> OperandStreams:
        """Return one invocation of the batch as plain :class:`OperandStreams`
        (views of the stacked words; nothing is re-encoded)."""
        return OperandStreams(
            dtype=self.dtype,
            a_words=self.a_words[index],
            b_stored_words=self.b_stored_words[index],
            transpose_b=self.transpose_b,
        )


def build_streams_stacked(
    operands: "Sequence[GemmOperands] | Sequence[OperandStreams]",
) -> StackedOperandStreams:
    """Stack a batch of same-shape GEMM invocations into one stream object.

    All invocations must share shape, datatype and B-transposition.  Each
    operand is encoded once (by :func:`build_streams`) and only its words
    are stacked.
    """
    items = list(operands)
    if not items:
        raise KernelError("build_streams_stacked needs at least one invocation")
    if not isinstance(items[0], (GemmOperands, OperandStreams)):
        raise KernelError(
            f"build_streams_stacked expects GemmOperands or OperandStreams, "
            f"got {type(items[0]).__name__}"
        )
    kind = OperandStreams if isinstance(items[0], OperandStreams) else GemmOperands
    streams = []
    for item in items:
        if not isinstance(item, kind):
            raise KernelError(f"cannot mix {kind.__name__} with other operand types")
        streams.append(item if kind is OperandStreams else build_streams(item))
    signature = _signature(streams[0])
    for other in streams[1:]:
        if _signature(other) != signature:
            raise KernelError(
                "stacked invocations must share shape, dtype and transposition; "
                f"got {signature} vs {_signature(other)}"
            )
    return StackedOperandStreams(
        dtype=streams[0].dtype,
        a_words=np.stack([s.a_words for s in streams]),
        b_stored_words=np.stack([s.b_stored_words for s in streams]),
        transpose_b=streams[0].transpose_b,
    )


def _signature(streams: OperandStreams) -> tuple:
    return (streams.dtype.name, streams.n, streams.m, streams.k, streams.transpose_b)
