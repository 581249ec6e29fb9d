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
consumption order is a transposed view of B in storage order.  Every
stream is a stack of same-shape GEMM invocations along a leading seed
axis; a single GEMM is a stack of one.
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
    """Bit patterns of a stack of same-shape GEMM invocations.

    The batch (seed) axis is axis 0 of every array: ``a_words`` has shape
    ``(S, N, K)``, ``b_words`` has shape ``(S, K, M)`` and
    ``b_stored_words`` keeps the storage layout per slice.  2-D words are
    taken as a stack of one (a view, never a copy).  Each slice holds
    exactly the words :func:`build_streams` produces for that invocation,
    so any activity statistic derived from a slice does not depend on what
    else is stacked with it.
    """

    dtype: DTypeSpec
    #: Bit patterns of A in consumption order, shape (S, N, K); the k-stream
    #: runs along axis 2
    a_words: np.ndarray
    #: Bit patterns of B as stored in memory (row-major), shape (S, M, K)
    #: when ``transpose_b`` else (S, K, M)
    b_stored_words: np.ndarray
    #: Whether the kernel consumes the transpose of the stored B
    transpose_b: bool

    def __post_init__(self) -> None:
        a_words = np.asarray(self.a_words)
        b_stored_words = np.asarray(self.b_stored_words)
        if a_words.ndim == 2:
            a_words = a_words[np.newaxis]
        if b_stored_words.ndim == 2:
            b_stored_words = b_stored_words[np.newaxis]
        if a_words.ndim != 3 or b_stored_words.ndim != 3:
            raise KernelError(
                "operand words must be 2-D (one GEMM) or 3-D (a stack); got A "
                f"{np.shape(self.a_words)} and B {np.shape(self.b_stored_words)}"
            )
        if a_words.shape[0] != b_stored_words.shape[0]:
            raise KernelError(
                f"A stacks {a_words.shape[0]} invocations but B stacks "
                f"{b_stored_words.shape[0]}"
            )
        b_k = b_stored_words.shape[2 if self.transpose_b else 1]
        if a_words.shape[2] != b_k:
            raise KernelError(
                f"A has K={a_words.shape[2]} but B has K={b_k} "
                f"(transpose_b={self.transpose_b})"
            )
        self.a_words = a_words
        self.b_stored_words = b_stored_words

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

    def slice(self, index: int) -> "OperandStreams":
        """Return invocation ``index`` as a stack of one (views of the
        stacked words; nothing is re-encoded)."""
        return OperandStreams(
            dtype=self.dtype,
            a_words=self.a_words[index : index + 1],
            b_stored_words=self.b_stored_words[index : index + 1],
            transpose_b=self.transpose_b,
        )

    def sample_output_positions(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample distinct output coordinates ``(i, j)`` for per-output analysis.

        Sampling is over the full ``N x M`` output space of one invocation;
        when ``count`` exceeds the space the whole space is returned
        (shuffled).
        """
        if count <= 0:
            raise KernelError(f"sample count must be positive, got {count}")
        total = self.n * self.m
        flat = sample_without_replacement(rng, total, min(count, total))
        rows = flat // self.m
        cols = flat % self.m
        return rows.astype(np.int64), cols.astype(np.int64)


#: Another name for :class:`OperandStreams`, kept importable: every stream
#: is a stack.
StackedOperandStreams = OperandStreams


def build_streams(operands: GemmOperands) -> OperandStreams:
    """Build the stack of one :class:`OperandStreams` of a GEMM invocation."""
    spec = operands.problem.dtype_spec
    return OperandStreams(
        dtype=spec,
        a_words=spec.encode(operands.a),
        b_stored_words=spec.encode(operands.b_stored),
        transpose_b=operands.problem.transpose_b,
    )


def build_streams_stacked(
    operands: "Sequence[GemmOperands] | Sequence[OperandStreams]",
) -> OperandStreams:
    """Stack a batch of same-shape GEMM invocations into one stream object.

    All invocations must share shape, datatype and B-transposition.  Each
    operand is encoded once (by :func:`build_streams`) and only its words
    are stacked; a single invocation is returned as built, without a copy.
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
    if len(streams) == 1:
        return streams[0]
    signature = _signature(streams[0])
    for other in streams[1:]:
        if _signature(other) != signature:
            raise KernelError(
                "stacked invocations must share shape, dtype and transposition; "
                f"got {signature} vs {_signature(other)}"
            )
    return OperandStreams(
        dtype=streams[0].dtype,
        a_words=np.concatenate([s.a_words for s in streams]),
        b_stored_words=np.concatenate([s.b_stored_words for s in streams]),
        transpose_b=streams[0].transpose_b,
    )


def _signature(streams: OperandStreams) -> tuple:
    return (streams.dtype.name, streams.n, streams.m, streams.k, streams.transpose_b)
