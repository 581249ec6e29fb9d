"""The integer counts stage: one pass per word stack, shared by the estimators.

The operand bus, the memory interface and the multiplier all reduce the
same few integer counts of an operand stack: toggles between successive
words and per-``K`` popcount and zero-word sums.  :class:`StackCounts`
computes each of them at most once per stack, always on the stored
(contiguous) layout, and hands the same arrays to every estimator that
asks; the engine builds one per chunk.  Counts are keyed by layout — the
operand and the storage axis — so the operand bus's consumed-order B
toggles reuse the memory interface's stored-order count exactly when they
count the same word pairs (``transpose_b=True``) and are counted
separately otherwise.  Every count is an exact integer, so an estimate
reduced from shared counts is bit for bit the one reduced from its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels.schedule import OperandStreams
from repro.util.bits import popcount, toggle_fraction_per_slice

__all__ = ["StackCounts"]

#: Largest sum a ``uint16`` accumulator holds exactly.
_UINT16_MAX = np.iinfo(np.uint16).max


class StackCounts:
    """The integer counts of one :class:`OperandStreams` stack, made lazily
    and at most once each.

    ``operand`` is ``"a"`` or ``"b"`` and always names the *stored* words:
    A as ``(S, N, K)`` and B as stored, ``(S, M, K)`` when ``transpose_b``
    else ``(S, K, M)``.
    """

    def __init__(self, streams: OperandStreams) -> None:
        self.streams = streams
        self._memo: dict[tuple, np.ndarray] = {}

    def _once(self, key: tuple, compute: Callable[[], np.ndarray]) -> np.ndarray:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _stored(self, operand: str) -> np.ndarray:
        return self.streams.a_words if operand == "a" else self.streams.b_stored_words

    def _k_axis(self, operand: str) -> int:
        """The storage axis ``K`` runs along."""
        return 2 if operand == "a" or self.streams.transpose_b else 1

    def toggles(self, operand: str, axis: int) -> np.ndarray:
        """Per-slice toggle fractions of the stored words along storage
        ``axis`` (2: along each stored row, 1: down each stored column)."""
        return self._once(
            ("toggles", operand, axis),
            lambda: toggle_fraction_per_slice(self._stored(operand), axis),
        )

    def hamming_per_k(self, operand: str) -> np.ndarray:
        """``(S, K)`` ``int64`` popcount sums over the words sharing each ``k``.

        The popcount runs per byte (NumPy's popcount of ``uint8`` is several
        times faster than of ``uint16``); the byte counts are summed over
        the rows first and folded into words after, on the small sums.
        """

        def count() -> np.ndarray:
            words = np.ascontiguousarray(self._stored(operand))
            per_byte = popcount(words.view(np.uint8))
            sums = self._per_k(operand, per_byte)
            if self._k_axis(operand) == 1:  # the sum ran along each row's bytes
                return sums
            return sums.reshape(*sums.shape[:-1], -1, words.itemsize).sum(axis=-1)

        return self._once(("hamming", operand), count)

    def zeros_per_k(self, operand: str) -> np.ndarray:
        """``(S, K)`` ``int64`` counts of exact-zero words sharing each ``k``."""
        return self._once(
            ("zeros", operand), lambda: self._per_k(operand, self._zero_words(operand))
        )

    def _per_k(self, operand: str, counts: np.ndarray) -> np.ndarray:
        """Sum per-word (or per-byte) ``counts`` over the storage axis that is
        not ``K``, in the narrowest accumulator that is exact: the sum of
        one ``k`` is at most ``width`` times the rows it covers."""
        axis = 3 - self._k_axis(operand)
        rows = self._stored(operand).shape[axis]
        exact_in_uint16 = self.streams.dtype.bits * rows <= _UINT16_MAX
        accumulator = np.uint16 if exact_in_uint16 else np.int64
        return counts.sum(axis=axis, dtype=accumulator).astype(np.int64, copy=False)

    def _zero_words(self, operand: str) -> np.ndarray:
        """Which words encode an exact zero.

        A float zero keeps its sign bit, so ``-0.0`` (for example fp16's
        encoding of ``-1e-30``) is found by masking the sign off; an integer
        zero is the all-zero word.
        """
        words, dtype = self._stored(operand), self.streams.dtype
        if dtype.is_float:
            magnitude = dtype.word_dtype.type((1 << (dtype.bits - 1)) - 1)
            return (words & magnitude) == 0
        return words == 0

