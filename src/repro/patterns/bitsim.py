"""Bit-similarity transforms (paper §IV-B).

All three transforms operate directly on the datatype's words (their
:meth:`~repro.patterns.base.Transform.apply_words`) and therefore always
produce representable values:

* :class:`RandomBitFlipTransform` — flip each bit independently with a
  given probability (Fig. 4a: "random bits are flipped in each element").
* :class:`RandomizeLowBitsTransform` — replace the ``count`` least
  significant bits with random bits (Fig. 4b).
* :class:`RandomizeHighBitsTransform` — replace the ``count`` most
  significant bits with random bits (Fig. 4c).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import PatternError
from repro.patterns.base import Transform
from repro.util.bits import set_high_bits_mask, set_low_bits_mask

__all__ = [
    "BitFieldTransform",
    "RandomBitFlipTransform",
    "RandomizeLowBitsTransform",
    "RandomizeHighBitsTransform",
    "resolve_bit_count",
]


def resolve_bit_count(dtype: DTypeSpec, count: int | None, fraction: float | None) -> int:
    """Resolve an absolute bit count from either ``count`` or ``fraction``.

    Exactly one of the two must be provided; ``fraction`` is interpreted as
    a fraction of the datatype's width, rounded to the nearest integer.
    """
    if (count is None) == (fraction is None):
        raise PatternError("provide exactly one of count or fraction")
    if count is not None:
        resolved = int(count)
    else:
        if not 0.0 <= float(fraction) <= 1.0:
            raise PatternError(f"fraction must be in [0, 1], got {fraction}")
        resolved = int(round(float(fraction) * dtype.bits))
    if not 0 <= resolved <= dtype.bits:
        raise PatternError(
            f"bit count {resolved} out of range for {dtype.name} ({dtype.bits} bits)"
        )
    return resolved


def _random_words(
    rng: np.random.Generator, shape: tuple[int, ...], word_dtype: np.dtype
) -> np.ndarray:
    """Uniform random words of the requested unsigned dtype."""
    bits = word_dtype.itemsize * 8
    if bits <= 32:
        raw = rng.integers(0, 1 << bits, size=shape, dtype=np.uint64)
    else:
        low = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
        high = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
        raw = (high << np.uint64(32)) | low
    return raw.astype(word_dtype)


class BitFieldTransform(Transform):
    """Zero or randomize the ``count`` least or most significant bits of
    every element.

    Give either ``count`` or ``fraction`` of the datatype's width (see
    :func:`resolve_bit_count`).  Subclasses choose the field (:attr:`high`)
    and whether it is refilled with random bits (:attr:`randomize`).
    """

    #: family name, used in :attr:`name` and :meth:`describe`
    family: str = "bit_field"
    #: the field is the most significant bits (else the least)
    high: bool = False
    #: the field is refilled with uniform random bits (else zeroed)
    randomize: bool = False

    def __init__(self, count: int | None = None, fraction: float | None = None) -> None:
        self.count = count
        self.fraction = fraction
        label = f"{count}" if count is not None else (f"{fraction:g}w" if fraction is not None else "unset")
        self.name = f"{self.family}({label})"

    def is_identity(self, dtype: DTypeSpec) -> bool:
        return resolve_bit_count(dtype, self.count, self.fraction) == 0

    def apply_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        if self.is_identity(dtype):
            return np.array(words, copy=True)
        count = resolve_bit_count(dtype, self.count, self.fraction)
        field = set_high_bits_mask if self.high else set_low_bits_mask
        mask = dtype.word_dtype.type(field(dtype.bits, count, dtype.word_dtype))
        out = words & ~mask
        if self.randomize:
            out |= _random_words(rng, words.shape, dtype.word_dtype) & mask
        return dtype.canonical(out)

    def describe(self) -> dict[str, object]:
        return {"name": self.family, "count": self.count, "fraction": self.fraction}


class RandomBitFlipTransform(Transform):
    """Flip each bit of each element independently with probability ``probability``."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise PatternError(f"probability must be in [0, 1], got {probability}")
        self.probability = float(probability)
        self.name = f"bit_flip(p={self.probability:g})"

    def is_identity(self, dtype: DTypeSpec) -> bool:
        return self.probability == 0.0

    def apply_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        if self.is_identity(dtype):
            return np.array(words, copy=True)
        # Build the flip mask bit-plane by bit-plane; width is at most 64 so
        # this stays a handful of vectorized draws.
        flip = np.zeros(words.shape, dtype=np.uint64)
        for bit in range(dtype.bits):
            plane = rng.random(words.shape) < self.probability
            flip |= plane.astype(np.uint64) << np.uint64(bit)
        return dtype.canonical(np.bitwise_xor(words, flip.astype(dtype.word_dtype)))

    def describe(self) -> dict[str, object]:
        return {"name": "bit_flip", "probability": self.probability}


class RandomizeLowBitsTransform(BitFieldTransform):
    """Replace the ``count`` least significant bits of every element with random bits."""

    family = "randomize_lsb"
    randomize = True


class RandomizeHighBitsTransform(BitFieldTransform):
    """Replace the ``count`` most significant bits of every element with random bits."""

    family = "randomize_msb"
    high = True
    randomize = True
