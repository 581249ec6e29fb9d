"""Abstract datatype specification.

A :class:`DTypeSpec` knows how to take arbitrary real values (as
``float64``), quantize them the way the GPU kernel's input conversion would
(round to nearest representable value), and expose the exact bit patterns as
unsigned integer *words*.  All switching-activity estimation operates on
those words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DTypeError

__all__ = ["FloatFormat", "IntFormat", "DTypeSpec"]


@dataclass(frozen=True)
class FloatFormat:
    """Bit layout of an IEEE-754-style binary floating point format."""

    exponent_bits: int
    mantissa_bits: int

    @property
    def total_bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        return (1 << self.exponent_bits) - 1

    @property
    def max_finite(self) -> float:
        """Largest finite representable magnitude."""
        max_biased = self.max_exponent - 1
        mantissa_full = 2.0 - 2.0 ** (-self.mantissa_bits)
        return mantissa_full * 2.0 ** (max_biased - self.bias)

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return 2.0 ** (1 - self.bias)


@dataclass(frozen=True)
class IntFormat:
    """Bit layout of a two's-complement integer format."""

    bits: int
    signed: bool = True

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1


class DTypeSpec:
    """Base class for all datatype specifications.

    Subclasses implement :meth:`encode` (values → bit words) and
    :meth:`decode` (bit words → ``float64`` values); everything else is
    derived.
    """

    #: canonical lowercase name, e.g. ``"fp16_t"``
    name: str = "abstract"
    #: ``"float"`` or ``"int"``
    kind: str = "abstract"
    #: total bits per element
    bits: int = 0
    #: NumPy dtype of the unsigned words returned by :meth:`encode`
    word_dtype: np.dtype = np.dtype(np.uint32)
    #: NumPy dtype used to store quantized values
    value_dtype: np.dtype = np.dtype(np.float64)
    #: whether the kernel for this datatype runs on tensor cores
    tensor_core: bool = False
    #: bit layout descriptors (one of the two is set by subclasses)
    float_format: FloatFormat | None = None
    int_format: IntFormat | None = None

    # ------------------------------------------------------------------ API

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values`` and return their bit patterns as unsigned words."""
        raise NotImplementedError

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Return the ``float64`` values represented by ``words``."""
        raise NotImplementedError

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` to the nearest representable value (as ``float64``)."""
        return self.decode(self.encode(values))

    def canonical(self, words: np.ndarray) -> np.ndarray:
        """Return ``words`` as ``encode(decode(words))`` would, in place.

        That round trip is the identity on every word except NaNs, which
        may come back with another payload (fp32 quiets a signalling NaN,
        bf16 maps every NaN to ``0x7fc0``).  So only NaN words are sent
        through it, after an integer-domain check for any.  Bit transforms
        call this to emit exactly the words a float64-staged chain would.
        """
        fmt = self.float_format
        if fmt is None:
            return words
        magnitude = self.word_dtype.type((1 << (fmt.total_bits - 1)) - 1)
        infinity = self.word_dtype.type(fmt.max_exponent << fmt.mantissa_bits)
        nan = (words & magnitude) > infinity
        if nan.any():
            words[nan] = self.encode(self.decode(words[nan]))
        return words

    # -------------------------------------------------------------- helpers

    def _check_words(self, words: np.ndarray) -> np.ndarray:
        arr = np.asarray(words)
        if arr.dtype != self.word_dtype:
            raise DTypeError(
                f"{self.name}: expected words of dtype {self.word_dtype}, got {arr.dtype}"
            )
        return arr

    @property
    def representable_range(self) -> tuple[float, float]:
        """(min, max) finite representable values."""
        if self.float_format is not None:
            hi = self.float_format.max_finite
            return (-hi, hi)
        if self.int_format is not None:
            return (float(self.int_format.min_value), float(self.int_format.max_value))
        raise DTypeError(f"{self.name}: no format descriptor")

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_integer(self) -> bool:
        return self.kind == "int"

    # ----------------------------------------------------- float bit fields

    def sign_field(self, words: np.ndarray) -> np.ndarray:
        """Extract the sign bit of each word (floats only)."""
        fmt = self._float_format()
        arr = self._check_words(words)
        shift = fmt.exponent_bits + fmt.mantissa_bits
        return (arr >> shift) & self.word_dtype.type(1)

    def exponent_field(self, words: np.ndarray) -> np.ndarray:
        """Extract the biased exponent field of each word (floats only)."""
        fmt = self._float_format()
        arr = self._check_words(words)
        mask = self.word_dtype.type((1 << fmt.exponent_bits) - 1)
        return (arr >> np.uint8(fmt.mantissa_bits)) & mask

    def mantissa_field(self, words: np.ndarray) -> np.ndarray:
        """Extract the mantissa field of each word (floats only)."""
        fmt = self._float_format()
        arr = self._check_words(words)
        mask = self.word_dtype.type((1 << fmt.mantissa_bits) - 1)
        return arr & mask

    def _float_format(self) -> FloatFormat:
        if self.float_format is None:
            raise DTypeError(f"{self.name}: not a floating point datatype")
        return self.float_format

    # -------------------------------------------------------------- dunders

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DTypeSpec {self.name} ({self.bits}-bit {self.kind})>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DTypeSpec) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("DTypeSpec", self.name))


class NativeFloatSpec(DTypeSpec):
    """Floating point datatype backed natively by a NumPy dtype.

    Covers FP64, FP32 and FP16 where NumPy provides the storage type and the
    round-to-nearest conversion; the bit pattern is obtained with a zero-copy
    view.
    """

    def __init__(
        self,
        name: str,
        value_dtype: np.dtype,
        word_dtype: np.dtype,
        float_format: FloatFormat,
        tensor_core: bool = False,
    ) -> None:
        self.name = name
        self.kind = "float"
        self.value_dtype = np.dtype(value_dtype)
        self.word_dtype = np.dtype(word_dtype)
        self.float_format = float_format
        self.int_format = None
        self.bits = float_format.total_bits
        self.tensor_core = tensor_core
        if self.value_dtype.itemsize != self.word_dtype.itemsize:
            raise DTypeError(
                f"{name}: value dtype {value_dtype} and word dtype {word_dtype} "
                "must have the same width"
            )

    def encode(self, values: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        with np.errstate(over="ignore", invalid="ignore"):
            native = arr.astype(self.value_dtype)
        return native.view(self.word_dtype)

    def decode(self, words: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(self._check_words(words))
        # Widening a signalling NaN quiets it and raises "invalid".
        with np.errstate(invalid="ignore"):
            return arr.view(self.value_dtype).astype(np.float64)


class NativeIntSpec(DTypeSpec):
    """Integer datatype backed natively by a NumPy dtype (with saturation)."""

    def __init__(
        self,
        name: str,
        value_dtype: np.dtype,
        word_dtype: np.dtype,
        int_format: IntFormat,
        tensor_core: bool = False,
    ) -> None:
        self.name = name
        self.kind = "int"
        self.value_dtype = np.dtype(value_dtype)
        self.word_dtype = np.dtype(word_dtype)
        self.int_format = int_format
        self.float_format = None
        self.bits = int_format.bits
        self.tensor_core = tensor_core
        if self.value_dtype.itemsize != self.word_dtype.itemsize:
            raise DTypeError(
                f"{name}: value dtype {value_dtype} and word dtype {word_dtype} "
                "must have the same width"
            )

    def encode(self, values: np.ndarray) -> np.ndarray:
        fmt = self.int_format
        assert fmt is not None
        arr = np.asarray(values, dtype=np.float64)
        rounded = np.rint(arr)
        clipped = np.clip(rounded, fmt.min_value, fmt.max_value)
        native = np.ascontiguousarray(clipped.astype(self.value_dtype))
        return native.view(self.word_dtype)

    def decode(self, words: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(self._check_words(words))
        return arr.view(self.value_dtype).astype(np.float64)
