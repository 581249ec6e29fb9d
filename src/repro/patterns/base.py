"""Pattern and transform abstractions.

A :class:`Pattern` produces a matrix of a target datatype.  Its native
output is the matrix's bit patterns (*words*, see
:meth:`~repro.dtypes.base.DTypeSpec.encode`): :meth:`Pattern.generate_words`
draws raw ``float64`` values and encodes them once, and every switching
activity estimator reads words only.  :meth:`Pattern.generate` is the float
view of the same matrix, the decode of those words.  Patterns whose draw
fills rows in order (:attr:`Pattern.blockwise`: Gaussian and uniform) draw,
clip and encode one block of rows at a time under the 1 MiB chunk budget,
so no full-size ``float64`` matrix is ever staged; the words and the
generator state afterwards are bit for bit those of one whole-matrix draw.

A :class:`Transform` rewrites such a matrix (sorting it, sparsifying it,
flipping bits, ...) while keeping it representable.  Each transform has one
implementation, in the domain it is defined in: bit and sparsity transforms
implement :meth:`Transform.apply_words`, value transforms such as sorting
implement :meth:`Transform.apply`, and the base class derives the other
direction.  :class:`TransformedPattern` composes a base pattern with a
sequence of transforms in the words domain; that composition is how every
experiment in the paper is expressed.

The words are exactly the ones a float64-staged chain would produce
(quantize, then ``apply`` each transform on values, then encode): the
round trip ``encode(decode(w))`` is the identity except on NaN words, which
bit transforms canonicalize (:meth:`~repro.dtypes.base.DTypeSpec.canonical`).

Transforms never write into their input words.  The configurations of one
sweep task that draw the same base pattern share its words (see
:mod:`repro.core.pipeline`), so :meth:`TransformedPattern.transform_words`
hands every transform a read-only input, and a transform that writes into
it fails with a :class:`~repro.errors.PatternError` naming it instead of
changing a sibling configuration's operand.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.dtypes.registry import get_dtype
from repro.errors import PatternError
from repro.parallel.calibrate import chunk_budget_bytes

__all__ = ["Pattern", "Transform", "TransformedPattern"]


class Pattern(ABC):
    """Generates matrices of a datatype, as words or as float values."""

    #: human-readable identifier used in experiment configs and reports
    name: str = "pattern"
    #: ``_raw_values`` fills its rows in order from the RNG, so drawing a
    #: matrix block of rows by block of rows gives the same values and
    #: leaves the generator in the same state as one whole-matrix draw;
    #: :meth:`generate_words` then stages one block at a time
    blockwise: bool = False

    @abstractmethod
    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """Produce raw ``float64`` values before quantization."""

    def generate_words(
        self,
        shape: tuple[int, int],
        dtype: "str | DTypeSpec",
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate a matrix of ``dtype`` as its bit patterns (unsigned words)."""
        spec = get_dtype(dtype)
        shape = _check_shape(shape)
        if not self.blockwise:
            return self._encoded_block(shape, spec, rng)
        words = np.empty(shape, dtype=spec.word_dtype)
        rows = max(1, chunk_budget_bytes() // (8 * shape[1]))
        for start in range(0, shape[0], rows):
            stop = min(start + rows, shape[0])
            words[start:stop] = self._encoded_block((stop - start, shape[1]), spec, rng)
        return words

    def _encoded_block(
        self, shape: tuple[int, int], spec: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        values = np.asarray(self._raw_values(shape, spec, rng), dtype=np.float64)
        if values.shape != shape:
            raise PatternError(
                f"pattern {self.name!r} produced shape {values.shape}, expected {shape}"
            )
        return spec.encode(values)

    def generate(
        self,
        shape: tuple[int, int],
        dtype: "str | DTypeSpec",
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Generate a ``float64`` matrix whose values are representable in
        ``dtype``: the decode of :meth:`generate_words`."""
        spec = get_dtype(dtype)
        return spec.decode(self.generate_words(shape, spec, rng))

    def describe(self) -> dict[str, object]:
        """Return a JSON-serializable description of the pattern."""
        return {"name": self.name}

    def with_transforms(self, *transforms: "Transform") -> "TransformedPattern":
        """Return a new pattern that applies ``transforms`` after this one."""
        return TransformedPattern(self, transforms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()!r}>"


class Transform(ABC):
    """Rewrites a matrix of datatype-representable values.

    Subclasses override :meth:`apply_words` or :meth:`apply` (at least one);
    the other is derived through ``encode``/``decode``.
    """

    name: str = "transform"

    def __new__(cls, *args: object, **kwargs: object) -> "Transform":
        if cls.apply is Transform.apply and cls.apply_words is Transform.apply_words:
            raise TypeError(
                f"Can't instantiate {cls.__name__}: override apply or apply_words"
            )
        return super().__new__(cls)

    def apply(
        self, values: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a transformed copy of ``values`` (still representable in ``dtype``)."""
        if self.is_identity(dtype):
            return np.array(values, dtype=np.float64, copy=True)
        return dtype.decode(self.apply_words(dtype.encode(values), dtype, rng))

    def apply_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a transformed copy of ``words``, as ``encode`` would emit it.

        ``words`` are ``dtype``'s bit patterns as :meth:`~repro.dtypes.base.
        DTypeSpec.encode` emits them; the result is, bit for bit,
        ``encode(apply(decode(words)))``.

        ``words`` must not be modified: configurations that draw the same
        base pattern share one read-only array of base words, so write
        into a copy (or a fresh array).  Writing into the input raises a
        :class:`~repro.errors.PatternError` naming the transform.
        """
        return dtype.encode(self.apply(dtype.decode(words), dtype, rng))

    def is_identity(self, dtype: DTypeSpec) -> bool:
        """Whether this transform returns its input unchanged for ``dtype``
        (drawing nothing from the RNG).  The derived :meth:`apply` then
        copies its input as given, without quantizing it."""
        return False

    def describe(self) -> dict[str, object]:
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()!r}>"


class TransformedPattern(Pattern):
    """A base pattern followed by an ordered sequence of transforms."""

    def __init__(self, base: Pattern, transforms: Sequence[Transform]) -> None:
        if not isinstance(base, Pattern):
            raise PatternError(f"base must be a Pattern, got {type(base).__name__}")
        self.base = base
        self.transforms = tuple(transforms)
        for transform in self.transforms:
            if not isinstance(transform, Transform):
                raise PatternError(
                    f"transforms must be Transform instances, got {type(transform).__name__}"
                )
        suffix = "+".join(t.name for t in self.transforms)
        self.name = f"{base.name}+{suffix}" if suffix else base.name

    def _raw_values(
        self, shape: tuple[int, int], dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:  # pragma: no cover - generate_words() is overridden
        return self.base._raw_values(shape, dtype, rng)

    def generate_words(
        self,
        shape: tuple[int, int],
        dtype: "str | DTypeSpec",
        rng: np.random.Generator,
    ) -> np.ndarray:
        spec = get_dtype(dtype)
        shape = _check_shape(shape)
        return self.transform_words(self.base.generate_words(shape, spec, rng), spec, rng)

    def transform_words(
        self, words: np.ndarray, dtype: DTypeSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply the transforms, in order, to ``words`` drawn from :attr:`base`
        with ``rng`` (which then continues into the transforms' draws).

        Each transform's input is marked read-only first: it may be shared
        with other configurations, so a transform that writes into it
        raises a :class:`~repro.errors.PatternError` naming the transform.
        """
        shape = words.shape
        for transform in self.transforms:
            words.flags.writeable = False
            try:
                words = np.asarray(transform.apply_words(words, dtype, rng))
            except ValueError as exc:
                if "read-only" not in str(exc):
                    raise
                raise PatternError(
                    f"transform {transform.name!r} wrote into its input words; "
                    "apply_words must leave its input unchanged and return new words"
                ) from exc
            if words.shape != shape or words.dtype != dtype.word_dtype:
                raise PatternError(
                    f"transform {transform.name!r} returned {words.dtype} words of "
                    f"shape {words.shape}"
                )
        return words

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "base": self.base.describe(),
            "transforms": [t.describe() for t in self.transforms],
        }


def _check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    if len(shape) != 2 or shape[0] <= 0 or shape[1] <= 0:
        raise PatternError(f"shape must be a positive 2-tuple, got {shape!r}")
    return (int(shape[0]), int(shape[1]))
