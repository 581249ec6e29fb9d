"""Named registry of every input pattern family used in the paper.

Experiments refer to patterns by family name plus parameters (for example
``build_pattern("sorted_rows", dtype="fp16", fraction=0.5)``); this module
maps those names to the base pattern + transform composition each one needs,
including the paper's default Gaussian scale per datatype.

Built patterns are *stateless*: they hold only immutable parameters, and
``generate(shape, spec, rng)`` takes its RNG per call, so the same pattern
object can serve any number of seeds — or any number of concurrent sweep
threads — without coupling them.  An experiment plan
(:mod:`repro.experiments.plan`) relies on this to share one pattern
instance across all of a configuration's seeds.
"""

from __future__ import annotations

from typing import Callable

from repro.dtypes.base import DTypeSpec
from repro.dtypes.convert import paper_distribution_scale
from repro.dtypes.registry import get_dtype
from repro.errors import PatternError
from repro.patterns.base import Pattern, TransformedPattern
from repro.patterns.bitsim import (
    RandomBitFlipTransform,
    RandomizeHighBitsTransform,
    RandomizeLowBitsTransform,
)
from repro.patterns.distribution import (
    ConstantPattern,
    ConstantRandomPattern,
    GaussianPattern,
    UniformPattern,
    ValueSetPattern,
)
from repro.patterns.placement import PartialSortTransform
from repro.patterns.sparsity import (
    SparsityTransform,
    StructuredSparsityTransform,
    ZeroHighBitsTransform,
    ZeroLowBitsTransform,
)

__all__ = ["paper_base_pattern", "build_pattern", "list_patterns", "PATTERN_FAMILIES"]


def paper_base_pattern(dtype: "str | DTypeSpec", mean: float = 0.0) -> GaussianPattern:
    """The paper's default input: Gaussian, mean 0, datatype-appropriate std."""
    spec = get_dtype(dtype)
    return GaussianPattern(mean=mean, std=paper_distribution_scale(spec))


def _constant_base(dtype: DTypeSpec) -> ConstantRandomPattern:
    """Constant random fill used as the starting point of bit-similarity runs."""
    return ConstantRandomPattern(mean=0.0, std=paper_distribution_scale(dtype))


# ----------------------------------------------------------------- builders


def _gaussian(dtype: DTypeSpec, mean: float = 0.0, std: float | None = None) -> Pattern:
    if std is None:
        std = paper_distribution_scale(dtype)
    return GaussianPattern(mean=mean, std=std)


def _uniform(dtype: DTypeSpec, low: float = -1.0, high: float = 1.0) -> Pattern:
    return UniformPattern(low=low, high=high)


def _constant(dtype: DTypeSpec, value: float = 1.0) -> Pattern:
    return ConstantPattern(value=value)


def _constant_random(dtype: DTypeSpec) -> Pattern:
    return _constant_base(dtype)


def _value_set(dtype: DTypeSpec, set_size: int = 16) -> Pattern:
    return ValueSetPattern(
        set_size=set_size, mean=0.0, std=paper_distribution_scale(dtype)
    )


def _bit_flip(dtype: DTypeSpec, probability: float = 0.0) -> Pattern:
    return TransformedPattern(_constant_base(dtype), [RandomBitFlipTransform(probability)])


def _randomize_lsb(
    dtype: DTypeSpec, count: int | None = None, fraction: float | None = 0.0
) -> Pattern:
    return TransformedPattern(
        _constant_base(dtype), [RandomizeLowBitsTransform(count=count, fraction=fraction)]
    )


def _randomize_msb(
    dtype: DTypeSpec, count: int | None = None, fraction: float | None = 0.0
) -> Pattern:
    return TransformedPattern(
        _constant_base(dtype), [RandomizeHighBitsTransform(count=count, fraction=fraction)]
    )


def _sorted(dtype: DTypeSpec, fraction: float = 1.0, mode: str = "rows") -> Pattern:
    return TransformedPattern(
        paper_base_pattern(dtype), [PartialSortTransform(fraction=fraction, mode=mode)]
    )


def _sorted_rows(dtype: DTypeSpec, fraction: float = 1.0) -> Pattern:
    return _sorted(dtype, fraction=fraction, mode="rows")


def _sorted_columns(dtype: DTypeSpec, fraction: float = 1.0) -> Pattern:
    return _sorted(dtype, fraction=fraction, mode="columns")


def _sorted_within_rows(dtype: DTypeSpec, fraction: float = 1.0) -> Pattern:
    return _sorted(dtype, fraction=fraction, mode="within_rows")


def _sparsity(dtype: DTypeSpec, sparsity: float = 0.0) -> Pattern:
    return TransformedPattern(paper_base_pattern(dtype), [SparsityTransform(sparsity)])


def _sorted_sparsity(dtype: DTypeSpec, sparsity: float = 0.0) -> Pattern:
    return TransformedPattern(
        paper_base_pattern(dtype),
        [PartialSortTransform(fraction=1.0, mode="rows"), SparsityTransform(sparsity)],
    )


def _zero_lsb(
    dtype: DTypeSpec, count: int | None = None, fraction: float | None = 0.0
) -> Pattern:
    return TransformedPattern(
        paper_base_pattern(dtype), [ZeroLowBitsTransform(count=count, fraction=fraction)]
    )


def _zero_msb(
    dtype: DTypeSpec, count: int | None = None, fraction: float | None = 0.0
) -> Pattern:
    return TransformedPattern(
        paper_base_pattern(dtype), [ZeroHighBitsTransform(count=count, fraction=fraction)]
    )


def _structured_sparsity(dtype: DTypeSpec, n: int = 2, m: int = 4) -> Pattern:
    return TransformedPattern(
        paper_base_pattern(dtype), [StructuredSparsityTransform(n=n, m=m)]
    )


#: Mapping of family name to builder callable ``f(dtype_spec, **params)``.
PATTERN_FAMILIES: dict[str, Callable[..., Pattern]] = {
    "gaussian": _gaussian,
    "uniform": _uniform,
    "constant": _constant,
    "constant_random": _constant_random,
    "value_set": _value_set,
    "bit_flip": _bit_flip,
    "randomize_lsb": _randomize_lsb,
    "randomize_msb": _randomize_msb,
    "sorted_rows": _sorted_rows,
    "sorted_columns": _sorted_columns,
    "sorted_within_rows": _sorted_within_rows,
    "sparsity": _sparsity,
    "sorted_sparsity": _sorted_sparsity,
    "zero_lsb": _zero_lsb,
    "zero_msb": _zero_msb,
    "structured_sparsity": _structured_sparsity,
}


def list_patterns() -> list[str]:
    """Return the names of all pattern families."""
    return sorted(PATTERN_FAMILIES)


def build_pattern(family: str, dtype: "str | DTypeSpec", **params: object) -> Pattern:
    """Build a pattern from a family name, a datatype, and family parameters."""
    key = family.strip().lower()
    try:
        builder = PATTERN_FAMILIES[key]
    except KeyError:
        known = ", ".join(list_patterns())
        raise PatternError(f"unknown pattern family {family!r}; known: {known}") from None
    spec = get_dtype(dtype)
    try:
        return builder(spec, **params)
    except TypeError as exc:
        raise PatternError(f"invalid parameters for pattern {family!r}: {exc}") from exc
