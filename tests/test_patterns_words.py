"""Patterns emit words: exactness against the float64-staged chain.

The reference below is a kept copy of the chain the pattern layer used
before it emitted words: quantize the raw values, ``apply`` each transform
to float64 values (bit transforms encode, rewrite and decode), and encode
the result once more.  ``Pattern.generate_words`` must produce exactly the
words that chain encodes, NaN payloads included, and ``Pattern.generate``
its values.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import get_dtype, list_dtypes
from repro.dtypes.base import DTypeSpec
from repro.errors import PatternError
from repro.patterns.base import Pattern, Transform, TransformedPattern
from repro.patterns.bitsim import (
    RandomBitFlipTransform,
    RandomizeHighBitsTransform,
    RandomizeLowBitsTransform,
    _random_words,
    resolve_bit_count,
)
from repro.dtypes.convert import clip_to_range
from repro.parallel.calibrate import chunk_budget_bytes
from repro.patterns.distribution import ConstantRandomPattern, GaussianPattern, UniformPattern
from repro.patterns.library import PATTERN_FAMILIES, build_pattern
from repro.patterns.sparsity import (
    SparsityTransform,
    ZeroHighBitsTransform,
    ZeroLowBitsTransform,
)
from repro.util.bits import set_high_bits_mask, set_low_bits_mask
from repro.util.rng import derive_rng

# ------------------------------------------------- float64-staged reference


def _reference_apply(
    transform: Transform, values: np.ndarray, spec: DTypeSpec, rng: np.random.Generator
) -> np.ndarray:
    """The value-domain ``apply`` each words-domain transform used to have."""
    if isinstance(transform, SparsityTransform):
        arr = np.array(values, dtype=np.float64, copy=True)
        if transform.sparsity == 0.0:
            return arr
        count = int(round(transform.sparsity * arr.size))
        if count >= arr.size:
            return np.zeros_like(arr)
        zero_indices = rng.choice(arr.size, size=count, replace=False)
        arr.reshape(-1)[zero_indices] = 0.0
        return arr
    if isinstance(transform, RandomBitFlipTransform):
        if transform.probability == 0.0:
            return np.array(values, dtype=np.float64, copy=True)
        words = spec.encode(values)
        flip = np.zeros(words.shape, dtype=np.uint64)
        for bit in range(spec.bits):
            plane = rng.random(words.shape) < transform.probability
            flip |= plane.astype(np.uint64) << np.uint64(bit)
        return spec.decode(np.bitwise_xor(words, flip.astype(words.dtype)))
    fields = {
        ZeroLowBitsTransform: (set_low_bits_mask, False),
        ZeroHighBitsTransform: (set_high_bits_mask, False),
        RandomizeLowBitsTransform: (set_low_bits_mask, True),
        RandomizeHighBitsTransform: (set_high_bits_mask, True),
    }
    if type(transform) in fields:
        field, randomize = fields[type(transform)]
        count = resolve_bit_count(spec, transform.count, transform.fraction)
        if count == 0:
            return np.array(values, dtype=np.float64, copy=True)
        words = spec.encode(values)
        mask = words.dtype.type(field(spec.bits, count, words.dtype))
        out = words & ~mask
        if randomize:
            out = out | (_random_words(rng, words.shape, words.dtype) & mask)
        return spec.decode(out)
    # Value-domain transforms (sorting, structured sparsity) kept ``apply``.
    return transform.apply(values, spec, rng)


def reference_chain(
    pattern: Pattern, shape: tuple[int, int], spec: DTypeSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(words, values) as the float64-staged chain produced them."""
    base, transforms = pattern, ()
    if isinstance(pattern, TransformedPattern):
        base, transforms = pattern.base, pattern.transforms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values = spec.quantize(np.asarray(base._raw_values(shape, spec, rng), dtype=np.float64))
        for transform in transforms:
            values = np.asarray(_reference_apply(transform, values, spec, rng), dtype=np.float64)
        return spec.encode(values), values


def assert_matches_reference(pattern: Pattern, shape: tuple[int, int], dtype: str, seed: int) -> None:
    spec = get_dtype(dtype)
    expected_words, expected_values = reference_chain(pattern, shape, spec, derive_rng(seed))
    words = pattern.generate_words(shape, spec, derive_rng(seed))
    assert words.dtype == spec.word_dtype
    np.testing.assert_array_equal(words, expected_words)
    values = pattern.generate(shape, spec, derive_rng(seed))
    assert np.array_equal(values, expected_values, equal_nan=True)


# --------------------------------------------------------------- strategies

_fraction = st.floats(0.0, 1.0)


def _bit_params(draw: st.DrawFn, dtype: str) -> dict[str, object]:
    if draw(st.booleans()):
        return {"count": draw(st.integers(0, get_dtype(dtype).bits)), "fraction": None}
    return {"fraction": draw(_fraction)}


@st.composite
def family_params(draw: st.DrawFn, family: str, dtype: str) -> dict[str, object]:
    if family == "gaussian":
        return {"mean": draw(st.floats(-500, 500)), "std": draw(st.floats(0, 1e4))}
    if family == "uniform":
        low = draw(st.floats(-1e3, 1e3))
        return {"low": low, "high": low + draw(st.floats(1e-3, 1e3))}
    if family == "constant":
        return {"value": draw(st.floats(-1e40, 1e40, allow_nan=False))}
    if family == "value_set":
        return {"set_size": draw(st.integers(1, 20))}
    if family == "bit_flip":
        return {"probability": draw(_fraction)}
    if family in ("randomize_lsb", "randomize_msb", "zero_lsb", "zero_msb"):
        return _bit_params(draw, dtype)
    if family.startswith("sorted_") and family != "sorted_sparsity":
        return {"fraction": draw(_fraction)}
    if family in ("sparsity", "sorted_sparsity"):
        return {"sparsity": draw(_fraction)}
    if family == "structured_sparsity":
        m = draw(st.sampled_from([1, 2, 4]))
        return {"n": draw(st.integers(0, m)), "m": m}
    return {}


@st.composite
def family_cases(draw: st.DrawFn) -> tuple[str, str, dict[str, object], tuple[int, int], int]:
    family = draw(st.sampled_from(sorted(PATTERN_FAMILIES)))
    dtype = draw(st.sampled_from(list_dtypes()))
    params = draw(family_params(family, dtype))
    shape = (draw(st.integers(1, 12)), 4 * draw(st.integers(1, 4)))
    return family, dtype, params, shape, draw(st.integers(0, 2**31 - 1))


class TestWordsMatchFloatStagedChain:
    @given(family_cases())
    @settings(max_examples=600, deadline=None)
    def test_every_family_and_dtype(self, case):
        family, dtype, params, shape, seed = case
        assert_matches_reference(build_pattern(family, dtype, **params), shape, dtype, seed)

    @pytest.mark.parametrize("family", sorted(PATTERN_FAMILIES))
    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_family_defaults(self, family, dtype):
        pattern = build_pattern(family, dtype)
        assert_matches_reference(pattern, (16, 32), dtype, seed=7)

    @given(
        st.sampled_from(["fp32", "bf16"]),
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
        st.integers(0, 12),
        _fraction,
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_composed_transforms_creating_nans(self, dtype, seed, msb, lsb, sparsity, constant):
        base = ConstantRandomPattern(0.0, 210.0) if constant else GaussianPattern(0.0, 210.0)
        pattern = TransformedPattern(
            base,
            [
                RandomizeHighBitsTransform(count=msb),
                ZeroLowBitsTransform(count=lsb),
                SparsityTransform(sparsity),
            ],
        )
        assert_matches_reference(pattern, (24, 16), dtype, seed)

    @pytest.mark.parametrize("dtype", ["fp32", "bf16"])
    def test_nan_words_are_canonicalized(self, dtype):
        # Randomizing every bit makes NaN words with arbitrary payloads; the
        # float64-staged chain re-encodes them, so the words must too.
        spec = get_dtype(dtype)
        pattern = TransformedPattern(
            GaussianPattern(0.0, 1.0), [RandomizeHighBitsTransform(fraction=1.0)]
        )
        rng = derive_rng(3)
        pattern.base.generate_words((64, 64), spec, rng)
        raw = _random_words(rng, (64, 64), spec.word_dtype)
        fmt = spec.float_format
        nan = (raw & ((1 << (fmt.total_bits - 1)) - 1)) > (fmt.max_exponent << fmt.mantissa_bits)
        assert nan.any()
        words = pattern.generate_words((64, 64), spec, derive_rng(3))
        np.testing.assert_array_equal(words[~nan], raw[~nan])
        assert not np.array_equal(words[nan], raw[nan])
        assert_matches_reference(pattern, (64, 64), dtype, seed=3)


class TestTransformDomains:
    def test_value_only_subclass_still_composes(self, rng):
        class Negate(Transform):
            name = "negate"

            def apply(self, values, dtype, rng):
                return -np.asarray(values)

        spec = get_dtype("fp16")
        pattern = TransformedPattern(GaussianPattern(0.0, 10.0), [Negate()])
        base = GaussianPattern(0.0, 10.0).generate((8, 8), spec, derive_rng(5))
        np.testing.assert_array_equal(pattern.generate((8, 8), spec, derive_rng(5)), -base)
        words = Negate().apply_words(spec.encode(base), spec, rng)
        np.testing.assert_array_equal(words, spec.encode(-base))

    def test_subclass_implementing_neither_domain_rejected(self):
        class Nothing(Transform):
            name = "nothing"

        with pytest.raises(TypeError):
            Nothing()

    def test_transform_returning_wrong_words_rejected(self):
        class Widen(Transform):
            def apply_words(self, words, dtype, rng):
                return words.astype(np.uint64)

        pattern = TransformedPattern(GaussianPattern(0.0, 1.0), [Widen()])
        with pytest.raises(PatternError):
            pattern.generate_words((4, 4), "fp16", derive_rng(0))

    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_words_are_input_words_untouched(self, dtype, rng):
        spec = get_dtype(dtype)
        words = GaussianPattern(0.0, 50.0).generate_words((8, 8), spec, derive_rng(1))
        original = words.copy()
        for transform in (
            SparsityTransform(0.5),
            ZeroLowBitsTransform(count=2),
            RandomizeHighBitsTransform(count=2),
            RandomBitFlipTransform(0.5),
        ):
            transform.apply_words(words, spec, rng)
        np.testing.assert_array_equal(words, original)


class _ZeroInPlace(Transform):
    """Breaks the no-mutation contract: zeroes its input's first row."""

    name = "zero_in_place"

    def apply_words(self, words, dtype, rng):
        words[0] = 0
        return words


class TestNoMutationContract:
    def test_writing_into_the_input_is_a_pattern_error(self):
        pattern = TransformedPattern(GaussianPattern(0.0, 10.0), [_ZeroInPlace()])
        with pytest.raises(PatternError, match="zero_in_place"):
            pattern.generate_words((8, 8), "fp16", derive_rng(0))

    def test_in_place_ufunc_is_caught_too(self):
        class MaskInPlace(Transform):
            name = "mask_in_place"

            def apply_words(self, words, dtype, rng):
                np.bitwise_and(words, dtype.word_dtype.type(0xFF00), out=words)
                return words

        pattern = TransformedPattern(
            GaussianPattern(0.0, 10.0), [ZeroLowBitsTransform(count=1), MaskInPlace()]
        )
        with pytest.raises(PatternError, match="mask_in_place"):
            pattern.generate_words((8, 8), "fp16", derive_rng(0))

    def test_unrelated_value_errors_pass_through(self):
        class Broken(Transform):
            name = "broken"

            def apply_words(self, words, dtype, rng):
                raise ValueError("no good")

        pattern = TransformedPattern(GaussianPattern(0.0, 10.0), [Broken()])
        with pytest.raises(ValueError, match="no good"):
            pattern.generate_words((8, 8), "fp16", derive_rng(0))


def _whole_draw(pattern, shape, spec, rng):
    """The draw blockwise generation replaced: every row in one call."""
    if isinstance(pattern, GaussianPattern):
        values = rng.normal(pattern.mean, pattern.std, size=shape)
    else:
        values = rng.uniform(pattern.low, pattern.high, size=shape)
    return spec.encode(clip_to_range(values, spec, out=values))


class TestBlockwiseDraws:
    """Gaussian and uniform bases draw, clip and encode in row blocks under
    the chunk budget; words and generator state match one whole draw."""

    # 128 and 26 rows per block leave ragged last blocks of 44 and 11 rows;
    # a row wider than the budget is a block of its own.
    @pytest.mark.parametrize("shape", [(300, 1024), (37, 5000), (3, 200_000), (1, 1)])
    @pytest.mark.parametrize("dtype", list_dtypes())
    @pytest.mark.parametrize(
        "pattern",
        [GaussianPattern(0.0, 210.0), GaussianPattern(3.0, 1e6), UniformPattern(-1.0, 1.0)],
        ids=["paper", "clipped", "uniform"],
    )
    def test_words_and_state_match_whole_draw(self, pattern, dtype, shape):
        spec = get_dtype(dtype)
        rows = max(1, chunk_budget_bytes() // (8 * shape[1]))
        assert rows < shape[0] or shape[0] == 1
        blockwise, whole = derive_rng(11, dtype), derive_rng(11, dtype)
        words = pattern.generate_words(shape, spec, blockwise)
        expected = _whole_draw(pattern, shape, spec, whole)
        assert words.dtype == spec.word_dtype and words.shape == shape
        np.testing.assert_array_equal(words, expected)
        assert blockwise.bit_generator.state == whole.bit_generator.state
