"""Unit tests for repro.patterns.placement (sorting transforms)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import get_dtype
from repro.dtypes.registry import list_dtypes
from repro.errors import PatternError
from repro.patterns.placement import (
    PartialSortTransform,
    sort_columns,
    sort_rows,
    sort_within_rows,
)


@pytest.fixture
def matrix(rng):
    return rng.normal(0, 210.0, size=(16, 16))


class TestSortRows:
    def test_full_sort_is_globally_sorted_row_major(self, matrix):
        out = sort_rows(matrix, 1.0)
        flat = out.reshape(-1)
        assert np.all(np.diff(flat) >= 0)

    def test_zero_fraction_is_identity(self, matrix):
        np.testing.assert_array_equal(sort_rows(matrix, 0.0), matrix)

    def test_multiset_preserved(self, matrix):
        out = sort_rows(matrix, 0.6)
        np.testing.assert_allclose(np.sort(out.reshape(-1)), np.sort(matrix.reshape(-1)))

    def test_partial_sort_places_lowest_values_first(self, matrix):
        fraction = 0.25
        out = sort_rows(matrix, fraction)
        k = int(round(fraction * matrix.size))
        sorted_all = np.sort(matrix.reshape(-1))
        np.testing.assert_allclose(out.reshape(-1)[:k], sorted_all[:k])

    def test_partial_sort_keeps_rest_in_original_order(self, matrix):
        fraction = 0.25
        out = sort_rows(matrix, fraction)
        k = int(round(fraction * matrix.size))
        flat = matrix.reshape(-1)
        lowest = set(np.argsort(flat, kind="stable")[:k].tolist())
        remaining_original = flat[[i for i in range(flat.size) if i not in lowest]]
        np.testing.assert_allclose(out.reshape(-1)[k:], remaining_original)

    def test_invalid_fraction(self, matrix):
        with pytest.raises(PatternError):
            sort_rows(matrix, 1.5)


class TestSortColumns:
    def test_full_sort_is_globally_sorted_column_major(self, matrix):
        out = sort_columns(matrix, 1.0)
        flat = out.reshape(-1, order="F")
        assert np.all(np.diff(flat) >= 0)

    def test_multiset_preserved(self, matrix):
        out = sort_columns(matrix, 0.5)
        np.testing.assert_allclose(np.sort(out.reshape(-1)), np.sort(matrix.reshape(-1)))

    def test_differs_from_row_sort(self, matrix):
        assert not np.array_equal(sort_columns(matrix, 1.0), sort_rows(matrix, 1.0))


class TestSortWithinRows:
    def test_full_sort_sorts_each_row(self, matrix):
        out = sort_within_rows(matrix, 1.0)
        assert np.all(np.diff(out, axis=1) >= 0)

    def test_rows_keep_their_own_values(self, matrix):
        out = sort_within_rows(matrix, 1.0)
        for i in range(matrix.shape[0]):
            np.testing.assert_allclose(np.sort(out[i]), np.sort(matrix[i]))

    def test_partial_sort_prefix_of_each_row(self, matrix):
        fraction = 0.5
        out = sort_within_rows(matrix, fraction)
        k = int(round(fraction * matrix.shape[1]))
        for i in range(matrix.shape[0]):
            np.testing.assert_allclose(out[i, :k], np.sort(matrix[i])[:k])


class TestPartialSortTransform:
    def test_modes(self, matrix, rng):
        spec = get_dtype("fp32")
        for mode in ("rows", "columns", "within_rows"):
            out = PartialSortTransform(1.0, mode=mode).apply(matrix, spec, rng)
            assert out.shape == matrix.shape

    def test_invalid_mode(self):
        with pytest.raises(PatternError):
            PartialSortTransform(0.5, mode="diagonal")

    def test_invalid_fraction(self):
        with pytest.raises(PatternError):
            PartialSortTransform(-0.1)

    def test_quantized_values_stay_representable(self, rng):
        spec = get_dtype("fp16")
        values = spec.quantize(rng.normal(0, 210, size=(12, 12)))
        out = PartialSortTransform(1.0, mode="rows").apply(values, spec, rng)
        np.testing.assert_array_equal(spec.quantize(out), out)

    def test_describe(self):
        desc = PartialSortTransform(0.75, mode="columns").describe()
        assert desc == {"name": "partial_sort", "mode": "columns", "fraction": 0.75}

    def test_sorting_reduces_row_adjacent_differences(self, matrix):
        original_diff = np.abs(np.diff(matrix.reshape(-1))).mean()
        sorted_diff = np.abs(np.diff(sort_rows(matrix, 1.0).reshape(-1))).mean()
        assert sorted_diff < original_diff


def _reference_partial_sort_flat(flat, fraction):
    """The stable-argsort partial sort the fast one must match bit for bit."""
    size = flat.size
    k = int(round(fraction * size))
    if k <= 0:
        return flat.copy()
    if k >= size:
        return np.sort(flat, kind="stable")
    order = np.argsort(flat, kind="stable")
    lowest_indices = order[:k]
    lowest_sorted = flat[lowest_indices]
    keep_mask = np.ones(size, dtype=bool)
    keep_mask[lowest_indices] = False
    return np.concatenate([lowest_sorted, flat[keep_mask]])


def _reference_sort(matrix, fraction, mode):
    if mode == "rows":
        return _reference_partial_sort_flat(matrix.reshape(-1), fraction).reshape(matrix.shape)
    if mode == "columns":
        flat = matrix.reshape(-1, order="F")
        return _reference_partial_sort_flat(flat, fraction).reshape(matrix.shape, order="F")
    return np.stack([_reference_partial_sort_flat(row, fraction) for row in matrix])


SORTS = {"rows": sort_rows, "columns": sort_columns, "within_rows": sort_within_rows}

#: Bit patterns whose stable order a fast sort can get wrong: both zeros,
#: quiet and signalling NaNs of either sign with several payloads, both
#: infinities, and a few small values for heavy ties.
TRICKY_BITS = [
    0x0000000000000000, 0x8000000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
    0xFFF0000000000ABC, 0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x3FF0000000000000, 0xBFF0000000000000, 0x4000000000000000,
    0x0000000000000001, 0x8000000000000001,
]


@st.composite
def tricky_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 64 // rows))
    bits = draw(
        st.lists(
            st.one_of(st.sampled_from(TRICKY_BITS), st.integers(0, 2**64 - 1)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)


class TestSortExactness:
    """The fast sorts return the bits of the stable-argsort reference."""

    @given(
        tricky_matrices(),
        st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
        st.sampled_from(sorted(SORTS)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_stable_reference(self, matrix, fraction, mode):
        out = SORTS[mode](matrix, fraction)
        expected = _reference_sort(matrix, fraction, mode)
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("mode", sorted(SORTS))
    def test_fp16_transform_at_scale(self, mode, rng):
        spec = get_dtype("fp16")
        raw = rng.normal(0, 210, size=(512, 512))
        # Tiny magnitudes quantize to zeros of both signs.
        raw[rng.random(raw.shape) < 0.05] *= 1e-12
        values = spec.quantize(raw)
        assert np.signbit(values[values == 0]).any() and not np.signbit(values[values == 0]).all()
        for fraction in (1.0, 0.37):
            out = PartialSortTransform(fraction, mode=mode).apply(values, spec, rng)
            expected = _reference_sort(values, fraction, mode)
            np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dtype", list_dtypes())
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_path_matches_stable_reference(self, dtype, data):
        """``apply_words`` (the counting sort on 16-bit float words, the
        float path elsewhere) emits the encoded stable-argsort reference."""
        spec = get_dtype(dtype)
        words = data.draw(tricky_words(spec))
        fraction = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
        mode = data.draw(st.sampled_from(sorted(SORTS)))
        out = PartialSortTransform(fraction, mode=mode).apply_words(
            words, spec, np.random.default_rng(0)
        )
        expected = spec.encode(_reference_sort(spec.decode(words), fraction, mode))
        assert out.dtype == spec.word_dtype and out.shape == words.shape
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("dtype", ["fp16", "bf16"])
    @pytest.mark.parametrize("mode", ["rows", "columns"])
    def test_counting_sort_at_scale(self, dtype, mode, rng):
        """512² words with both zeros, NaN payloads of both signs and heavy
        ties, at a full sort and at fractions whose threshold falls in the
        zero block, among ordinary values and in the NaN block."""
        spec = get_dtype(dtype)
        words = spec.encode(rng.normal(0, 210, size=(512, 512)))
        flat = words.reshape(-1)
        specials = _special_words(spec)
        picks = rng.random(flat.size) < 0.2
        flat[picks] = rng.choice(specials, size=int(picks.sum()))
        values = spec.decode(words)
        below_zero = np.count_nonzero(values < 0) / values.size
        not_nan = np.count_nonzero(~np.isnan(values)) / values.size
        for fraction in (1.0, 0.37, below_zero + 1e-4, not_nan + 1e-4):
            out = PartialSortTransform(fraction, mode=mode).apply_words(words, spec, rng)
            expected = spec.encode(_reference_sort(values, fraction, mode))
            np.testing.assert_array_equal(out, expected)


def _special_words(spec):
    """Words whose stable order a fast sort can get wrong: both zeros, NaNs
    of either sign with several payloads, both infinities, and the
    smallest subnormals (for floats); zero and the extremes otherwise."""
    bits = spec.bits
    sign = 1 << (bits - 1)
    fmt = spec.float_format
    if fmt is None:
        return np.array([0, 1, sign - 1, sign, (1 << bits) - 1], dtype=spec.word_dtype)
    infinity = fmt.max_exponent << fmt.mantissa_bits
    quiet = 1 << (fmt.mantissa_bits - 1)
    return np.array(
        [
            0, sign, infinity, sign | infinity,
            infinity | 1, infinity | quiet, infinity | quiet | 5, sign | infinity | 3,
            sign | infinity | quiet, infinity | (quiet - 1), 1, sign | 1,
        ],
        dtype=spec.word_dtype,
    )


@st.composite
def tricky_words(draw, spec):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 64 // rows))
    specials = [int(word) for word in _special_words(spec)]
    words = draw(
        st.lists(
            st.one_of(st.sampled_from(specials), st.integers(0, (1 << spec.bits) - 1)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(words, dtype=spec.word_dtype).reshape(rows, cols)
