"""Unit tests for repro.util.bits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ActivityError
from repro.util import bits


class TestPopcount:
    def test_known_values(self):
        arr = np.array([0, 1, 3, 255], dtype=np.uint8)
        assert bits.popcount(arr).tolist() == [0, 1, 2, 8]

    def test_uint16_values(self):
        arr = np.array([0x0000, 0xFFFF, 0x0F0F], dtype=np.uint16)
        assert bits.popcount(arr).tolist() == [0, 16, 8]

    def test_uint32_values(self):
        arr = np.array([0xFFFFFFFF, 0x80000001], dtype=np.uint32)
        assert bits.popcount(arr).tolist() == [32, 2]

    def test_uint64_values(self):
        arr = np.array([0xFFFFFFFFFFFFFFFF, 1], dtype=np.uint64)
        assert bits.popcount(arr).tolist() == [64, 1]

    def test_preserves_shape(self):
        arr = np.arange(12, dtype=np.uint16).reshape(3, 4)
        assert bits.popcount(arr).shape == (3, 4)

    def test_empty_array(self):
        arr = np.array([], dtype=np.uint32)
        assert bits.popcount(arr).size == 0

    def test_rejects_signed_input(self):
        with pytest.raises(ActivityError):
            bits.popcount(np.array([1, 2], dtype=np.int32))

    def test_rejects_float_input(self):
        with pytest.raises(ActivityError):
            bits.popcount(np.array([1.0, 2.0]))

    def test_matches_python_bin_count(self, rng):
        values = rng.integers(0, 2**32, size=200, dtype=np.uint64).astype(np.uint32)
        expected = [bin(int(v)).count("1") for v in values]
        assert bits.popcount(values).tolist() == expected

    def test_non_contiguous_input(self):
        arr = np.arange(20, dtype=np.uint32)[::2]
        expected = [bin(int(v)).count("1") for v in arr]
        assert bits.popcount(arr).tolist() == expected

    @pytest.mark.parametrize("word_dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_counts_are_uint8(self, word_dtype, rng):
        arr = rng.integers(0, 2**63, size=(5, 7), dtype=np.uint64).astype(word_dtype)
        arr[0, 0] = np.iinfo(word_dtype).max
        counts = bits.popcount(arr)
        assert counts.dtype == np.uint8
        assert counts.tolist() == [[bin(int(v)).count("1") for v in row] for row in arr]
        assert bits.popcount(arr[:0]).dtype == np.uint8


class TestPopcountTableFallback(TestPopcount):
    """Every popcount test again, on the byte-table path NumPy < 2 takes."""

    @pytest.fixture(autouse=True)
    def _table_path(self, monkeypatch):
        monkeypatch.setattr(bits, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(np, "bitwise_count", None, raising=False)


class TestHammingWeight:
    def test_total_weight(self):
        arr = np.array([0xFF, 0x01], dtype=np.uint8)
        assert bits.hamming_weight(arr) == 9

    def test_fraction_all_ones(self):
        arr = np.full(10, 0xFFFF, dtype=np.uint16)
        assert bits.hamming_weight_fraction(arr) == pytest.approx(1.0)

    def test_fraction_all_zeros(self):
        arr = np.zeros(10, dtype=np.uint16)
        assert bits.hamming_weight_fraction(arr) == pytest.approx(0.0)

    def test_fraction_empty(self):
        assert bits.hamming_weight_fraction(np.array([], dtype=np.uint8)) == 0.0

    def test_fraction_random_near_half(self, rng):
        arr = rng.integers(0, 2**16, size=5000, dtype=np.uint64).astype(np.uint16)
        assert bits.hamming_weight_fraction(arr) == pytest.approx(0.5, abs=0.02)


class TestHammingDistanceAndAlignment:
    def test_distance_identical(self):
        arr = np.array([1, 2, 3], dtype=np.uint16)
        assert bits.hamming_distance(arr, arr).tolist() == [0, 0, 0]

    def test_distance_complement(self):
        arr = np.array([0x0000, 0xFFFF], dtype=np.uint16)
        other = np.bitwise_xor(arr, np.uint16(0xFFFF))
        assert bits.hamming_distance(arr, other).tolist() == [16, 16]

    def test_distance_shape_mismatch(self):
        with pytest.raises(ActivityError):
            bits.hamming_distance(
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8)
            )

    def test_distance_dtype_mismatch(self):
        with pytest.raises(ActivityError):
            bits.hamming_distance(
                np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint16)
            )

    def test_alignment_identical_is_one(self):
        arr = np.array([5, 9, 200], dtype=np.uint8)
        assert bits.bit_alignment(arr, arr) == pytest.approx(1.0)

    def test_alignment_complement_is_zero(self):
        arr = np.array([0x0F, 0xF0], dtype=np.uint8)
        other = np.bitwise_xor(arr, np.uint8(0xFF))
        assert bits.bit_alignment(arr, other) == pytest.approx(0.0)

    def test_alignment_empty_is_one(self):
        empty = np.array([], dtype=np.uint8)
        assert bits.bit_alignment(empty, empty) == 1.0


class TestToggles:
    def test_toggle_count_simple(self):
        a = np.array([0b0000, 0b1111], dtype=np.uint8)
        b = np.array([0b0001, 0b1111], dtype=np.uint8)
        assert bits.toggle_count(a, b) == 1

    def test_toggle_fraction_complement(self):
        a = np.zeros(4, dtype=np.uint8)
        b = np.full(4, 0xFF, dtype=np.uint8)
        assert bits.toggle_fraction(a, b) == pytest.approx(1.0)

    def test_toggle_fraction_empty(self):
        empty = np.array([], dtype=np.uint8)
        assert bits.toggle_fraction(empty, empty) == 0.0

    def test_toggle_along_axis_constant_rows(self):
        arr = np.full((4, 8), 0xAB, dtype=np.uint8)
        assert bits.toggle_fraction_along_axis(arr, axis=1) == 0.0

    def test_toggle_along_axis_alternating(self):
        arr = np.tile(np.array([0x00, 0xFF], dtype=np.uint8), (3, 4))
        assert bits.toggle_fraction_along_axis(arr, axis=1) == pytest.approx(1.0)

    def test_toggle_along_axis_single_element(self):
        arr = np.array([[7]], dtype=np.uint8)
        assert bits.toggle_fraction_along_axis(arr, axis=1) == 0.0

    def test_toggle_along_axis_random_near_half(self, rng):
        arr = rng.integers(0, 256, size=(64, 64), dtype=np.uint64).astype(np.uint8)
        assert bits.toggle_fraction_along_axis(arr, axis=1) == pytest.approx(0.5, abs=0.03)

    def test_toggle_axis_zero_vs_one(self):
        # Constant along columns, alternating along rows.
        arr = np.tile(np.array([[0x00], [0xFF]], dtype=np.uint8), (2, 5))
        assert bits.toggle_fraction_along_axis(arr, axis=0) == pytest.approx(1.0)
        assert bits.toggle_fraction_along_axis(arr, axis=1) == 0.0

    def test_toggle_scalar_input_raises(self):
        with pytest.raises(ActivityError):
            bits.toggle_fraction_along_axis(np.uint8(3), axis=0)


class TestBitMasks:
    def test_low_bits_mask(self):
        assert bits.set_low_bits_mask(8, 3, np.dtype(np.uint8)) == 0b111
        assert bits.set_low_bits_mask(16, 0, np.dtype(np.uint16)) == 0
        assert bits.set_low_bits_mask(16, 16, np.dtype(np.uint16)) == 0xFFFF

    def test_high_bits_mask(self):
        assert bits.set_high_bits_mask(8, 1, np.dtype(np.uint8)) == 0b1000_0000
        assert bits.set_high_bits_mask(8, 8, np.dtype(np.uint8)) == 0xFF
        assert bits.set_high_bits_mask(32, 0, np.dtype(np.uint32)) == 0

    def test_masks_are_disjoint_and_complete(self):
        low = bits.set_low_bits_mask(16, 5, np.dtype(np.uint16))
        high = bits.set_high_bits_mask(16, 11, np.dtype(np.uint16))
        assert low & high == 0
        assert low | high == 0xFFFF

    def test_mask_out_of_range(self):
        with pytest.raises(ActivityError):
            bits.set_low_bits_mask(8, 9, np.dtype(np.uint8))
        with pytest.raises(ActivityError):
            bits.set_high_bits_mask(8, -1, np.dtype(np.uint8))

    def test_bit_width(self):
        assert bits.bit_width(np.zeros(1, dtype=np.uint8)) == 8
        assert bits.bit_width(np.zeros(1, dtype=np.uint16)) == 16
        assert bits.bit_width(np.zeros(1, dtype=np.uint32)) == 32
        assert bits.bit_width(np.zeros(1, dtype=np.uint64)) == 64
