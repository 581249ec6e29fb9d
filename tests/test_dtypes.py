"""Unit tests for the repro.dtypes package."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.dtypes import PAPER_DTYPES, get_dtype, list_dtypes, register_dtype
from repro.dtypes.base import DTypeSpec, FloatFormat, NativeFloatSpec
from repro.dtypes.convert import (
    clip_to_range,
    encode_matrix,
    paper_distribution_scale,
    quantize_matrix,
)
from repro.errors import DTypeError


class TestFloatFormat:
    def test_fp32_constants(self):
        fmt = get_dtype("fp32").float_format
        assert fmt.total_bits == 32
        assert fmt.bias == 127
        assert fmt.max_finite == pytest.approx(3.4028235e38, rel=1e-6)
        assert fmt.min_normal == pytest.approx(1.1754944e-38, rel=1e-6)

    def test_fp16_constants(self):
        fmt = get_dtype("fp16").float_format
        assert fmt.total_bits == 16
        assert fmt.bias == 15
        assert fmt.max_finite == pytest.approx(65504.0)

    def test_bf16_constants(self):
        fmt = get_dtype("bf16").float_format
        assert fmt.total_bits == 16
        assert fmt.exponent_bits == 8
        assert fmt.mantissa_bits == 7

    def test_int8_format(self):
        fmt = get_dtype("int8").int_format
        assert fmt.min_value == -128
        assert fmt.max_value == 127


class TestRegistry:
    def test_paper_dtypes_registered(self):
        for name in PAPER_DTYPES:
            assert get_dtype(name).name == name

    def test_aliases(self):
        assert get_dtype("float32").name == "fp32"
        assert get_dtype("half").name == "fp16"
        assert get_dtype("FP16-T").name == "fp16_t"
        assert get_dtype("bfloat16").name == "bf16"

    def test_pass_through_spec(self):
        spec = get_dtype("fp32")
        assert get_dtype(spec) is spec

    def test_unknown_dtype_raises(self):
        with pytest.raises(DTypeError):
            get_dtype("fp12")

    def test_list_contains_all_known(self):
        names = list_dtypes()
        for expected in ("fp64", "fp32", "fp16", "fp16_t", "bf16", "int8", "int32"):
            assert expected in names

    def test_double_registration_rejected(self):
        with pytest.raises(DTypeError):
            register_dtype(get_dtype("fp32"))

    def test_equality_and_hash(self):
        assert get_dtype("fp16") == get_dtype("half")
        assert get_dtype("fp16") != get_dtype("fp16_t")
        assert hash(get_dtype("fp32")) == hash(get_dtype("float32"))


class TestEncodeDecodeRoundTrip:
    @pytest.mark.parametrize("name", ["fp64", "fp32", "fp16", "fp16_t", "bf16", "int8", "int32"])
    def test_roundtrip_idempotent(self, name, rng):
        spec = get_dtype(name)
        values = rng.normal(0, 50, size=(16, 16))
        quantized = spec.quantize(values)
        # Quantizing twice changes nothing.
        np.testing.assert_array_equal(spec.quantize(quantized), quantized)

    @pytest.mark.parametrize("name", ["fp32", "fp16", "fp16_t", "bf16"])
    def test_word_dtype_and_shape(self, name, rng):
        spec = get_dtype(name)
        values = rng.normal(size=(4, 5))
        words = spec.encode(values)
        assert words.shape == (4, 5)
        assert words.dtype == spec.word_dtype

    def test_fp32_bit_pattern_of_one(self):
        words = get_dtype("fp32").encode(np.array([1.0]))
        assert int(words[0]) == 0x3F800000

    def test_fp16_bit_pattern_of_one(self):
        words = get_dtype("fp16").encode(np.array([1.0]))
        assert int(words[0]) == 0x3C00

    def test_bf16_bit_pattern_of_one(self):
        words = get_dtype("bf16").encode(np.array([1.0]))
        assert int(words[0]) == 0x3F80

    def test_int8_saturation(self):
        spec = get_dtype("int8")
        out = spec.quantize(np.array([1000.0, -1000.0, 3.4]))
        assert out.tolist() == [127.0, -128.0, 3.0]

    def test_int8_rounding_to_nearest(self):
        spec = get_dtype("int8")
        assert spec.quantize(np.array([2.5, -2.5, 2.4]))[2] == 2.0

    def test_fp16_overflow_to_inf(self):
        spec = get_dtype("fp16")
        out = spec.quantize(np.array([1e6]))
        assert np.isinf(out[0])

    def test_bf16_preserves_large_dynamic_range(self):
        spec = get_dtype("bf16")
        out = spec.quantize(np.array([1e30]))
        assert np.isfinite(out[0]) and out[0] > 0

    def test_bf16_nan_stays_nan(self):
        spec = get_dtype("bf16")
        out = spec.quantize(np.array([np.nan]))
        assert np.isnan(out[0])

    def test_bf16_round_to_nearest_even(self):
        spec = get_dtype("bf16")
        # bf16 has a 7-bit mantissa: 1 + 2^-8 rounds down to 1.0, 1 + 3*2^-9 rounds up.
        assert spec.quantize(np.array([1.0 + 2.0**-8]))[0] == pytest.approx(1.0)
        assert spec.quantize(np.array([1.0 + 3 * 2.0**-9]))[0] > 1.0

    @pytest.mark.parametrize("name", [n for n in list_dtypes() if get_dtype(n).is_float])
    def test_decoding_special_words_does_not_warn(self, name):
        spec = get_dtype(name)
        fmt = spec.float_format
        sign = 1 << (fmt.total_bits - 1)
        inf = fmt.max_exponent << fmt.mantissa_bits
        snan, qnan = inf | 1, inf | (1 << (fmt.mantissa_bits - 1))
        words = np.array(
            [snan, sign | snan, qnan, sign | qnan, inf, sign | inf], dtype=spec.word_dtype
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = spec.decode(words)
        assert np.isnan(values[:4]).all()
        assert values[4:].tolist() == [np.inf, -np.inf]

    @pytest.mark.parametrize("name", list_dtypes())
    def test_canonical_is_the_encode_decode_round_trip(self, name):
        spec = get_dtype(name)
        if spec.word_dtype.itemsize <= 2:
            words = np.arange(1 << spec.bits, dtype=spec.word_dtype)
        else:
            # Every exponent and sign with random mantissas, NaN payloads included.
            words = np.random.default_rng(0).integers(
                0, np.iinfo(spec.word_dtype).max, size=1 << 16, dtype=spec.word_dtype,
                endpoint=True,
            )
            if spec.float_format is not None:
                fmt = spec.float_format
                words[::2] |= spec.word_dtype.type(fmt.max_exponent << fmt.mantissa_bits)
        expected = spec.encode(spec.decode(words))
        np.testing.assert_array_equal(spec.canonical(words.copy()), expected)

    def test_canonical_quiets_fp32_and_collapses_bf16_nans(self):
        fp32, bf16 = get_dtype("fp32"), get_dtype("bf16")
        words = np.array([0x7F800001, 0x3F800000], dtype=np.uint32)
        assert fp32.canonical(words).tolist() == [0x7FC00001, 0x3F800000]
        words = np.array([0x7F81, 0xFFC1, 0x7F80], dtype=np.uint16)
        assert bf16.canonical(words).tolist() == [0x7FC0, 0x7FC0, 0x7F80]

    def test_decode_rejects_wrong_word_dtype(self):
        spec = get_dtype("fp16")
        with pytest.raises(DTypeError):
            spec.decode(np.zeros(4, dtype=np.uint32))


class TestFieldExtraction:
    def test_fp32_fields_of_minus_two(self):
        spec = get_dtype("fp32")
        words = spec.encode(np.array([-2.0]))
        assert int(spec.sign_field(words)[0]) == 1
        assert int(spec.exponent_field(words)[0]) == 128
        assert int(spec.mantissa_field(words)[0]) == 0

    def test_fp16_fields_of_half(self):
        spec = get_dtype("fp16")
        words = spec.encode(np.array([0.5]))
        assert int(spec.sign_field(words)[0]) == 0
        assert int(spec.exponent_field(words)[0]) == 14

    def test_field_extraction_rejected_for_integers(self):
        spec = get_dtype("int8")
        with pytest.raises(DTypeError):
            spec.exponent_field(spec.encode(np.array([1.0])))

    def test_tensor_core_flags(self):
        assert get_dtype("fp16_t").tensor_core is True
        assert get_dtype("fp16").tensor_core is False
        assert get_dtype("fp16_t").bits == get_dtype("fp16").bits


class TestRepresentableRange:
    def test_float_range_symmetric(self):
        low, high = get_dtype("fp16").representable_range
        assert low == -high

    def test_int_range(self):
        assert get_dtype("int8").representable_range == (-128.0, 127.0)

    def test_base_spec_without_format_raises(self):
        class Bare(DTypeSpec):
            name = "bare"

            def encode(self, values):  # pragma: no cover - not used
                return values

            def decode(self, words):  # pragma: no cover - not used
                return words

        with pytest.raises(DTypeError):
            _ = Bare().representable_range

    def test_native_spec_width_mismatch_rejected(self):
        with pytest.raises(DTypeError):
            NativeFloatSpec(
                name="bad",
                value_dtype=np.dtype(np.float32),
                word_dtype=np.dtype(np.uint16),
                float_format=FloatFormat(exponent_bits=8, mantissa_bits=23),
            )


class TestConvertHelpers:
    def test_paper_distribution_scale(self):
        assert paper_distribution_scale("fp16") == pytest.approx(210.0)
        assert paper_distribution_scale("int8") == pytest.approx(25.0)

    def test_clip_to_range_int8(self):
        clipped = clip_to_range(np.array([500.0, -500.0, 3.0]), "int8")
        assert clipped.tolist() == [127.0, -128.0, 3.0]

    def test_clip_to_range_margin(self):
        clipped = clip_to_range(np.array([127.0]), "int8", margin=0.1)
        assert clipped[0] < 127.0

    def test_quantize_matrix_matches_spec(self, rng):
        values = rng.normal(size=(8, 8))
        np.testing.assert_array_equal(
            quantize_matrix(values, "fp16"), get_dtype("fp16").quantize(values)
        )

    def test_encode_matrix_dtype(self, rng):
        words = encode_matrix(rng.normal(size=(4, 4)), "int8")
        assert words.dtype == np.uint8
