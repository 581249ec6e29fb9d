"""Unit tests for the repro.activity package (switching-activity estimation)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracle
from repro.activity.engine import activity_from_matrices, estimate_activity
from repro.activity.multiplier import (
    estimate_multiplier_activity,
    estimate_multiplier_activity_batch,
)
from repro.activity.report import ActivityReport, COMPONENT_NAMES
from repro.activity.sampler import SamplingConfig
from repro.errors import ActivityError
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.dtypes import get_dtype, list_dtypes
from repro.kernels.schedule import OperandStreams, build_streams, build_streams_stacked
from repro.util.bits import toggle_fraction_per_slice


def _streams(a, b, dtype="fp16", transpose_b=True):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    m = b.shape[0] if transpose_b else b.shape[1]
    problem = GemmProblem(n=n, m=m, k=k, dtype=dtype, transpose_b=transpose_b)
    return build_streams(GemmOperands(problem=problem, a=a, b_stored=b))


class TestSamplingConfig:
    def test_defaults_valid(self):
        config = SamplingConfig()
        assert config.output_samples >= 1

    def test_invalid_samples(self):
        with pytest.raises(ActivityError):
            SamplingConfig(output_samples=0)

    def test_invalid_max_k(self):
        with pytest.raises(ActivityError):
            SamplingConfig(max_k=1)

    def test_effective_k(self):
        assert SamplingConfig(max_k=32).effective_k(100) == 32
        assert SamplingConfig().effective_k(100) == 100


class TestOperandActivity:
    def test_constant_matrices_have_zero_toggle(self, estimators):
        streams = estimators.streams(np.full((16, 16), 3.0), np.full((16, 16), 5.0))
        activity = estimators.operand(streams)
        assert activity.toggle_a == 0.0
        assert activity.toggle_b == 0.0
        assert activity.activity == 0.0

    def test_random_matrices_near_one(self, gaussian_matrices, estimators):
        activity = estimators.operand(estimators.streams(*gaussian_matrices))
        assert 0.6 < activity.activity <= 1.1

    def test_sorted_lower_than_random(self, gaussian_matrices, estimators):
        a, b = gaussian_matrices
        random_activity = estimators.operand(estimators.streams(a, b)).activity
        sorted_activity = estimators.operand(
            estimators.streams(
                np.sort(a.reshape(-1)).reshape(a.shape), np.sort(b.reshape(-1)).reshape(b.shape)
            )
        ).activity
        assert sorted_activity < random_activity


class TestMultiplierActivity:
    def test_zero_matrices(self, estimators):
        activity = estimators.multiplier(estimators.streams(np.zeros((8, 8)), np.zeros((8, 8))))
        assert activity.hw_product == 0.0
        assert activity.zero_mac_fraction == pytest.approx(1.0)
        assert activity.activity == pytest.approx(0.04, abs=0.01)

    def test_factorized_mean_matches_bruteforce(self, rng, estimators):
        # The factorized estimator must equal the brute-force mean over all MACs.
        from repro.util.bits import popcount

        a = rng.normal(0, 210, size=(6, 5))
        b = rng.normal(0, 210, size=(7, 5))  # stored transposed
        activity = estimators.multiplier(estimators.streams(a, b, dtype="fp16"))

        spec = get_dtype("fp16")
        hw_a = popcount(spec.encode(a)) / spec.bits
        hw_b = popcount(spec.encode(b).T) / spec.bits
        brute = np.mean(
            [
                hw_a[i, kk] * hw_b[kk, j]
                for i in range(6)
                for j in range(7)
                for kk in range(5)
            ]
        )
        assert activity.hw_product == pytest.approx(brute, rel=1e-12)

    def test_zero_mac_fraction_exact(self, rng, estimators):
        a = rng.normal(0, 210, size=(4, 8))
        b = rng.normal(0, 210, size=(4, 8))
        a[:, :4] = 0.0  # half of A's reduction slices are zero
        activity = estimators.multiplier(estimators.streams(a, b, dtype="fp16"))
        assert activity.zero_mac_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype", ["fp16", "fp16_t", "bf16", "fp32", "fp64"])
    def test_negative_zero_counts_as_zero(self, rng, dtype, estimators):
        # -0.0 keeps its sign bit in the words; it still gates the multiply.
        a = rng.normal(0, 210, size=(4, 8))
        b = rng.normal(0, 210, size=(4, 8))
        a[:, :4] = -0.0
        spec = get_dtype(dtype)
        assert np.all(spec.sign_field(spec.encode(a)[:, :4]) == 1)
        scalar = estimators.multiplier(estimators.streams(a, b, dtype=dtype))
        assert scalar.zero_mac_fraction == 0.5
        streams = _streams(a, b, dtype=dtype)
        stacked = build_streams_stacked([streams, streams])
        assert [dataclasses.asdict(x) for x in estimate_multiplier_activity_batch(stacked)] == [
            dataclasses.asdict(scalar)
        ] * 2

    def test_underflow_to_negative_zero_counts_as_zero(self, rng, estimators):
        # fp16 rounds -1e-30 to -0.0 (word 0x8000).
        a = rng.normal(0, 210, size=(4, 8))
        a[:, :2] = -1e-30
        assert np.all(get_dtype("fp16").encode(a)[:, :2] == 0x8000)
        streams = estimators.streams(a, rng.normal(0, 210, size=(4, 8)), dtype="fp16")
        assert estimators.multiplier(streams).zero_mac_fraction == 0.25

    def test_hamming_fractions_reported(self, gaussian_matrices, estimators):
        activity = estimators.multiplier(estimators.streams(*gaussian_matrices))
        assert 0.3 < activity.a_hamming_fraction < 0.7
        assert 0.3 < activity.b_hamming_fraction < 0.7


class TestDatapathActivity:
    def test_constant_inputs_low_product_toggle(self, estimators):
        streams = estimators.streams(np.full((16, 16), 2.0), np.full((16, 16), 3.0))
        activity = estimators.datapath(streams, SamplingConfig(output_samples=16))
        assert activity.product_toggle == 0.0

    def test_random_inputs_positive_toggles(self, gaussian_matrices, estimators):
        streams = estimators.streams(*gaussian_matrices)
        activity = estimators.datapath(streams, SamplingConfig(output_samples=32))
        assert activity.product_toggle > 0.2
        assert activity.accumulator_toggle > 0.1

    def test_alignment_of_identical_matrices_is_one(self, estimators):
        value = np.full((8, 8), 7.0)
        activity = estimators.datapath(
            estimators.streams(value, value), SamplingConfig(output_samples=8)
        )
        assert activity.bit_alignment == pytest.approx(1.0)

    def test_output_samples_capped_by_space(self, estimators):
        streams = estimators.streams(np.ones((4, 4)), np.ones((4, 4)))
        activity = estimators.datapath(streams, SamplingConfig(output_samples=1000))
        assert activity.output_samples == 16

    def test_deterministic_given_seed(self, gaussian_matrices, estimators):
        streams = estimators.streams(*gaussian_matrices)
        one = estimators.datapath(streams, SamplingConfig(output_samples=32), seed=5)
        two = estimators.datapath(streams, SamplingConfig(output_samples=32), seed=5)
        assert one.accumulator_toggle == two.accumulator_toggle


class TestMemoryActivity:
    def test_constant_matrix_zero(self, estimators):
        streams = estimators.streams(np.full((8, 8), 1.5), np.full((8, 8), 2.5))
        assert estimators.memory(streams).activity == 0.0

    def test_uses_storage_layout_for_b(self, rng, estimators):
        # B stored with constant rows (zero row-major toggle) but consumed
        # transposed; memory activity must see the *stored* layout.
        a = np.full((8, 8), 1.0)
        b_stored = np.tile(rng.normal(0, 210, size=(8, 1)), (1, 8))
        streams = estimators.streams(a, b_stored, transpose_b=True)
        assert estimators.memory(streams).toggle_b == 0.0


class TestEngine:
    def test_full_report_fields(self, gaussian_matrices):
        report = activity_from_matrices(*gaussian_matrices, dtype="fp16_t")
        assert isinstance(report, ActivityReport)
        assert report.dtype == "fp16_t"
        assert report.shape == (96, 96, 96)
        for name in COMPONENT_NAMES:
            assert report.component_activity(name) >= 0.0

    def test_accepts_operands_and_streams(self, gaussian_matrices):
        a, b = gaussian_matrices
        problem = GemmProblem(n=96, m=96, k=96, dtype="fp16")
        operands = GemmOperands(problem=problem, a=a, b_stored=b)
        from_operands = estimate_activity(operands)
        from_streams = estimate_activity(build_streams(operands))
        assert from_operands.multiplier_activity == pytest.approx(from_streams.multiplier_activity)

    def test_rejects_other_types(self):
        with pytest.raises(ActivityError):
            estimate_activity("not operands")

    def test_weighted_activity(self, gaussian_matrices):
        report = activity_from_matrices(*gaussian_matrices)
        weights = {"operand": 1.0, "multiplier": 0.0, "datapath": 0.0, "memory": 0.0}
        assert report.weighted_activity(weights) == pytest.approx(report.operand_activity)

    def test_weighted_activity_requires_positive_weights(self, gaussian_matrices):
        report = activity_from_matrices(*gaussian_matrices)
        with pytest.raises(ActivityError):
            report.weighted_activity({"operand": 0.0})

    def test_unknown_component_rejected(self, gaussian_matrices):
        report = activity_from_matrices(*gaussian_matrices)
        with pytest.raises(ActivityError):
            report.component_activity("alu")

    def test_as_dict_serializable(self, gaussian_matrices):
        import json

        report = activity_from_matrices(*gaussian_matrices)
        assert json.loads(json.dumps(report.as_dict()))["dtype"] == "fp16_t"

    def test_all_zero_input_gives_near_zero_activity(self):
        report = activity_from_matrices(np.zeros((32, 32)), np.zeros((32, 32)))
        for name in COMPONENT_NAMES:
            assert report.component_activity(name) <= 0.05

    def test_negative_activity_impossible(self, gaussian_matrices):
        report = activity_from_matrices(*gaussian_matrices)
        assert min(
            report.operand_activity,
            report.multiplier_activity,
            report.datapath_activity,
            report.memory_activity,
        ) >= 0.0


class TestActivityTrends:
    """Directional checks that mirror the paper's mechanisms at matrix level."""

    def test_sorting_reduces_weighted_activity(self, gaussian_matrices):
        a, b = gaussian_matrices
        weights = {"operand": 0.3, "multiplier": 0.22, "datapath": 0.28, "memory": 0.2}
        random_report = activity_from_matrices(a, b)
        sorted_report = activity_from_matrices(
            np.sort(a.reshape(-1)).reshape(a.shape),
            np.sort(b.reshape(-1)).reshape(b.shape),
        )
        assert sorted_report.weighted_activity(weights) < random_report.weighted_activity(weights)

    def test_sparsity_reduces_multiplier_activity(self, gaussian_matrices, rng):
        a, b = gaussian_matrices
        mask = rng.random(a.shape) < 0.5
        sparse_a = np.where(mask, 0.0, a)
        dense = activity_from_matrices(a, b).multiplier_activity
        sparse = activity_from_matrices(sparse_a, b).multiplier_activity
        assert sparse < dense

    def test_larger_mean_reduces_operand_activity(self, rng):
        low_mean = rng.normal(0.0, 1.0, size=(96, 96))
        high_mean = low_mean + 4096.0
        low = activity_from_matrices(low_mean, low_mean.copy(), dtype="fp16")
        high = activity_from_matrices(high_mean, high_mean.copy(), dtype="fp16")
        assert high.operand_activity < low.operand_activity

    def test_bit_alignment_higher_for_identical_fills(self):
        same_fill = activity_from_matrices(np.full((32, 32), 13.5), np.full((32, 32), 13.5))
        different_fill = activity_from_matrices(np.full((32, 32), 13.5), np.full((32, 32), -97.0))
        assert same_fill.bit_alignment == pytest.approx(1.0)
        assert different_fill.bit_alignment < same_fill.bit_alignment


def _reference_popcount(words):
    """Popcount widened to int64, as the float reductions below consumed it."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    as_bytes = as_bytes.reshape(*words.shape, words.dtype.itemsize)
    return np.unpackbits(as_bytes, axis=-1).sum(axis=-1, dtype=np.int64)


def _reference_multiplier(a_words, b_words, spec):
    """Multiplier statistics from per-word float64 Hamming fractions."""
    from repro.activity.toggles import RANDOM_HAMMING_FRACTION, ZERO_GATED_RESIDUAL

    width = spec.bits
    hw_a = _reference_popcount(a_words).astype(np.float64) / width
    hw_b = _reference_popcount(b_words).astype(np.float64) / width
    magnitude = (1 << (width - 1)) - 1 if spec.is_float else (1 << width) - 1
    zero_a = (a_words & spec.word_dtype.type(magnitude)) == 0
    zero_b = (b_words & spec.word_dtype.type(magnitude)) == 0
    hw_product = float((hw_a.mean(axis=0) * hw_b.mean(axis=1)).mean())
    nonzero_pair = (1.0 - zero_a.mean(axis=0)) * (1.0 - zero_b.mean(axis=1))
    zero_mac_fraction = float(1.0 - nonzero_pair.mean())
    return {
        "hw_product": hw_product,
        "zero_mac_fraction": zero_mac_fraction,
        "a_hamming_fraction": float(hw_a.mean()),
        "b_hamming_fraction": float(hw_b.mean()),
        "activity": hw_product / RANDOM_HAMMING_FRACTION**2
        + ZERO_GATED_RESIDUAL * zero_mac_fraction,
    }


def _reference_toggle_fraction_per_slice(words, axis):
    if words.shape[axis] < 2:
        return np.zeros(words.shape[0])
    lag = np.moveaxis(words, axis, -1)[..., :-1]
    lead = np.moveaxis(words, axis, -1)[..., 1:]
    per_slice = _reference_popcount(lag ^ lead).reshape(words.shape[0], -1).sum(axis=1)
    return per_slice / (lag[0].size * words.dtype.itemsize * 8)


def _tricky_words(rng, spec, shape):
    """Random words with runs of all-ones, all-zero and sign-only (``-0.0``) words."""
    width = spec.bits
    words = rng.integers(0, 2**width, size=shape, dtype=np.uint64).astype(spec.word_dtype)
    special = np.array([2**width - 1, 0, 1 << (width - 1)], dtype=np.uint64)
    mask = rng.random(shape) < 0.3
    words[mask] = rng.choice(special, size=int(mask.sum())).astype(spec.word_dtype)
    return words


class TestIntegerDomainReductions:
    """Integer-count reductions equal the per-word float64 ones bit for bit,
    in the library's batched body and in the scalar oracle alike."""

    #: (N, K, M) for the multiplier, (S, N, K) for the toggles
    SHAPES = [(1, 1, 1), (5, 9, 3), (67, 300, 41), (256, 256, 256)]
    TOGGLE_SHAPES = [(1, 1, 1), (4, 5, 9), (3, 67, 300), (2, 256, 256)]

    @pytest.mark.parametrize("dtype", list_dtypes())
    @pytest.mark.parametrize("transpose_b", [True, False])
    def test_multiplier_matches_float_reference(self, dtype, transpose_b, rng):
        spec = get_dtype(dtype)
        for n, k, m in self.SHAPES:
            stored_shape = (3, m, k) if transpose_b else (3, k, m)
            stacked = OperandStreams(
                dtype=spec,
                a_words=_tricky_words(rng, spec, (3, n, k)),
                b_stored_words=_tricky_words(rng, spec, stored_shape),
                transpose_b=transpose_b,
            )
            batch = estimate_multiplier_activity_batch(stacked)
            for index in range(stacked.batch):
                scalar = oracle.ScalarStreams(
                    spec, stacked.a_words[index], stacked.b_stored_words[index], transpose_b
                )
                expected = _reference_multiplier(scalar.a_words, scalar.b_words, spec)
                assert dataclasses.asdict(oracle.multiplier(scalar)) == expected
                assert dataclasses.asdict(batch[index]) == expected

    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_toggle_fraction_per_slice_matches_float_reference(self, dtype, rng):
        spec = get_dtype(dtype)
        for shape in self.TOGGLE_SHAPES:
            words = _tricky_words(rng, spec, shape)
            for axis in (1, 2):
                got = toggle_fraction_per_slice(words, axis)
                expected = _reference_toggle_fraction_per_slice(words, axis)
                assert got.dtype == np.float64
                assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_uniform_words(self, dtype):
        spec = get_dtype(dtype)
        width = spec.bits
        for fill in (0, 2**width - 1, 1 << (width - 1)):
            a_words = np.full((8, 8), fill, dtype=np.uint64).astype(spec.word_dtype)
            expected = _reference_multiplier(a_words, a_words.T, spec)
            view = OperandStreams(spec, a_words, a_words.copy(), transpose_b=True)
            scalar = oracle.ScalarStreams(spec, a_words, a_words.copy(), transpose_b=True)
            assert dataclasses.asdict(estimate_multiplier_activity(view)) == expected
            assert dataclasses.asdict(oracle.multiplier(scalar)) == expected
