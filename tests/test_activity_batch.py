"""Batched activity engine: bit-for-bit equivalence with single-GEMM
estimates, the library's and the scalar oracle's (``tests/oracle.py``)."""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

import oracle
from repro.activity import (
    estimate_datapath_activity,
    estimate_memory_activity,
    estimate_multiplier_activity,
    estimate_operand_activity,
)
from repro.activity import counts as counts_module
from repro.activity.engine import (
    ActivityEngine,
    _estimate_stacked,
    estimate_activity,
    estimate_activity_batch,
    recommended_chunk,
)
from repro.activity.sampler import SamplingConfig
from repro.errors import ActivityError, KernelError
from repro.experiments.harness import ExperimentRunner
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.schedule import (
    OperandStreams,
    StackedOperandStreams,
    build_streams,
    build_streams_stacked,
)
from repro.patterns.library import build_pattern
from repro.dtypes.base import DTypeSpec
from repro.dtypes.registry import get_dtype
from repro.util import bits
from repro.util.rng import derive_rng


def make_operands(size=96, dtype="fp16_t", transpose_b=True, count=3, family="gaussian"):
    spec = get_dtype(dtype)
    problem = GemmProblem.square(size, dtype=dtype, transpose_b=transpose_b)
    pattern = build_pattern(family, spec)
    operands = []
    for seed in range(count):
        a = pattern.generate(problem.a_shape, spec, derive_rng(2024, "A", seed))
        b = pattern.generate(problem.b_storage_shape, spec, derive_rng(2024, "B", seed))
        operands.append(GemmOperands(problem=problem, a=a, b_stored=b))
    return operands


def assert_reports_identical(batch, sequential):
    """``sequential`` holds reports or their ``as_dict()`` documents."""
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        got_dict = got.as_dict()
        expected_dict = expected if isinstance(expected, dict) else expected.as_dict()
        assert got_dict.keys() == expected_dict.keys()
        for field in expected_dict:
            assert got_dict[field] == expected_dict[field], field


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "dtype,transpose_b",
        [
            ("fp16_t", True),
            ("fp16", True),
            ("bf16", True),
            ("fp32", False),
            ("fp64", True),
            ("int8", True),
            ("int32", False),
        ],
    )
    def test_matches_sequential_bit_for_bit(self, dtype, transpose_b, estimators):
        operands = make_operands(dtype=dtype, transpose_b=transpose_b)
        sampling = SamplingConfig(output_samples=64)
        sequential = [
            estimators.activity(op, sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling), sequential
        )

    @pytest.mark.parametrize("family", ["sparsity", "sorted_rows", "constant_random"])
    def test_matches_for_structured_patterns(self, family, estimators):
        operands = make_operands(family=family)
        sampling = SamplingConfig(output_samples=64)
        sequential = [
            estimators.activity(op, sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling), sequential
        )

    def test_explicit_chunking_matches(self, estimators):
        operands = make_operands(count=5)
        sampling = SamplingConfig(output_samples=32)
        sequential = [
            estimators.activity(op, sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        for chunk in (1, 2, 5, 7):
            assert_reports_identical(
                estimate_activity_batch(operands, sampling=sampling, chunk=chunk),
                sequential,
            )

    def test_custom_seeds_respected(self, estimators):
        operands = make_operands(count=2)
        # max_k below K: each sampled output walks a prefix of its k-stream.
        sampling = SamplingConfig(output_samples=32, max_k=40)
        sequential = [
            estimators.activity(op, sampling, seed=seed)
            for seed, op in zip([7, 11], operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling, seeds=[7, 11]),
            sequential,
        )

    def test_accepts_prebuilt_streams(self, estimators):
        operands = make_operands(count=2)
        sampling = SamplingConfig(output_samples=32)
        sequential = [
            estimators.activity(op, sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        streams = [build_streams(op) for op in operands]
        assert_reports_identical(
            estimate_activity_batch(streams, sampling=sampling), sequential
        )
        stacked = build_streams_stacked(operands)
        for chunk in (None, 1, 2):
            assert_reports_identical(
                estimate_activity_batch(stacked, sampling=sampling, chunk=chunk), sequential
            )

    def test_empty_batch(self):
        assert estimate_activity_batch([]) == []

    def test_validation_errors(self):
        operands = make_operands(count=2)
        with pytest.raises(ActivityError):
            estimate_activity_batch(["nope"])
        with pytest.raises(ActivityError):
            estimate_activity_batch(operands, seeds=[1])
        with pytest.raises(ActivityError):
            estimate_activity_batch(operands, chunk=0)
        stacked = build_streams_stacked(operands)
        with pytest.raises(ActivityError, match="1 seeds for a batch of 2"):
            estimate_activity_batch(stacked, seeds=[0])
        # A stack takes the same chunk check as a list.
        with pytest.raises(ActivityError, match="chunk must be >= 1"):
            estimate_activity_batch(stacked, chunk=0)
        # The single-GEMM names take a stack of one, never more.
        sampling = SamplingConfig(output_samples=8)
        for single in (
            estimate_operand_activity,
            estimate_multiplier_activity,
            lambda streams: estimate_datapath_activity(streams, sampling),
            estimate_memory_activity,
            estimate_activity,
            lambda streams: ActivityEngine(sampling).estimate(streams),
        ):
            with pytest.raises(ActivityError, match="stack of"):
                single(stacked)

    def test_factory_returning_a_stack_rejected(self):
        stacked = build_streams_stacked(make_operands(count=2))
        with pytest.raises(ActivityError, match="one invocation, got a stack of 2"):
            estimate_activity_batch([lambda: stacked])


class TestChunkLifetime:
    """The engine keeps one chunk of operands alive at a time."""

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3])
    def test_previous_chunk_released_before_next_materializes(self, chunk):
        streams = [build_streams(operands) for operands in make_operands(count=9)]
        effective = chunk or recommended_chunk(2 * 96 * 96)
        assert effective < len(streams)
        refs: list[tuple[int, weakref.ref]] = []
        leaks: list[tuple[int, int]] = []

        def factory(index):
            def make():
                current = index // effective
                if index % effective == 0:
                    leaks.extend(
                        (owner, current)
                        for owner, ref in refs
                        if owner < current and ref() is not None
                    )
                source = streams[index]
                fresh = dataclasses.replace(
                    source,
                    a_words=source.a_words.copy(),
                    b_stored_words=source.b_stored_words.copy(),
                )
                refs.append((current, weakref.ref(fresh.a_words)))
                refs.append((current, weakref.ref(fresh.b_stored_words)))
                return fresh

            return make

        got = estimate_activity_batch(
            [factory(index) for index in range(len(streams))], chunk=chunk
        )
        assert leaks == []
        assert_reports_identical(got, estimate_activity_batch(streams, chunk=chunk))


class TestStackedStreams:
    def test_slice_matches_scalar_build(self):
        operands = make_operands(count=2)
        stacked = build_streams_stacked(operands)
        spec = stacked.dtype
        for index, op in enumerate(operands):
            view = stacked.slice(index)
            scalar = build_streams(op)
            assert view.batch == scalar.batch == 1
            assert np.array_equal(spec.decode(view.a_words[0]), spec.quantize(op.a))
            assert np.array_equal(spec.decode(view.b_words[0]), spec.quantize(op.b_used))
            assert np.array_equal(view.b_stored_words, scalar.b_stored_words)
            assert np.array_equal(view.a_words, scalar.a_words)
            assert np.array_equal(view.b_words, scalar.b_words)

    def test_streams_hold_words_only(self):
        operands = make_operands(count=2)
        stacked = build_streams_stacked(operands)
        for streams in (stacked, stacked.slice(0), build_streams(operands[0])):
            names = {field.name for field in dataclasses.fields(streams)}
            assert names == {"dtype", "a_words", "b_stored_words", "transpose_b"}
            for words in (streams.a_words, streams.b_words, streams.b_stored_words):
                assert words.dtype == streams.dtype.word_dtype

    def test_b_words_is_a_view_of_stored_words(self):
        for transpose_b in (True, False):
            stacked = build_streams_stacked(make_operands(count=2, transpose_b=transpose_b))
            assert np.shares_memory(stacked.b_words, stacked.b_stored_words)
            assert np.shares_memory(stacked.slice(1).b_words, stacked.b_stored_words)

    def test_each_operand_encoded_once(self, monkeypatch):
        operands = make_operands(count=3)
        spec = get_dtype("fp16_t")
        calls = []
        encode = spec.encode

        def counting_encode(values):
            calls.append(values.shape)
            return encode(values)

        monkeypatch.setattr(spec, "encode", counting_encode)
        stacked = build_streams_stacked(operands)
        # Reading the words, sliced or not, encodes nothing more.
        stacked.a_words, stacked.b_words, stacked.b_stored_words
        stacked.slice(0).b_words
        assert len(calls) == 2 * len(operands)

    @pytest.mark.parametrize("dtype", ["fp16_t", "bf16", "fp64", "int8"])
    def test_estimation_never_quantizes(self, monkeypatch, dtype):
        operands = make_operands(dtype=dtype, count=3)
        sampling = SamplingConfig(output_samples=64)
        expected = estimate_activity_batch(operands, sampling=sampling)

        def no_quantize(self, values):
            raise AssertionError("estimation must not quantize")

        monkeypatch.setattr(DTypeSpec, "quantize", no_quantize)
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling), expected
        )

    def test_dimensions(self):
        stacked = build_streams_stacked(make_operands(size=64, count=3))
        assert stacked.batch == 3
        assert (stacked.n, stacked.k, stacked.m) == (64, 64, 64)
        assert StackedOperandStreams is OperandStreams
        assert isinstance(stacked, StackedOperandStreams)

    def test_stack_of_one_is_a_view(self):
        op = make_operands(size=64, count=1)[0]
        spec = op.problem.dtype_spec
        a_words, b_words = spec.encode(op.a), spec.encode(op.b_stored)
        streams = OperandStreams(spec, a_words, b_words, transpose_b=True)
        assert streams.a_words.shape == (1, 64, 64)
        assert np.shares_memory(streams.a_words, a_words)
        assert np.shares_memory(streams.b_stored_words, b_words)
        # One invocation is stacked without a copy.
        assert build_streams_stacked([streams]) is streams

    @pytest.mark.parametrize(
        "a_shape, b_shape, transpose_b, message",
        [
            ((2, 8, 16), (3, 8, 16), True, "A stacks 2 invocations but B stacks 3"),
            ((8, 16), (8, 12), True, "A has K=16 but B has K=12"),
            ((8, 16), (12, 8), False, "A has K=16 but B has K=12"),
            ((16,), (8, 16), True, "2-D .* or 3-D"),
            ((1, 1, 8, 16), (1, 8, 16), True, "2-D .* or 3-D"),
        ],
    )
    def test_constructor_rejects_inconsistent_words(
        self, a_shape, b_shape, transpose_b, message
    ):
        spec = get_dtype("fp16_t")
        with pytest.raises(KernelError, match=message):
            OperandStreams(
                spec,
                np.zeros(a_shape, dtype=spec.word_dtype),
                np.zeros(b_shape, dtype=spec.word_dtype),
                transpose_b=transpose_b,
            )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(KernelError):
            build_streams_stacked([])
        a, b = make_operands(size=64, count=1) + make_operands(size=96, count=1)
        with pytest.raises(KernelError):
            build_streams_stacked([a, b])
        fp16, int8 = (
            make_operands(size=64, count=1)[0],
            make_operands(size=64, dtype="int8", count=1)[0],
        )
        with pytest.raises(KernelError):
            build_streams_stacked([fp16, int8])

    def test_rejects_mixed_operand_types_either_order(self):
        operands = make_operands(size=64, count=2)
        streams = build_streams(operands[1])
        with pytest.raises(KernelError):
            build_streams_stacked([operands[0], streams])
        with pytest.raises(KernelError):
            build_streams_stacked([streams, operands[0]])
        with pytest.raises(KernelError):
            build_streams_stacked(["junk"])


def _word_stack(spec, shape, rng):
    """Encoded Gaussian words with exact zeros (and ``-0.0`` for floats) mixed in."""
    words = build_pattern("gaussian", spec).generate_words(shape[1:], spec, rng)
    words = np.stack(
        [words] + [np.roll(words, index, axis=1) for index in range(1, shape[0])]
    )
    zeros = rng.random(shape) < 0.2
    words[zeros] = 0
    if spec.is_float:
        words[rng.random(shape) < 0.1] = spec.word_dtype.type(1 << (spec.bits - 1))
    return words


def _strided(words):
    """The same words as a view whose last axis is not contiguous."""
    wide = np.zeros(words.shape[:-1] + (2 * words.shape[-1],), dtype=words.dtype)
    wide[..., ::2] = words
    return wide[..., ::2]


def _oracle_reports(stacked, sampling, seeds):
    return [
        oracle.report(
            oracle.ScalarStreams(
                stacked.dtype,
                stacked.a_words[index],
                stacked.b_stored_words[index],
                stacked.transpose_b,
            ),
            sampling,
            seed,
        )
        for index, seed in enumerate(seeds)
    ]


class TestCountsStage:
    """The engine reduces one shared counts stage per stack
    (``repro.activity.counts.StackCounts``); the scalar oracle counts every
    estimator on its own, so agreement pins the sharing bit for bit."""

    #: (N, K, M): K of 1, 2 and odd, N*K a multiple of no packing width
    SHAPES = [(5, 1, 3), (3, 2, 7), (7, 13, 5), (9, 31, 6)]

    @pytest.mark.parametrize("dtype", ["int8", "fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("transpose_b", [True, False])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("contiguous", [True, False])
    def test_shared_counts_match_the_oracle(self, dtype, transpose_b, batch, contiguous):
        spec = get_dtype(dtype)
        rng = np.random.default_rng(7)
        sampling = SamplingConfig(output_samples=16)
        seeds = list(range(3, 3 + batch))
        for n, k, m in self.SHAPES:
            a_words = _word_stack(spec, (batch, n, k), rng)
            b_shape = (batch, m, k) if transpose_b else (batch, k, m)
            b_stored_words = _word_stack(spec, b_shape, rng)
            if not contiguous:
                a_words, b_stored_words = _strided(a_words), _strided(b_stored_words)
            stacked = OperandStreams(spec, a_words, b_stored_words, transpose_b=transpose_b)
            assert_reports_identical(
                _estimate_stacked(stacked, sampling, seeds),
                _oracle_reports(stacked, sampling, seeds),
            )

    @pytest.mark.parametrize("transpose_b", [True, False])
    def test_one_toggle_pass_per_layout(self, transpose_b, monkeypatch):
        calls = []
        count_toggles = counts_module.toggle_fraction_per_slice
        count_bits = counts_module.popcount

        def spy_toggles(words, axis):
            calls.append(("toggles", words, axis))
            return count_toggles(words, axis)

        def spy_popcount(words):
            calls.append(("popcount", words, None))
            return count_bits(words)

        monkeypatch.setattr(counts_module, "toggle_fraction_per_slice", spy_toggles)
        monkeypatch.setattr(counts_module, "popcount", spy_popcount)
        stacked = build_streams_stacked(make_operands(count=2, transpose_b=transpose_b))
        _estimate_stacked(stacked, SamplingConfig(output_samples=8), [0, 1])

        def passes(kind, words):
            return [
                axis
                for name, seen, axis in calls
                if name == kind and np.shares_memory(seen, words)
            ]

        assert passes("toggles", stacked.a_words) == [2]
        # Consumed B runs along the stored rows only when B is transposed;
        # otherwise the operand bus counts down the stored columns.
        assert sorted(passes("toggles", stacked.b_stored_words)) == (
            [2] if transpose_b else [1, 2]
        )
        assert passes("popcount", stacked.a_words) == [None]
        assert passes("popcount", stacked.b_stored_words) == [None]
        assert len(calls) == (4 if transpose_b else 5)

    @pytest.mark.parametrize("transpose_b", [True, False])
    def test_byte_table_popcount_gives_the_same_reports(self, transpose_b, monkeypatch):
        stacked = build_streams_stacked(make_operands(count=2, transpose_b=transpose_b))
        sampling = SamplingConfig(output_samples=8)
        native = _estimate_stacked(stacked, sampling, [0, 1])
        monkeypatch.setattr(bits, "_HAS_BITWISE_COUNT", False)
        assert_reports_identical(_estimate_stacked(stacked, sampling, [0, 1]), native)

    @pytest.mark.parametrize("dtype,rows", [("fp64", 1024), ("fp16", 4096), ("int8", 8192)])
    def test_per_k_sums_past_uint16_stay_exact(self, dtype, rows):
        """An all-ones column sums to ``width * rows = 65536``, one past what
        a ``uint16`` accumulator holds."""
        spec = get_dtype(dtype)
        assert spec.bits * rows == 65536
        ones = spec.word_dtype.type(-1 % (1 << spec.bits))
        a_words = np.zeros((1, rows, 3), dtype=spec.word_dtype)
        a_words[:, :, 1] = ones
        b_stored_words = np.full((1, rows, 3), ones, dtype=spec.word_dtype)
        stacked = OperandStreams(spec, a_words, b_stored_words, transpose_b=True)
        fields = (
            "multiplier_activity",
            "multiplier_hw_product",
            "zero_mac_fraction",
            "a_hamming_fraction",
            "b_hamming_fraction",
        )
        sampling = SamplingConfig(output_samples=4)
        got = _estimate_stacked(stacked, sampling, [0])[0].as_dict()
        expected = _oracle_reports(stacked, sampling, [0])[0]
        assert got["multiplier_hw_product"] > 0
        assert {f: got[f] for f in fields} == {f: expected[f] for f in fields}


class TestToggleFractionPerSlice:
    def test_matches_scalar_per_slice(self, rng):
        words = rng.integers(0, 1 << 16, size=(4, 32, 48), dtype=np.uint64).astype(
            np.uint16
        )
        for axis in (1, 2, -1):
            batched = bits.toggle_fraction_per_slice(words, axis=axis)
            expected = [
                bits.toggle_fraction_along_axis(words[i], axis=(axis % 3) - 1)
                for i in range(words.shape[0])
            ]
            assert batched.tolist() == expected

    def test_short_axis_gives_zeros(self):
        words = np.zeros((3, 1, 5), dtype=np.uint16)
        assert bits.toggle_fraction_per_slice(words, axis=1).tolist() == [0.0] * 3

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            bits.toggle_fraction_per_slice(np.zeros(4, dtype=np.uint16), axis=0)
        with pytest.raises(Exception):
            bits.toggle_fraction_per_slice(
                np.zeros((2, 3), dtype=np.uint16), axis=0
            )


class TestBatchedHarness:
    def test_run_matches_per_seed_reference(self, quiet_config):
        """The batched runner is bit-for-bit the oracle's seed-by-seed loop."""
        runner = ExperimentRunner(quiet_config(seeds=3))
        batched = runner.run()
        reference = [oracle.run_seed_reference(runner.pipeline, index) for index in range(3)]
        assert [m.as_dict() for m in batched.measurements] == [
            m.as_dict() for m in reference
        ]
