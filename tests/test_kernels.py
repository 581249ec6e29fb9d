"""Unit tests for the repro.kernels package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.gpu.device import Device
from repro.gpu.specs import get_gpu_spec
from repro.kernels.gemm import GemmOperands, GemmProblem, reference_gemm
from repro.kernels.launch import plan_launch
from repro.kernels.schedule import build_streams
from repro.kernels.tiling import TileConfig, default_tile_config


class TestGemmProblem:
    def test_square_constructor(self):
        problem = GemmProblem.square(2048, dtype="fp16_t")
        assert (problem.n, problem.m, problem.k) == (2048, 2048, 2048)
        assert problem.flops == pytest.approx(2 * 2048**3)

    def test_dtype_normalized(self):
        assert GemmProblem.square(64, dtype="FP16-T").dtype == "fp16_t"

    def test_invalid_dims(self):
        with pytest.raises(KernelError):
            GemmProblem(n=0, m=4, k=4)

    def test_b_storage_shape_transposed(self):
        problem = GemmProblem(n=8, m=16, k=32, transpose_b=True)
        assert problem.a_shape == (8, 32)
        assert problem.b_storage_shape == (16, 32)

    def test_b_storage_shape_not_transposed(self):
        problem = GemmProblem(n=8, m=16, k=32, transpose_b=False)
        assert problem.b_storage_shape == (32, 16)

    def test_operand_bytes(self):
        problem = GemmProblem.square(64, dtype="fp16")
        assert problem.operand_bytes() == pytest.approx(2 * (3 * 64 * 64 + 64 * 64))

    def test_describe_round_trip(self):
        problem = GemmProblem.square(64, dtype="int8", alpha=2.0)
        desc = problem.describe()
        assert desc["dtype"] == "int8" and desc["alpha"] == 2.0


class TestGemmOperands:
    def test_shape_validation(self, rng):
        problem = GemmProblem(n=8, m=16, k=32, transpose_b=True)
        a = rng.normal(size=(8, 32))
        b = rng.normal(size=(16, 32))
        operands = GemmOperands(problem=problem, a=a, b_stored=b)
        assert operands.b_used.shape == (32, 16)

    def test_wrong_a_shape_rejected(self, rng):
        problem = GemmProblem(n=8, m=16, k=32)
        with pytest.raises(KernelError):
            GemmOperands(problem=problem, a=rng.normal(size=(8, 16)), b_stored=rng.normal(size=(16, 32)))

    def test_wrong_c_shape_rejected(self, rng):
        problem = GemmProblem(n=8, m=8, k=8)
        with pytest.raises(KernelError):
            GemmOperands(
                problem=problem,
                a=rng.normal(size=(8, 8)),
                b_stored=rng.normal(size=(8, 8)),
                c=rng.normal(size=(4, 4)),
            )

    def test_effective_c_defaults_to_zero(self, rng):
        problem = GemmProblem(n=4, m=4, k=4)
        operands = GemmOperands(problem=problem, a=rng.normal(size=(4, 4)), b_stored=rng.normal(size=(4, 4)))
        assert np.all(operands.effective_c() == 0.0)


class TestReferenceGemm:
    def test_matches_numpy_fp32(self, rng):
        problem = GemmProblem(n=16, m=12, k=20, dtype="fp32", transpose_b=True)
        a = rng.normal(size=(16, 20))
        b = rng.normal(size=(12, 20))
        result = reference_gemm(GemmOperands(problem=problem, a=a, b_stored=b))
        expected = a.astype(np.float32).astype(np.float64) @ b.T.astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_alpha_beta(self, rng):
        problem = GemmProblem(n=4, m=4, k=4, dtype="fp32", alpha=2.0, beta=1.0, transpose_b=False)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        c = rng.normal(size=(4, 4))
        result = reference_gemm(GemmOperands(problem=problem, a=a, b_stored=b, c=c))
        expected = 2.0 * (
            a.astype(np.float32).astype(np.float64) @ b.astype(np.float32).astype(np.float64)
        ) + c
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_int8_quantizes_before_multiplying(self):
        problem = GemmProblem(n=1, m=1, k=2, dtype="int8", transpose_b=False)
        a = np.array([[1.4, 2.6]])
        b = np.array([[2.0], [3.0]])
        result = reference_gemm(GemmOperands(problem=problem, a=a, b_stored=b))
        # 1.4 -> 1, 2.6 -> 3, so the result is 1*2 + 3*3 = 11.
        assert result[0, 0] == pytest.approx(11.0)


class TestTiling:
    def test_default_tiles_per_dtype(self):
        assert default_tile_config("fp16_t").block_k == 32
        assert default_tile_config("int8").block_k == 64
        assert default_tile_config("fp32").block_k == 8

    def test_grid_and_k_iterations(self):
        config = default_tile_config("fp16_t")
        problem = GemmProblem.square(2048, dtype="fp16_t")
        assert config.grid_shape(problem) == (16, 16)
        assert config.num_threadblocks(problem) == 256
        assert config.k_iterations(problem) == 64

    def test_ceiling_division_for_non_multiples(self):
        config = TileConfig(block_m=128, block_n=128, block_k=32)
        problem = GemmProblem(n=130, m=100, k=40, dtype="fp16_t")
        assert config.grid_shape(problem) == (2, 1)
        assert config.k_iterations(problem) == 2

    def test_invalid_tiles(self):
        with pytest.raises(KernelError):
            TileConfig(block_m=0, block_n=128, block_k=32)
        with pytest.raises(KernelError):
            TileConfig(block_m=64, block_n=64, block_k=32, warp_m=128, warp_n=64)
        with pytest.raises(KernelError):
            TileConfig(block_m=96, block_n=96, block_k=32, warp_m=64, warp_n=64)

    def test_shared_memory_shrink_for_small_sm(self):
        spec = get_gpu_spec("rtx6000")
        config = default_tile_config("fp32", spec)
        element_bytes = 4
        assert config.shared_memory_bytes(element_bytes) <= spec.shared_mem_per_sm_kb * 1024

    def test_warps_per_block(self):
        config = TileConfig(block_m=128, block_n=128, block_k=32, warp_m=64, warp_n=64)
        assert config.warps_per_block == 4


class TestSchedule:
    def test_streams_shapes(self, rng):
        problem = GemmProblem(n=8, m=16, k=32, dtype="fp16", transpose_b=True)
        operands = GemmOperands(
            problem=problem, a=rng.normal(size=(8, 32)), b_stored=rng.normal(size=(16, 32))
        )
        streams = build_streams(operands)
        assert streams.a_words.shape == (1, 8, 32)
        assert streams.b_words.shape == (1, 32, 16)
        assert streams.b_stored_words.shape == (1, 16, 32)
        assert (streams.batch, streams.n, streams.m, streams.k) == (1, 8, 16, 32)

    def test_streams_quantized(self, rng):
        problem = GemmProblem(n=8, m=8, k=8, dtype="int8", transpose_b=False)
        operands = GemmOperands(
            problem=problem, a=rng.normal(0, 300, size=(8, 8)), b_stored=rng.normal(size=(8, 8))
        )
        streams = build_streams(operands)
        a_values = streams.dtype.decode(streams.a_words)
        assert a_values.max() <= 127 and a_values.min() >= -128
        np.testing.assert_array_equal(a_values, np.rint(a_values))

    def test_sample_output_positions(self, rng):
        problem = GemmProblem(n=10, m=12, k=8, dtype="fp16")
        operands = GemmOperands(
            problem=problem, a=rng.normal(size=(10, 8)), b_stored=rng.normal(size=(12, 8))
        )
        streams = build_streams(operands)
        rows, cols = streams.sample_output_positions(np.random.default_rng(0), 50)
        assert rows.max() < 10 and cols.max() < 12
        assert rows.size == 50

    def test_sample_more_than_space_returns_all(self, rng):
        problem = GemmProblem(n=4, m=4, k=4, dtype="fp16")
        operands = GemmOperands(
            problem=problem, a=rng.normal(size=(4, 4)), b_stored=rng.normal(size=(4, 4))
        )
        streams = build_streams(operands)
        rows, _ = streams.sample_output_positions(np.random.default_rng(0), 1000)
        assert rows.size == 16

    def test_sample_invalid_count(self, rng):
        problem = GemmProblem(n=4, m=4, k=4, dtype="fp16")
        operands = GemmOperands(
            problem=problem, a=rng.normal(size=(4, 4)), b_stored=rng.normal(size=(4, 4))
        )
        with pytest.raises(KernelError):
            build_streams(operands).sample_output_positions(np.random.default_rng(0), 0)


class TestLaunch:
    def test_plan_basic(self):
        device = Device.create("a100")
        problem = GemmProblem.square(2048, dtype="fp16_t")
        launch = plan_launch(problem, device)
        assert launch.threadblocks == 256
        assert launch.waves == pytest.approx(256 / 108)
        assert 0.0 < launch.occupancy <= 1.0
        assert launch.flops == problem.flops
        assert launch.dram_traffic_bytes > 0

    def test_small_problem_low_occupancy(self):
        device = Device.create("a100")
        launch = plan_launch(GemmProblem.square(128, dtype="fp16_t"), device)
        assert launch.occupancy < 0.05

    def test_unknown_dtype_rejected_by_device(self):
        device = Device.create("a100")
        problem = GemmProblem.square(128, dtype="bf16")
        # bf16 is registered on the A100, so this should work...
        plan_launch(problem, device)

    def test_invalid_blocks_per_sm(self):
        device = Device.create("a100")
        with pytest.raises(KernelError):
            plan_launch(GemmProblem.square(128), device, blocks_per_sm=0)

    def test_describe(self):
        device = Device.create("a100")
        desc = plan_launch(GemmProblem.square(256), device).describe()
        assert desc["device"] == "a100"
        assert desc["threadblocks"] == 4
