"""Shared fixtures for the test suite.

Tests run against small matrices and noise-free telemetry so that every
assertion about trend *direction* is deterministic and the whole suite stays
fast.  The benchmark harness, not the tests, exercises paper-scale sizes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from repro.activity.accumulator import estimate_datapath_activity
from repro.activity.engine import estimate_activity
from repro.activity.memory_traffic import estimate_memory_activity
from repro.activity.multiplier import estimate_multiplier_activity
from repro.activity.operand_bus import estimate_operand_activity
from repro.activity.sampler import SamplingConfig
from repro.experiments.config import ExperimentConfig
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.schedule import build_streams
from repro.parallel import BACKENDS
from repro.telemetry.sampler import TelemetryConfig


def _library_streams(a, b_stored, dtype="fp16", transpose_b=True):
    a = np.asarray(a, dtype=np.float64)
    b_stored = np.asarray(b_stored, dtype=np.float64)
    n, k = a.shape
    m = b_stored.shape[0] if transpose_b else b_stored.shape[1]
    problem = GemmProblem(n=n, m=m, k=k, dtype=dtype, transpose_b=transpose_b)
    return build_streams(GemmOperands(problem=problem, a=a, b_stored=b_stored))


#: The library's single-GEMM estimators under the oracle's names: each is
#: a stack of one through the batched body.
LIBRARY = SimpleNamespace(
    NAME="library",
    streams=_library_streams,
    operand=estimate_operand_activity,
    multiplier=estimate_multiplier_activity,
    datapath=estimate_datapath_activity,
    memory=estimate_memory_activity,
    activity=lambda operands, sampling, seed=0: estimate_activity(
        operands, sampling=sampling, seed=seed
    ).as_dict(),
)


@pytest.fixture(params=[LIBRARY, oracle], ids=lambda impl: impl.NAME)
def estimators(request):
    """The single-GEMM estimators, once the library's and once the scalar
    reference of ``tests/oracle.py``: property tests hold for both, and
    equivalence tests compare the batched path with each."""
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def quiet_telemetry() -> TelemetryConfig:
    """Telemetry config with sensor noise and drift disabled."""
    return TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0)


@pytest.fixture
def small_sampling() -> SamplingConfig:
    """Small sampling budget: enough signal for trend checks, fast."""
    return SamplingConfig(output_samples=64)


@pytest.fixture
def quiet_config(quiet_telemetry: TelemetryConfig, small_sampling: SamplingConfig):
    """Factory for small, deterministic experiment configurations."""

    def make(**overrides) -> ExperimentConfig:
        base = ExperimentConfig(
            pattern_family="gaussian",
            dtype="fp16_t",
            gpu="a100",
            matrix_size=128,
            seeds=1,
            telemetry=quiet_telemetry,
            sampling=small_sampling,
            include_process_variation=False,
        )
        return base.with_overrides(**overrides) if overrides else base

    return make


@pytest.fixture
def gaussian_matrices(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A pair of small Gaussian matrices (paper's default input scale)."""
    a = rng.normal(0.0, 210.0, size=(96, 96))
    b = rng.normal(0.0, 210.0, size=(96, 96))
    return a, b


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    """Every execution backend in turn: results must not depend on which."""
    return request.param
