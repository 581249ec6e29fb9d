"""Performance microbenchmarks of the simulator itself (pytest-benchmark).

These are conventional timing benchmarks (multiple rounds) covering the hot
paths of the library: bit-level popcount/toggle kernels, pattern generation,
switching-activity estimation (sequential and batched), a full harness run,
cold-versus-warm sweep execution through the content-addressed result
cache, the sweep runner's execution-backend axis (serial vs released-GIL
threads on a warm activity tier), and the thread-scaling of the nogil
toggle kernel.
They guard against regressions that would make the paper-scale (2048^2)
reproduction impractically slow.

``REPRO_BENCH_SIZE`` overrides the matrix dimension (default 1024); CI's
smoke job runs everything at size 64 with ``--benchmark-min-rounds=2`` and
records the timings (``--benchmark-json``) for the artifact-diff step —
crashes fail the build, timing deltas only annotate it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import env
from repro.activity.engine import (
    activity_from_matrices,
    estimate_activity_batch,
)
from repro.activity.sampler import SamplingConfig
from repro.cache.store import (
    ACTIVITY_SUBDIR,
    ActivityCache,
    ExperimentCache,
)
from repro.dtypes import get_dtype
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.experiments.sweep import run_configs, sweep_configs
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.patterns.library import build_pattern
from repro.telemetry.sampler import TelemetryConfig
from repro.util.bits import popcount, toggle_fraction_along_axis
from repro.util.rng import derive_rng

SIZE = env.read("REPRO_BENCH_SIZE")
#: Seed-batch width used by the batched-estimation benchmarks.
BATCH_SEEDS = 4
#: Pool width for the backend-comparison and thread-scaling benchmarks.
BACKEND_WORKERS = 4
#: Seeds per sweep point in the backend-comparison benchmarks.
BACKEND_SEEDS = 3


def _random_words(size):
    rng = derive_rng(5, "perf_words", size)
    return rng.integers(0, 1 << 16, size=(size, size), dtype=np.uint64).astype(np.uint16)


def _gaussian_operands(size, count):
    spec = get_dtype("fp16_t")
    problem = GemmProblem.square(size, dtype="fp16_t")
    pattern = build_pattern("gaussian", spec)
    operands = []
    for seed in range(count):
        a = pattern.generate(problem.a_shape, spec, derive_rng(2024, "A", seed))
        b = pattern.generate(problem.b_storage_shape, spec, derive_rng(2024, "B", seed))
        operands.append(GemmOperands(problem=problem, a=a, b_stored=b))
    return operands


def _quiet_config(**overrides):
    defaults = dict(
        pattern_family="gaussian",
        dtype="fp16_t",
        matrix_size=max(SIZE // 2, 64),
        seeds=1,
        telemetry=TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0),
        include_process_variation=False,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def bench_popcount_1m_words(benchmark):
    words = _random_words(SIZE)
    counts = benchmark(popcount, words)
    assert counts.shape == words.shape


def bench_stream_toggle_1m_words(benchmark):
    words = _random_words(SIZE)
    fraction = benchmark(toggle_fraction_along_axis, words, 1)
    assert 0.4 < fraction < 0.6


def bench_pattern_generation_sorted_rows(benchmark):
    pattern = build_pattern("sorted_rows", "fp16_t", fraction=1.0)
    rng = derive_rng(6, "perf_pattern")
    values = benchmark(pattern.generate, (SIZE, SIZE), get_dtype("fp16_t"), rng)
    assert values.shape == (SIZE, SIZE)


def bench_activity_estimation_1024(benchmark):
    rng = derive_rng(7, "perf_activity")
    a = rng.normal(0, 210, size=(SIZE, SIZE))
    b = rng.normal(0, 210, size=(SIZE, SIZE))
    report = benchmark(
        activity_from_matrices, a, b, "fp16_t", True, SamplingConfig(output_samples=128)
    )
    assert 0.0 < report.operand_activity <= 1.2


def bench_activity_estimation_batched(benchmark):
    """All seeds of one config through the stacked batch engine at once."""
    operands = _gaussian_operands(SIZE // 2, BATCH_SEEDS)
    sampling = SamplingConfig(output_samples=128)
    reports = benchmark(estimate_activity_batch, operands, sampling)
    assert len(reports) == BATCH_SEEDS
    assert all(0.0 < r.operand_activity <= 1.2 for r in reports)


def bench_full_experiment_512(benchmark):
    config = _quiet_config(matrix_size=max(SIZE // 2, 128))
    # cache=None: this measures the harness itself, not the cache.
    result = benchmark(run_experiment, config, None)
    assert result.mean_power_watts > 25.0


def bench_sweep_cold(benchmark):
    """4-point sparsity sweep with caching disabled (every point computed)."""
    configs = sweep_configs(
        _quiet_config(pattern_family="sparsity", matrix_size=max(SIZE // 4, 64)),
        "sparsity",
        [0.0, 0.25, 0.5, 0.75],
    )
    results = benchmark(run_configs, configs, 1, None)
    assert len(results) == 4


def bench_sweep_warm_cache(benchmark):
    """The same sweep served entirely from a primed result cache.

    Compare against ``bench_sweep_cold``: the ratio is the speedup repeated
    figure/benchmark runs get from the content-addressed cache.
    """
    configs = sweep_configs(
        _quiet_config(pattern_family="sparsity", matrix_size=max(SIZE // 4, 64)),
        "sparsity",
        [0.0, 0.25, 0.5, 0.75],
    )
    cache = ExperimentCache(max_entries=16)
    run_configs(configs, cache=cache)  # prime
    results = benchmark(run_configs, configs, 1, cache)
    assert len(results) == 4
    assert cache.stats.hits >= 4


# --------------------------------------------------------------- backend axis
#
# Both execution backends run the same warm-activity-cache multi-seed sweep:
# every point re-runs the measurement pipeline but reuses the per-seed
# activity estimates, which is the steady state of repeated figure runs.
# Both return bit-for-bit identical results.


@pytest.fixture(scope="module")
def backend_sweep_state():
    """Prime one disk-backed activity tier shared by the backend benchmarks;
    its temp directory is removed on teardown."""
    root = tempfile.mkdtemp(prefix="repro-bench-backends-")
    cache = ActivityCache(max_entries=4096, disk_dir=os.path.join(root, ACTIVITY_SUBDIR))
    configs = sweep_configs(
        _quiet_config(
            pattern_family="sparsity",
            matrix_size=max(SIZE // 2, 64),
            seeds=BACKEND_SEEDS,
        ),
        "sparsity",
        [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    )
    run_configs(configs, cache=None, activity_cache=cache)  # warm the tier
    yield configs, cache
    shutil.rmtree(root, ignore_errors=True)


def _run_backend_sweep(backend, configs, cache):
    results = run_configs(
        configs,
        workers=BACKEND_WORKERS,
        backend=backend,
        cache=None,
        activity_cache=cache,
    )
    assert len(results) == 6
    return results


def bench_sweep_backend_serial(benchmark, backend_sweep_state):
    """Warm-activity-cache sweep, inline reference backend."""
    benchmark(_run_backend_sweep, "serial", *backend_sweep_state)


def bench_sweep_backend_threads(benchmark, backend_sweep_state):
    """Warm-activity-cache sweep over the released-GIL thread pool."""
    benchmark(_run_backend_sweep, "threads", *backend_sweep_state)


# ------------------------------------------------------- nogil thread scaling
#
# Direct evidence for the ``threads`` backend's premise: the bit-level toggle
# kernel (XOR + popcount + reduce) releases the GIL inside NumPy, so running
# N independent kernels on N threads should take about as long as one kernel
# on an N-core host — near-linear scaling.  Compare
# ``bench_nogil_kernel_sequential`` with ``bench_nogil_kernel_threads``: both
# process the same total work, so their ratio IS the scaling factor.  On a
# single-core host the ratio degenerates to ~1x (there is nothing to scale
# onto — the GIL is not the limiter); the GIL-release property itself is
# asserted core-count-independently by
# ``tests/test_parallel_backends.py::test_toggle_kernel_releases_gil``.

@pytest.fixture(scope="module")
def nogil_pool():
    pool = ThreadPoolExecutor(
        max_workers=BACKEND_WORKERS, thread_name_prefix="repro-bench-nogil"
    )
    yield pool
    pool.shutdown()


def _nogil_arrays():
    return [_random_words(SIZE) for _ in range(BACKEND_WORKERS)]


def bench_nogil_kernel_sequential(benchmark):
    """N toggle-kernel passes, one after another on the main thread."""
    arrays = _nogil_arrays()
    fractions = benchmark(
        lambda: [toggle_fraction_along_axis(words, 1) for words in arrays]
    )
    assert len(fractions) == BACKEND_WORKERS


def bench_nogil_kernel_threads(benchmark, nogil_pool):
    """The same N passes fanned out over N threads (near-linear speedup)."""
    arrays = _nogil_arrays()
    fractions = benchmark(
        lambda: list(
            nogil_pool.map(lambda words: toggle_fraction_along_axis(words, 1), arrays)
        )
    )
    assert len(fractions) == BACKEND_WORKERS
