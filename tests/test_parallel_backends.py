"""Tests for the pluggable sweep execution backends (:mod:`repro.parallel`).

Covers the three pillars of the subsystem:

* **Equivalence** — `serial`, `threads` and `processes` return bit-for-bit
  identical results (and identical :class:`RunStats`) at any worker count,
  with and without the result/activity cache tiers.
* **Failure semantics** — a failing sweep point propagates with its label
  attached, blames only its own submission chunk, cancels queued work, and
  leaves the runner reusable (no leaked pools or shared-memory segments).
* **Calibration** — the chunk-budget probe honours the environment
  override, persists to the cache directory, and reloads what it persisted.

Plus the premise the ``threads`` backend rests on: the bit-level kernels
release the GIL (asserted in a way that works even on a single-core host).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cache.store import ActivityCache, ExperimentCache
from repro.errors import ExperimentError
from repro.experiments.figures.common import FigureSettings
from repro.experiments.sweep import RunStats, _chunk_group, run_configs, sweep_configs
from repro.parallel import (
    BACKENDS,
    choose_backend,
    get_executor,
    resolve_backend,
)
from repro.parallel import shm
from repro.parallel.backends import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.util.bits import toggle_fraction_along_axis
from repro.util.rng import derive_rng


# Top-level helpers for the process-executor tests (must be picklable).
def _identity(x):
    return x


def _encode_json(values):
    return json.dumps(list(values)).encode()


def _decode_json(payload):
    return json.loads(payload)


@pytest.fixture
def sweep(quiet_config):
    """A small four-point sweep with two seeds per point."""
    return sweep_configs(
        quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
        "sparsity",
        [0.0, 0.25, 0.5, 0.75],
    )


@pytest.fixture
def failing_sweep(quiet_config):
    """Six points where the fifth fails at *run* time.

    Configs reject an out-of-range sparsity when built, so the fifth
    point's ``sparsity=3.0`` goes in afterwards; it then fails inside the
    runner (and inside pool workers) when the pattern is built.
    """
    configs = sweep_configs(
        quiet_config(pattern_family="sparsity", matrix_size=32),
        "sparsity",
        [0.0, 0.2, 0.4, 0.6, 1.0, 0.8],
    )
    object.__setattr__(configs[4], "pattern_params", {"sparsity": 3.0})
    object.__setattr__(configs[4], "label", configs[4].label.replace("=1.0", "=3.0"))
    return configs


def _as_dicts(results):
    return [result.as_dict() for result in results]


# ---------------------------------------------------------------- equivalence


class TestBackendEquivalence:
    @pytest.fixture
    def reference(self, sweep):
        return _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_bit_for_bit_identical(self, sweep, reference, backend, workers):
        stats = RunStats()
        results = run_configs(
            sweep,
            workers=workers,
            backend=backend,
            cache=None,
            activity_cache=None,
            stats=stats,
        )
        assert _as_dicts(results) == reference
        assert stats.executed == 4
        assert stats.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_match_serial(self, sweep, backend):
        serial_stats, backend_stats = RunStats(), RunStats()
        run_configs(sweep, workers=1, cache=None, activity_cache=None, stats=serial_stats)
        run_configs(
            sweep,
            workers=2,
            backend=backend,
            cache=None,
            activity_cache=None,
            stats=backend_stats,
        )
        for field in ("total", "unique", "cache_hits", "executed"):
            assert getattr(backend_stats, field) == getattr(serial_stats, field)
        assert "backend" in backend_stats.as_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_cache_interaction(self, sweep, reference, backend):
        """Every backend fills an explicit result cache (puts happen in the
        parent) and a warm second pass is served entirely from it."""
        cache = ExperimentCache(max_entries=16)
        first = run_configs(
            sweep, workers=2, backend=backend, cache=cache, activity_cache=None
        )
        stats = RunStats()
        second = run_configs(
            sweep,
            workers=2,
            backend=backend,
            cache=cache,
            activity_cache=None,
            stats=stats,
        )
        assert _as_dicts(first) == reference
        assert _as_dicts(second) == reference
        assert stats.cache_hits == 4
        assert stats.executed == 0

    def test_threads_honour_activity_cache_instance(self, sweep, reference):
        """The in-process backends consult an explicit activity-cache
        *instance* directly — warm per-seed entries flow both ways."""
        activity = ActivityCache(max_entries=64)
        run_configs(sweep, workers=2, backend="threads", cache=None, activity_cache=activity)
        assert activity.stats.puts > 0
        warm = run_configs(
            sweep, workers=2, backend="threads", cache=None, activity_cache=activity
        )
        assert activity.stats.hits > 0
        assert _as_dicts(warm) == reference

    def test_processes_shm_and_pickle_transfer_agree(self, sweep, reference, monkeypatch):
        """The shared-memory return path and the pickle fallback both
        reproduce the serial results exactly."""
        via_shm = run_configs(
            sweep, workers=2, backend="processes", cache=None, activity_cache=None
        )
        monkeypatch.setenv(shm.ENV_DISABLE_SHM, "0")
        via_pickle = run_configs(
            sweep, workers=2, backend="processes", cache=None, activity_cache=None
        )
        assert _as_dicts(via_shm) == reference
        assert _as_dicts(via_pickle) == reference

    def test_dedupe_off_matches(self, quiet_config):
        config = quiet_config(pattern_family="sparsity", matrix_size=32)
        configs = sweep_configs(config, "sparsity", [0.5, 0.5, 0.5])
        reference = _as_dicts(
            run_configs(configs, workers=1, cache=None, activity_cache=None, dedupe=False)
        )
        for backend in ("threads", "processes"):
            results = run_configs(
                configs,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
                dedupe=False,
            )
            assert _as_dicts(results) == reference


# ----------------------------------------------------------- failure handling


class TestFailurePropagation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_carries_label(self, failing_sweep, backend):
        with pytest.raises(ExperimentError, match="sparsity=3.0"):
            run_configs(
                failing_sweep,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
            )

    def test_runner_reusable_after_failure(self, failing_sweep, sweep):
        for backend in BACKENDS:
            with pytest.raises(ExperimentError):
                run_configs(
                    failing_sweep, workers=2, backend=backend, cache=None, activity_cache=None
                )
        results = run_configs(sweep, workers=2, cache=None, activity_cache=None)
        assert len(results) == 4

    def test_process_chunk_blame_does_not_cross_chunks(self, failing_sweep):
        """With chunksize 2 the failing point (index 4) shares a chunk with
        index 5 only; indices 0-3 must not be blamed."""
        with pytest.raises(ExperimentError) as excinfo:
            run_configs(
                failing_sweep,
                workers=2,
                backend="processes",
                chunksize=2,
                cache=None,
                activity_cache=None,
            )
        message = str(excinfo.value)
        assert "sparsity=3.0" in message
        for innocent in ("sparsity=0.0", "sparsity=0.2", "sparsity=0.4", "sparsity=0.6"):
            assert innocent not in message

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory is only directly observable under /dev/shm",
    )
    def test_no_leaked_shm_segments_after_failure(self, failing_sweep):
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(ExperimentError):
            run_configs(
                failing_sweep,
                workers=2,
                backend="processes",
                chunksize=1,
                cache=None,
                activity_cache=None,
            )
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after - before == set()


class TestChunkGroupHelper:
    PENDING = [(str(i), [i]) for i in range(10)]

    def test_aligned_position_names_own_chunk(self):
        assert _chunk_group(self.PENDING, 4, 4) == self.PENDING[4:8]

    def test_mid_chunk_position_does_not_bleed_into_next_chunk(self):
        # Old behaviour was pending[5:9], crossing the chunk boundary at 8.
        assert _chunk_group(self.PENDING, 5, 4) == self.PENDING[4:8]

    def test_last_partial_chunk_is_clamped(self):
        assert _chunk_group(self.PENDING, 8, 4) == self.PENDING[8:10]
        assert _chunk_group(self.PENDING, 9, 4) == self.PENDING[8:10]

    def test_span_one(self):
        assert _chunk_group(self.PENDING, 7, 1) == [self.PENDING[7]]


# ------------------------------------------------------------------ executors


class TestExecutors:
    def test_serial_is_lazy_and_ordered(self):
        calls = []

        def record(x):
            calls.append(x)
            return x * 10

        iterator = SerialExecutor().map(record, [1, 2, 3])
        assert calls == []  # nothing runs until consumed
        assert next(iterator) == 10
        assert calls == [1]
        assert list(iterator) == [20, 30]

    def test_thread_executor_orders_results(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.05)
            return x

        with ThreadExecutor(4) as executor:
            assert list(executor.map(slow_first, list(range(6)))) == list(range(6))

    def test_thread_executor_propagates_and_cancels(self):
        started = []

        def boom(x):
            started.append(x)
            if x == 0:
                raise ValueError("boom")
            time.sleep(0.01)
            return x

        executor = ThreadExecutor(1)
        with pytest.raises(ValueError, match="boom"):
            for _ in executor.map(boom, list(range(50))):
                pass
        executor.shutdown(cancel=True)
        # With one worker and cancel_futures, most queued items never start.
        assert len(started) < 50

    def test_get_executor_validates(self):
        with pytest.raises(ExperimentError):
            get_executor("bogus", 2)
        with pytest.raises(ExperimentError):
            ThreadExecutor(0)
        with pytest.raises(ExperimentError):
            ProcessExecutor(2, chunksize=0)
        with pytest.raises(ExperimentError):
            ProcessExecutor(2, transfer="carrier-pigeon")

    def test_chunk_span_reflects_chunksize(self):
        executor = ProcessExecutor(2, chunksize=3)
        assert executor.chunk_span == 3
        executor.shutdown()
        assert SerialExecutor().chunk_span == 1

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory is only directly observable under /dev/shm",
    )
    def test_abandoned_iterator_does_not_leak_segments(self):
        """Breaking out of the result stream early (clean shutdown, no
        cancellation) must still free the unconsumed chunks' segments."""
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        with ProcessExecutor(2, chunksize=1, encode=_encode_json, decode=_decode_json) as executor:
            for value in executor.map(_identity, list(range(6))):
                if value == 0:
                    break  # abandon the rest of the stream
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after - before == set()


#: Workers of a pool whose parent runs an asyncio loop with signal
#: handlers, each sent SIGTERM the moment it forks (an at-fork hook that
#: runs before anything of the worker's own) — as a pool terminates a
#: just-forked worker after a sibling died.  Prints the results, the
#: fallback backend, and the signals the parent's loop saw.
EARLY_SIGTERM_SCRIPT = """
import asyncio, json, os, signal
from repro.parallel.backends import ProcessExecutor

os.register_at_fork(after_in_child=lambda: os.kill(os.getpid(), signal.SIGTERM))

async def main():
    loop = asyncio.get_running_loop()
    seen = []
    loop.add_signal_handler(signal.SIGTERM, seen.append, int(signal.SIGTERM))
    executor = ProcessExecutor(2, transfer="pickle")
    try:
        results = await loop.run_in_executor(
            None, lambda: list(executor.map(abs, [-1, -2, -3]))
        )
    finally:
        executor.shutdown()
    for _ in range(5):  # let the loop read anything a worker reported
        await asyncio.sleep(0)
    fallback = executor.resilience.fallback_backend
    print(json.dumps({"results": results, "fallback": fallback, "seen": seen}))

asyncio.run(main())
"""


def test_worker_signalled_before_init_does_not_signal_the_parent():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", EARLY_SIGTERM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    # The SIGTERM killed each worker (so the pool fell back to threads)
    # instead of reaching the parent's event loop.
    assert json.loads(completed.stdout) == {
        "results": [1, 2, 3],
        "fallback": "threads",
        "seen": [],
    }


class TestBackendResolution:
    def test_explicit_names_pass_through(self):
        for name in BACKENDS:
            assert resolve_backend(name, workers=1) == name

    def test_auto_collapses_to_serial_for_one_worker(self):
        assert resolve_backend("auto", workers=1) == "serial"

    def test_auto_prefers_threads_for_estimation(self):
        assert resolve_backend("auto", workers=4) == "threads"
        assert resolve_backend("auto", workers=4, workload="generation") == "processes"

    def test_choose_backend(self):
        assert choose_backend("estimation") == "threads"
        assert choose_backend("generation") == "processes"
        with pytest.raises(ExperimentError):
            choose_backend("interpretive-dance")

    def test_env_override_steers_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
        assert resolve_backend("auto", workers=4) == "processes"
        assert resolve_backend("threads", workers=4) == "threads"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "bogus")
        with pytest.raises(ExperimentError):
            resolve_backend("auto", workers=4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_backend("bogus", workers=2)

    def test_run_configs_rejects_unknown_backend(self, quiet_config):
        with pytest.raises(ExperimentError):
            run_configs([quiet_config()], workers=2, backend="bogus")

    def test_figure_settings_validate_backend(self):
        assert FigureSettings.quick(backend="threads").backend == "threads"
        with pytest.raises(ExperimentError):
            FigureSettings.quick(backend="bogus")


# --------------------------------------------------------------- shm transfer


class TestSharedMemoryTransfer:
    @staticmethod
    def _encode(values):
        return json.dumps(list(values)).encode()

    @staticmethod
    def _decode(payload):
        return json.loads(payload)

    def test_roundtrip(self):
        handle = shm.share_chunk([1, 2, 3], self._encode)
        assert isinstance(handle, shm.ShmHandle)
        assert handle.count == 3
        assert shm.receive_chunk(handle, self._decode) == [1, 2, 3]

    def test_receive_unlinks_segment(self):
        handle = shm.share_chunk(["x"], self._encode)
        shm.receive_chunk(handle, self._decode)
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_discard_unlinks_segment(self):
        handle = shm.share_chunk(["x"], self._encode)
        shm.discard_chunk(handle)
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_disable_env_forces_inline(self, monkeypatch):
        monkeypatch.setenv(shm.ENV_DISABLE_SHM, "0")
        handle = shm.share_chunk([1, 2], self._encode)
        assert isinstance(handle, shm.InlineChunk)
        assert shm.receive_chunk(handle, self._decode) == [1, 2]
        assert not shm.shm_available()

    def test_count_mismatch_detected(self):
        handle = shm.share_chunk([1, 2, 3], self._encode)
        bad = shm.ShmHandle(name=handle.name, size=handle.size, count=7)
        with pytest.raises(ExperimentError, match="expected 7"):
            shm.receive_chunk(bad, self._decode)

    def test_experiment_result_codec_is_lossless(self, quiet_config):
        from repro.experiments.harness import run_experiment

        result = run_experiment(quiet_config(matrix_size=32), cache=None, activity_cache=None)
        payload = shm.encode_experiment_results([[result, result], [result]])
        decoded = shm.decode_experiment_results(payload)
        assert [[item.as_dict() for item in group] for group in decoded] == [
            [result.as_dict()] * 2, [result.as_dict()]
        ]


# --------------------------------------------------------------- chunk budget


def test_recommended_chunk_pins_the_fixed_budget():
    """Chunk counts for square GEMMs (2·n² operand values per invocation,
    8 bytes counted per value) against the fixed 1 MiB budget."""
    from repro.activity.engine import recommended_chunk

    chunks = {n: recommended_chunk(2 * n * n) for n in (32, 64, 128, 256, 2048)}
    assert chunks == {32: 64, 64: 16, 128: 4, 256: 1, 2048: 1}


# ------------------------------------------------------------- GIL & threads


def test_toggle_kernel_releases_gil():
    """A pure-Python counter thread must make progress *during* one long
    toggle-kernel call.  If the kernel held the GIL, the counter could not
    run until the call returned (a single ufunc call never hits a bytecode
    boundary); this holds on any core count, unlike wall-clock speedups.
    """
    rng = derive_rng(5, "gil-test", 0)
    words = rng.integers(0, 1 << 16, size=(2048, 2048), dtype=np.uint64).astype(np.uint16)
    toggle_fraction_along_axis(words, 1)  # warm up caches and ufunc dispatch

    counter = [0]
    stop = threading.Event()

    def count() -> None:
        while not stop.is_set():
            counter[0] += 1

    thread = threading.Thread(target=count, daemon=True)
    thread.start()
    try:
        time.sleep(0.02)  # let the counter thread get scheduled
        before = counter[0]
        toggle_fraction_along_axis(words, 1)
        progressed = counter[0] - before
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert progressed > 1000, (
        f"counter advanced only {progressed} increments during the kernel — "
        "the toggle kernel appears to hold the GIL"
    )


def test_cache_is_thread_safe(quiet_config):
    """Hammer one ActivityCache from many threads (the threads backend's
    sharing pattern); the LRU must neither corrupt nor drop bookkeeping."""
    from repro.activity.report import ActivityReport

    cache = ActivityCache(max_entries=32)
    template = dict(
        operand_activity=0.5,
        multiplier_activity=0.5,
        datapath_activity=0.5,
        memory_activity=0.5,
        operand_toggle_a=0.5,
        operand_toggle_b=0.5,
        multiplier_hw_product=0.5,
        zero_mac_fraction=0.0,
        product_toggle=0.5,
        accumulator_toggle=0.5,
        memory_toggle=0.5,
        a_hamming_fraction=0.5,
        b_hamming_fraction=0.5,
        bit_alignment=0.5,
    )

    def worker(worker_id: int) -> None:
        for i in range(200):
            key = f"k{(worker_id * 7 + i) % 48}"
            if cache.get(key) is None:
                cache.put(key, ActivityReport(**template))

    with ThreadPoolExecutor(8) as pool:
        list(pool.map(worker, range(8)))
    assert len(cache) <= 32
    stats = cache.stats
    assert stats.lookups == 8 * 200
    assert stats.hits + stats.misses == stats.lookups


class TestChaosEquivalence:
    """Chaos parametrization: the processes backend keeps its bit-for-bit
    equivalence contract while fault injection kills its workers (see
    tests/test_faults.py for the full resilience matrix)."""

    @pytest.mark.parametrize(
        "schedule_text",
        [
            "pool.worker:kill@2",  # one breakage: rebuild + resubmit
            "pool.worker:kill@1",  # every worker dies: threads fallback
        ],
    )
    def test_killed_workers_never_change_results(
        self, sweep, monkeypatch, schedule_text
    ):
        import repro.faults as faults

        reference = _as_dicts(
            run_configs(sweep, workers=1, cache=None, activity_cache=None)
        )
        monkeypatch.setenv("REPRO_FAULTS", schedule_text)
        faults.reset()
        try:
            stats = RunStats()
            survived = _as_dicts(
                run_configs(
                    sweep,
                    workers=2,
                    backend="processes",
                    cache=None,
                    activity_cache=None,
                    stats=stats,
                )
            )
        finally:
            faults.reset()
            monkeypatch.delenv("REPRO_FAULTS")
        assert survived == reference
        assert stats.pool_rebuilds == 1
        assert stats.chunks_resubmitted > 0
