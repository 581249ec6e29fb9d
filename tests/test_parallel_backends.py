"""Tests for the pluggable sweep execution backends (:mod:`repro.parallel`).

Covers the pillars of the subsystem:

* **Equivalence** — `serial` and `threads` return bit-for-bit identical
  results (and identical :class:`RunStats`) at any worker count, with and
  without the result/activity cache tiers.
* **Failure semantics** — a failing sweep point propagates with its label
  attached, cancels queued work, and leaves the runner reusable.
* **Resolution** — ``auto``, the environment override, and the deprecated
  ``processes`` name and ``chunksize=`` keyword.
* **Chunk budget** — the engine's fixed per-chunk working-set budget.

Plus the premise the ``threads`` backend rests on: the bit-level kernels
release the GIL (asserted in a way that works even on a single-core host).
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.cache.store as store
import repro.experiments.sweep as sweep_module
from repro import api
from repro.cache.store import ActivityCache, ExperimentCache
from repro.errors import ExperimentError
from repro.experiments.figures.common import FigureSettings
from repro.experiments.sweep import RunStats, run_configs, sweep_configs
from repro.fleet.__main__ import main as fleet_main
from repro.parallel import get_executor, resolve_backend
from repro.parallel.backends import SerialExecutor, ThreadExecutor
from repro.serve.service import ServiceConfig
from repro.util.bits import toggle_fraction_along_axis
from repro.util.rng import derive_rng

DATA = Path(__file__).resolve().parent / "data"


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
    runner when the pattern is built.
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

    @pytest.mark.parametrize("workers", [2, 3, 8])
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

    def test_dedupe_off_matches(self, quiet_config, backend):
        config = quiet_config(pattern_family="sparsity", matrix_size=32)
        configs = sweep_configs(config, "sparsity", [0.5, 0.5, 0.5])
        reference = _as_dicts(
            run_configs(configs, workers=1, cache=None, activity_cache=None, dedupe=False)
        )
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
    def test_failure_carries_label(self, failing_sweep, backend):
        with pytest.raises(ExperimentError, match="sparsity=3.0"):
            run_configs(
                failing_sweep,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
            )

    def test_runner_reusable_after_failure(self, failing_sweep, sweep, backend):
        with pytest.raises(ExperimentError):
            run_configs(
                failing_sweep, workers=2, backend=backend, cache=None, activity_cache=None
            )
        results = run_configs(sweep, workers=2, cache=None, activity_cache=None)
        assert len(results) == 4

    def test_blame_does_not_cross_configs(self, failing_sweep, backend):
        """Only the failing point (index 4) is named; the points around it,
        finished or still queued, are not blamed."""
        with pytest.raises(ExperimentError) as excinfo:
            run_configs(
                failing_sweep, workers=2, backend=backend, cache=None, activity_cache=None
            )
        message = str(excinfo.value)
        assert "sparsity=3.0" in message
        for innocent in ("0.0", "0.2", "0.4", "0.6", "0.8"):
            assert f"sparsity={innocent}" not in message

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

    def test_get_executor_builds_each_backend(self, backend):
        expected = {"serial": SerialExecutor, "threads": ThreadExecutor}[backend]
        with get_executor(backend, 2) as executor:
            assert type(executor) is expected
            assert list(executor.map(abs, [-1, -2, -3])) == [1, 2, 3]

    def test_abandoned_stream_leaves_no_threads_behind(self):
        """Breaking out of the result stream early and leaving the block
        joins every pool thread: no worker outlives its executor."""
        before = set(threading.enumerate())
        with ThreadExecutor(2) as executor:
            for value in executor.map(abs, list(range(6))):
                if value == 0:
                    break  # abandon the rest of the stream
        assert set(threading.enumerate()) - before == set()

def _deprecations(record) -> "list[str]":
    return [str(w.message) for w in record if issubclass(w.category, DeprecationWarning)]


class TestBackendResolution:
    def test_explicit_names_pass_through(self, backend):
        assert resolve_backend(backend, workers=1) == backend

    def test_auto_collapses_to_serial_for_one_worker(self):
        assert resolve_backend("auto", workers=1) == "serial"

    def test_auto_is_threads_for_a_pool(self):
        assert resolve_backend("auto", workers=4) == "threads"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_processes_resolves_to_threads_at_any_width(self, workers):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert resolve_backend("processes", workers=workers) == "threads"
        warned = _deprecations(record)
        assert len(warned) == 1 and "backend='processes'" in warned[0]

    def test_env_override_steers_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "serial")
        assert resolve_backend("auto", workers=4) == "serial"
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
        with pytest.warns(DeprecationWarning, match="processes"):
            assert FigureSettings.quick(backend="processes").backend == "threads"
        with pytest.raises(ExperimentError):
            FigureSettings.quick(backend="bogus")

    def test_service_config_keeps_processes_as_threads(self):
        with pytest.warns(DeprecationWarning, match="processes"):
            assert ServiceConfig(backend="processes").backend == "threads"

    # The removed process backend: its name warns once and runs on threads.

    def _run_recording(self, configs, run=run_configs, **kwargs):
        stats = RunStats()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            results = run(
                configs, workers=2, cache=None, activity_cache=None, stats=stats, **kwargs
            )
        return _as_dicts(results), stats.backend, _deprecations(record)

    def test_processes_argument_warns_once_and_runs_on_threads(self, sweep):
        reference = _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))
        results, ran_on, warned = self._run_recording(sweep, backend="processes")
        assert len(warned) == 1 and "backend='processes'" in warned[0]
        assert ran_on == "threads"
        assert results == reference

    def test_processes_argument_through_the_facade(self, sweep):
        reference = _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))
        results, ran_on, warned = self._run_recording(
            sweep, run=api.run_configs, backend="processes"
        )
        assert len(warned) == 1 and "backend='processes'" in warned[0]
        assert ran_on == "threads"
        assert results == reference

    def test_processes_env_warns_once_and_runs_on_threads(self, sweep, monkeypatch):
        reference = _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
        results, ran_on, warned = self._run_recording(sweep)
        assert len(warned) == 1 and "REPRO_PARALLEL_BACKEND='processes'" in warned[0]
        assert ran_on == "threads"
        assert results == reference

    def test_processes_cli_flag_warns_once_and_runs_on_threads(self, monkeypatch, capsys):
        """The fleet CLI's golden replay under ``--backend processes``: it
        must compute (no default cache tier) on threads and still match the
        checked-in summary, which the serial replay reproduces."""
        for name in ("REPRO_PARALLEL_BACKEND", "REPRO_PARALLEL_WORKERS", "REPRO_FLEET_BACKEND"):
            monkeypatch.delenv(name, raising=False)
        for name in ("_default_cache", "_default_activity_cache"):
            monkeypatch.setattr(store, name, None)
        for name in ("_default_initialized", "_default_activity_initialized"):
            monkeypatch.setattr(store, name, True)
        built = []

        def recording_executor(name, workers=1):
            built.append(name)
            return get_executor(name, workers)

        monkeypatch.setattr(sweep_module, "get_executor", recording_executor)
        argv = [
            "simulate", str(DATA / "fleet_golden_trace.json"), "--gpus", "a100:2",
            "--cap-at", "2:58", "--backend", "processes", "--workers", "2",
            "--expect", str(DATA / "fleet_golden_summary.json"),
        ]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert fleet_main(argv) == 0
        assert len(_deprecations(record)) == 1
        assert built == ["threads"]
        assert "replay OK" in capsys.readouterr().out

    @pytest.mark.parametrize("run", [run_configs, api.run_configs], ids=["sweep", "api"])
    @pytest.mark.parametrize("chunksize", [0, -3, 3, 99])
    def test_chunksize_warns_and_is_ignored(self, sweep, run, chunksize):
        reference = _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            results = run(sweep, workers=2, chunksize=chunksize, cache=None, activity_cache=None)
        warned = _deprecations(record)
        assert len(warned) == 1 and warned[0].startswith("chunksize= is deprecated")
        assert _as_dicts(results) == reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(sweep, workers=2, chunksize=None, cache=None, activity_cache=None)


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
