"""Seed chunks as the unit of work: the task split is bit-for-bit exact.

``run_configs`` splits every uncached configuration into one executor task
per seed chunk (:func:`repro.core.pipeline.seed_chunk`) and reassembles
each configuration's measurements in seed order.  These tests pin that the
split never changes a bit — on every backend and worker count, for chunk
counts that do not divide by the worker count, for mixed lists with
duplicates, over a partly warm activity cache, and under process-pool
faults — and that a failing chunk is blamed on its configuration once.

CI's ``chaos`` job also runs this file under two fixed
``REPRO_FAULTS_SEED`` values (see :data:`AMBIENT_SEED`).
"""

from __future__ import annotations

import os

import pytest

import repro.faults as faults
from repro.cache.store import ActivityCache, ExperimentCache
from repro.core import EstimationPipeline, estimate_experiment
from repro.core.pipeline import seed_chunk
from repro.errors import ExperimentError, ReproError
from repro.experiments.sweep import RunStats, _seed_tasks, run_configs

BACKENDS = ("serial", "threads", "processes")

#: The fault seed CI's chaos legs set (captured before the isolation
#: fixture scrubs the environment).
AMBIENT_SEED = int(os.environ.get("REPRO_FAULTS_SEED", "0") or "0")


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def large(quiet_config):
    """Seven one-seed tasks: no worker count here divides them evenly."""
    return quiet_config(matrix_size=256, seeds=7, label="large")


@pytest.fixture
def mixed(quiet_config, large):
    """Small one-task configs, a three-task 128² config, the seven-task
    256² config, and a relabelled duplicate of it."""
    return [
        quiet_config(matrix_size=32, seeds=3, label="small"),
        large,
        quiet_config(pattern_family="sparsity", seeds=10, label="medium"),
        quiet_config(matrix_size=32, seeds=2, pattern_family="zero_lsb", label="tiny"),
        large.with_overrides(label="large-again"),
    ]


def _whole(config):
    """The reference: every seed through one pipeline run, no caches."""
    result = EstimationPipeline(config, activity_cache=None).run().as_dict()
    result["config"]["label"] = config.describe()["label"]
    return result


class TestTaskSplit:
    def test_chunk_sizes(self, quiet_config, large):
        assert seed_chunk(large) == 1
        assert [task[1:] for task in _seed_tasks(large)] == [
            (seed, seed + 1) for seed in range(7)
        ]
        medium = quiet_config(seeds=10)
        assert seed_chunk(medium) == 4
        assert [task[1:] for task in _seed_tasks(medium)] == [(0, 4), (4, 8), (8, 10)]
        small = quiet_config(matrix_size=32, seeds=3)
        assert [task[1:] for task in _seed_tasks(small)] == [(0, 3)]

    def test_partial_runs_concatenate_to_the_whole(self, large):
        pipeline = EstimationPipeline(large, activity_cache=None)
        parts = [pipeline.run(seeds=range(start, stop)) for start, stop in ((0, 3), (3, 7))]
        assert [m.as_dict() for part in parts for m in part.measurements] == [
            m.as_dict() for m in pipeline.run().measurements
        ]

    @pytest.mark.parametrize("seeds", [range(0), range(5, 8), range(0, 4, 2), range(-1, 2)])
    def test_rejects_bad_seed_ranges(self, large, seeds):
        with pytest.raises(ExperimentError, match="seeds must be"):
            EstimationPipeline(large, activity_cache=None).run(seeds=seeds)


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_list_bit_for_bit(self, mixed, backend, workers):
        stats = RunStats()
        results = run_configs(
            mixed, workers=workers, backend=backend, cache=None, activity_cache=None,
            stats=stats,
        )
        assert [result.as_dict() for result in results] == [_whole(c) for c in mixed]
        assert stats.unique == 4 and stats.executed == 4
        assert stats.backend == ("serial" if workers == 1 else backend)

    def test_result_cache_stays_per_config(self, large):
        cache = ExperimentCache()
        progress = []
        run_configs(
            [large], workers=2, backend="threads", cache=cache, activity_cache=None,
            progress=lambda done, total, label: progress.append((done, total, label)),
        )
        assert progress == [(1, 1, "large")]
        stats = RunStats()
        warm = run_configs([large], workers=2, cache=cache, activity_cache=None, stats=stats)
        assert stats.cache_hits == 1 and stats.executed == 0
        assert warm[0].as_dict() == _whole(large)


class TestPartlyWarmActivityCache:
    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_only_missing_seeds_are_computed(self, large, backend, monkeypatch):
        activity = ActivityCache()
        EstimationPipeline(large, activity_cache=activity).run(seeds=range(0, 4))
        generated = []
        original = EstimationPipeline.generate_streams

        def recording(self, problem, seed_index, pattern=None):
            generated.append(seed_index)
            return original(self, problem, seed_index, pattern=pattern)

        monkeypatch.setattr(EstimationPipeline, "generate_streams", recording)
        results = run_configs(
            [large], workers=2, backend=backend, cache=None, activity_cache=activity
        )
        assert sorted(generated) == [4, 5, 6]
        assert [result.as_dict() for result in results] == [_whole(large)]


class TestFailingChunk:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failing_config_is_named_once(self, quiet_config, large, backend):
        """Every chunk of the poisoned config fails; with three tasks per
        process chunk the blame still names the config exactly once."""
        poisoned = quiet_config(
            pattern_family="sparsity", matrix_size=256, seeds=7, label="poisoned"
        )
        object.__setattr__(poisoned, "pattern_params", {"sparsity": 3.0})
        with pytest.raises(ExperimentError) as excinfo:
            run_configs(
                [poisoned, quiet_config(matrix_size=32, label="innocent")],
                workers=2,
                backend=backend,
                chunksize=3,
                cache=None,
                activity_cache=None,
            )
        message = str(excinfo.value)
        assert message.count("poisoned") == 1
        assert "innocent" not in message

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_mid_config_failure_is_named_once(self, large, backend, monkeypatch):
        original = EstimationPipeline.generate_streams

        def failing(self, problem, seed_index, pattern=None):
            if seed_index == 4:
                raise RuntimeError("seed 4 exploded")
            return original(self, problem, seed_index, pattern=pattern)

        monkeypatch.setattr(EstimationPipeline, "generate_streams", failing)
        with pytest.raises(ExperimentError, match="seed 4 exploded") as excinfo:
            run_configs(
                [large], workers=2, backend=backend, cache=None, activity_cache=None
            )
        assert str(excinfo.value).count("'large'") == 1


class TestSingleConfiguration:
    """One configuration's seeds spread over a pool through ``run_configs``
    with the result cache off equal ``estimate_experiment`` bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pooled_run_equals_estimate_experiment(self, large, backend):
        inline = estimate_experiment(large, activity_cache=None)
        [pooled] = run_configs(
            [large], workers=2, backend=backend, cache=None, activity_cache=None,
            dedupe=False,
        )
        assert pooled.as_dict() == inline.as_dict() == _whole(large)


class TestPoolFaults:
    """A ``pool.worker`` fault lands mid-config: some of the config's chunks
    are consumed, the rest resubmitted, and assembly stays exact."""

    def test_kill_mid_config_rebuilds_and_assembles(self, large, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "pool.worker:kill@3")
        faults.reset()
        stats = RunStats()
        results = run_configs(
            [large], workers=2, backend="processes", chunksize=1, cache=None,
            activity_cache=None, stats=stats,
        )
        assert [result.as_dict() for result in results] == [_whole(large)]
        assert stats.pool_rebuilds == 1
        assert 0 < stats.chunks_resubmitted < 7

    @pytest.mark.parametrize("seed", [AMBIENT_SEED, AMBIENT_SEED + 1])
    def test_random_kills_identical_or_typed_error(self, mixed, seed, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "pool.worker:kill@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", str(seed))
        faults.reset()
        try:
            results = run_configs(
                mixed, workers=2, backend="processes", chunksize=1, cache=None,
                activity_cache=None,
            )
        except ReproError:
            return  # a typed failure is an accepted outcome; wrong data is not
        assert [result.as_dict() for result in results] == [_whole(c) for c in mixed]
