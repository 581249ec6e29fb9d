"""Seed chunks and seed groups as the unit of work: bit-for-bit exact.

``run_configs`` splits every uncached configuration into seed chunks
(:func:`repro.core.pipeline.seed_chunk`); chunk ``i`` of configurations
that draw the same base operands forms one seed-group task, which draws
each base once; the parent reassembles each configuration's measurements
in seed order.  These tests pin that neither the split nor the sharing
changes a bit — on every backend and worker count, for chunk counts that
do not divide by the worker count, for mixed lists with duplicates,
different bases, base seeds and seed counts, for every pattern family and
dtype, over a partly warm activity cache, and under activity-cache faults
— that a failing chunk is blamed on its configuration once, that a shared
base is drawn once per group and freed after its last consumer, and that
the planner keeps a pool busy.

CI's ``chaos`` job also runs this file under two fixed
``REPRO_FAULTS_SEED`` values (see :data:`AMBIENT_SEED`).
"""

from __future__ import annotations

import os
import weakref

import pytest

import repro.faults as faults
from repro.cache.store import ActivityCache, ExperimentCache
from repro.core import EstimationPipeline, estimate_experiment
from repro.core.pipeline import seed_chunk, shared_base_key
from repro.dtypes import list_dtypes
from repro.errors import ExperimentError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import (
    RunStats,
    _seed_groups,
    _seed_tasks,
    run_configs,
    sweep_configs,
)
from repro.patterns import library
from repro.patterns.base import Pattern, Transform, TransformedPattern
from repro.patterns.distribution import GaussianPattern

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
    def test_failing_config_is_named_once(self, quiet_config, large, backend):
        """Every chunk of the poisoned config fails; the blame still names
        the config exactly once."""
        poisoned = quiet_config(
            pattern_family="sparsity", matrix_size=256, seeds=7, label="poisoned"
        )
        object.__setattr__(poisoned, "pattern_params", {"sparsity": 3.0})
        with pytest.raises(ExperimentError) as excinfo:
            run_configs(
                [poisoned, quiet_config(matrix_size=32, label="innocent")],
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
            )
        message = str(excinfo.value)
        assert message.count("poisoned") == 1
        assert "innocent" not in message

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

    def test_pooled_run_equals_estimate_experiment(self, large, backend):
        inline = estimate_experiment(large, activity_cache=None)
        [pooled] = run_configs(
            [large], workers=2, backend=backend, cache=None, activity_cache=None,
            dedupe=False,
        )
        assert pooled.as_dict() == inline.as_dict() == _whole(large)


class TestCacheFaults:
    """Activity-tier faults land inside a configuration's seed chunks and
    its seed groups (the tier is consulted per seed, inside each task), and
    assembly stays exact or fails typed."""

    @pytest.mark.parametrize("seed", [AMBIENT_SEED, AMBIENT_SEED + 1])
    def test_random_faults_identical_or_typed_error(
        self, mixed, backend, seed, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_RETRIES", "3")
        monkeypatch.setenv("REPRO_CACHE_BACKOFF_MS", "1")
        monkeypatch.setenv(
            "REPRO_FAULTS", "cache.sqlite.write:busy@0.5;cache.sqlite.read:eio@0.5"
        )
        monkeypatch.setenv("REPRO_FAULTS_SEED", str(seed))
        faults.reset()
        # A cold pass writes through the faults, and a fresh instance over
        # the same directory then reads through them.
        for _ in range(2):
            try:
                results = run_configs(
                    mixed, workers=2, backend=backend, cache=None,
                    activity_cache=ActivityCache(disk_dir=tmp_path),
                )
            except ReproError:
                continue  # a typed failure is an accepted outcome; wrong data is not
            assert [result.as_dict() for result in results] == [_whole(c) for c in mixed]

    @pytest.mark.parametrize("nth", [1, 2, 5])
    def test_single_fault_mid_run_assembles_exactly(
        self, mixed, backend, nth, tmp_path, monkeypatch
    ):
        """One busy write and one unreadable entry at the N-th activity-tier
        operation, inside some seed task: the busy write is retried and the
        unreadable entry recomputed, so both passes assemble bit for bit."""
        monkeypatch.setenv("REPRO_CACHE_RETRIES", "3")
        monkeypatch.setenv("REPRO_CACHE_BACKOFF_MS", "1")
        monkeypatch.setenv(
            "REPRO_FAULTS", f"cache.sqlite.write:busy@{nth};cache.sqlite.read:eio@{nth}"
        )
        faults.reset()
        expected = [_whole(c) for c in mixed]
        for _ in range(2):
            results = run_configs(
                mixed, workers=2, backend=backend, cache=None,
                activity_cache=ActivityCache(disk_dir=tmp_path),
            )
            assert [result.as_dict() for result in results] == expected
        fired = faults.active_schedule().fired
        assert sorted(entry["point"] for entry in fired) == [
            "cache.sqlite.read", "cache.sqlite.write",
        ]


# ------------------------------------------------------------ seed groups


@pytest.fixture
def siblings(quiet_config):
    """Three 256² configurations over one Gaussian base, one seed per chunk."""

    def make(seeds=3, **overrides):
        return [
            quiet_config(
                matrix_size=256, seeds=seeds, pattern_family=family,
                pattern_params=params, label=family, **overrides,
            )
            for family, params in (
                ("zero_lsb", {"fraction": 0.5}),
                ("sparsity", {"sparsity": 0.5}),
                ("sorted_rows", {}),
            )
        ]

    return make


@pytest.fixture
def base_draws(monkeypatch):
    """Record every Gaussian base draw as ``(shape, weakref to its words)``."""
    draws = []

    def recording(self, shape, dtype, rng):
        words = Pattern.generate_words(self, shape, dtype, rng)
        draws.append((shape, weakref.ref(words)))
        return words

    monkeypatch.setattr(GaussianPattern, "generate_words", recording)
    return draws


#: Parameters that make a family's transforms draw from the generator after
#: the base (their defaults are identities), so a wrong restored state shows.
DRAWING_PARAMS = {
    "bit_flip": {"probability": 0.1},
    "randomize_lsb": {"fraction": 0.5},
    "randomize_msb": {"fraction": 0.25},
    "sparsity": {"sparsity": 0.5},
    "sorted_sparsity": {"sparsity": 0.5},
    "zero_lsb": {"fraction": 0.5},
}


def _family_configs(dtype):
    """Every built-in family at 32², two seeds."""
    configs = []
    for family in sorted(library.PATTERN_FAMILIES):
        try:
            configs.append(
                ExperimentConfig(
                    pattern_family=family, dtype=dtype, matrix_size=32, seeds=2,
                    pattern_params=DRAWING_PARAMS.get(family, {}), iterations=1,
                    label=f"{family}/{dtype}",
                )
            )
        except ExperimentError:
            continue
    return configs


class TestSeedGroupPlanner:
    def test_paper_cold_stays_ten_groups_of_four(self):
        configs = [
            ExperimentConfig.paper_defaults(
                "fp16_t", pattern_family=family, pattern_params=params,
                matrix_size=2048, seeds=10, base_seed=2025, label=family,
            )
            for family, params in (
                ("gaussian", {}),
                ("zero_lsb", {"fraction": 0.5}),
                ("sorted_rows", {}),
                ("sparsity", {"sparsity": 0.5}),
            )
        ]
        groups = _seed_groups(configs, workers=2)
        assert [len(group) for group in groups] == [4] * 10
        for seed, group in enumerate(groups):
            assert group == [(position, seed, seed + 1) for position in range(4)]

    def test_small_sweep_still_spreads_over_the_pool(self, quiet_config):
        base = quiet_config(pattern_family="sparsity", seeds=3)
        configs = sweep_configs(base, "sparsity", [i / 16 for i in range(16)])
        assert len(_seed_groups(configs, workers=1)) == 1
        groups = _seed_groups(configs, workers=2)
        assert len(groups) >= 8
        assert [member for group in groups for member in group] == [
            (position, 0, 3) for position in range(16)
        ]
        assert len(_seed_groups(configs, workers=8)) == 16

    def test_keys_separate_what_draws_differently(self, quiet_config):
        reference = quiet_config(pattern_family="zero_lsb")
        same = [
            quiet_config(pattern_family="sparsity", pattern_params={"sparsity": 0.3}),
            quiet_config(pattern_family="sorted_columns"),
            quiet_config(pattern_family="gaussian", gpu="h100"),
        ]
        different = [
            quiet_config(pattern_family="zero_lsb", base_seed=7),
            quiet_config(pattern_family="zero_lsb", dtype="bf16"),
            quiet_config(pattern_family="zero_lsb", matrix_size=64),
            quiet_config(pattern_family="gaussian", pattern_params={"std": 3.0}),
            quiet_config(pattern_family="uniform"),
        ]
        key = shared_base_key(reference)
        assert key is not None
        assert all(shared_base_key(config) == key for config in same)
        assert all(shared_base_key(config) != key for config in different)

    def test_foreign_base_is_drawn_per_configuration(self, quiet_config, monkeypatch):
        class LocalGaussian(GaussianPattern):
            pass

        monkeypatch.setitem(
            library.PATTERN_FAMILIES, "local", lambda dtype: LocalGaussian(0.0, 210.0)
        )
        local = quiet_config(pattern_family="local")
        assert shared_base_key(local) is None
        groups = _seed_groups([local, local.with_overrides(label="twin")])
        assert [len(group) for group in groups] == [1, 1]


class TestGroupedEquivalence:
    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_every_family_grouped_against_whole(self, dtype):
        configs = _family_configs(dtype)
        assert len(_seed_groups(configs)) < len(configs)
        results = run_configs(configs, cache=None, activity_cache=None)
        assert [result.as_dict() for result in results] == [_whole(c) for c in configs]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mixed_bases_seeds_and_counts(self, quiet_config, backend, workers):
        configs = [
            quiet_config(pattern_family="zero_lsb", seeds=10, label="zero_lsb"),
            quiet_config(pattern_family="sparsity", seeds=7, label="sparsity"),
            quiet_config(pattern_family="sorted_rows", seeds=10, base_seed=99, label="other-seed"),
            quiet_config(pattern_params={"std": 3.0}, seeds=5, label="narrow"),
            quiet_config(pattern_family="bit_flip", seeds=3, label="bit_flip"),
            quiet_config(pattern_family="randomize_lsb", seeds=3, label="randomize_lsb"),
            quiet_config(pattern_family="uniform", matrix_size=64, seeds=2, label="uniform"),
            quiet_config(pattern_family="zero_lsb", seeds=10, label="zero_lsb-again"),
        ]
        assert len(_seed_groups(configs[:-1])) < sum(
            len(_seed_tasks(config)) for config in configs[:-1]
        )
        stats = RunStats()
        results = run_configs(
            configs, workers=workers, backend=backend, cache=None, activity_cache=None,
            stats=stats,
        )
        assert [result.as_dict() for result in results] == [_whole(c) for c in configs]
        assert stats.unique == 7 and stats.executed == 7


class TestSharedBases:
    def test_each_base_drawn_once_per_group(self, siblings, base_draws):
        configs = siblings(seeds=3)
        results = run_configs(configs, cache=None, activity_cache=None)
        assert len(base_draws) == 3 * 2  # seeds × operands, not × configs
        assert [result.as_dict() for result in results] == [_whole(c) for c in configs]

    def test_different_bases_drawn_per_configuration(self, siblings, base_draws):
        configs = [
            config.with_overrides(base_seed=seed)
            for seed, config in enumerate(siblings(seeds=3))
        ]
        results = run_configs(configs, cache=None, activity_cache=None)
        assert len(base_draws) == 3 * 3 * 2
        assert [result.as_dict() for result in results] == [_whole(c) for c in configs]

    def test_base_freed_after_its_last_consumer(self, siblings, base_draws, monkeypatch):
        """While the last sibling of a seed still estimates, that seed's
        base words are gone; while an earlier one does, they are held."""
        configs = siblings(seeds=2)
        alive = []
        original = EstimationPipeline.generate_streams

        def observing(self, problem, seed_index, pattern=None):
            streams = original(self, problem, seed_index, pattern=pattern)
            held = [ref() is not None for _, ref in base_draws[2 * seed_index :]]
            alive.append((self.config.label, seed_index, held))
            return streams

        monkeypatch.setattr(EstimationPipeline, "generate_streams", observing)
        run_configs(configs, cache=None, activity_cache=None)
        assert alive == [
            ("zero_lsb", 0, [True, True]),
            ("sparsity", 0, [True, True]),
            ("sorted_rows", 0, [False, False]),
            ("zero_lsb", 1, [True, True]),
            ("sparsity", 1, [True, True]),
            ("sorted_rows", 1, [False, False]),
        ]
        assert all(ref() is None for _, ref in base_draws)

    def test_warm_sibling_skips_and_memo_freed_at_group_end(
        self, siblings, base_draws, backend, monkeypatch
    ):
        zero_lsb, sparsity, _ = siblings(seeds=8)
        activity = ActivityCache()
        EstimationPipeline(sparsity, activity_cache=activity).run(seeds=range(0, 4))
        base_draws.clear()
        generated = []
        original = EstimationPipeline.generate_streams

        def recording(self, problem, seed_index, pattern=None):
            if backend == "serial":
                # Earlier groups are over, so nothing of theirs is held —
                # not even the bases the warm sibling never consumed.
                earlier = base_draws[: 2 * seed_index]
                assert all(ref() is None for _, ref in earlier)
            generated.append((self.config.label, seed_index))
            return original(self, problem, seed_index, pattern=pattern)

        monkeypatch.setattr(EstimationPipeline, "generate_streams", recording)
        results = run_configs(
            [zero_lsb, sparsity], workers=2, backend=backend, cache=None,
            activity_cache=activity,
        )
        assert sorted(generated) == sorted(
            [("zero_lsb", seed) for seed in range(8)]
            + [("sparsity", seed) for seed in range(4, 8)]
        )
        assert len(base_draws) == 8 * 2
        assert all(ref() is None for _, ref in base_draws)
        assert [result.as_dict() for result in results] == [
            _whole(zero_lsb), _whole(sparsity)
        ]

    def test_mutating_transform_is_named_and_spares_siblings(
        self, quiet_config, monkeypatch
    ):
        class ZeroInPlace(Transform):
            name = "zero_in_place"

            def apply_words(self, words, dtype, rng):
                words[:] = 0
                return words

        monkeypatch.setitem(
            library.PATTERN_FAMILIES,
            "mutating",
            lambda dtype: TransformedPattern(
                library.paper_base_pattern(dtype), [ZeroInPlace()]
            ),
        )
        sibling = quiet_config(pattern_family="zero_lsb", label="sibling")
        mutating = quiet_config(pattern_family="mutating", label="mutating")
        assert shared_base_key(mutating) == shared_base_key(sibling)
        for order in ([sibling, mutating], [mutating, sibling]):
            with pytest.raises(ExperimentError) as excinfo:
                run_configs(order, cache=None, activity_cache=None)
            message = str(excinfo.value)
            assert "'mutating'" in message and "zero_in_place" in message
            assert "sibling" not in message
        [alone] = run_configs([sibling], cache=None, activity_cache=None)
        assert alone.as_dict() == _whole(sibling)
