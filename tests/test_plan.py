"""Tests for experiment plans (:mod:`repro.experiments.plan`).

A plan is a plain frozen value built where it is used:

* **Construction** — :func:`build_plan` builds fresh members on every call
  (there is no cross-configuration cache or shared-pattern memo), the plan
  is immutable, and its members follow exactly the config fields a plan
  depends on — never the seed loop or the measurement procedure.
* **Sharing** — :class:`~repro.core.EstimationPipeline` builds one plan per
  configuration and runs every seed on it; a sweep builds one plan per
  distinct configuration it computes, on every in-process backend.
* **Process pools** — workers are seeded with the parent's chunk budget
  and nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
import repro.experiments.sweep as sweep_module
from repro.activity.sampler import SamplingConfig
from repro.cache.store import ExperimentCache
from repro.core import EstimationPipeline
from repro.experiments.harness import ExperimentRunner, run_experiment
from repro.experiments.plan import build_plan, build_problem, build_workload_pattern
from repro.experiments.sweep import run_configs, sweep_configs
from repro.telemetry.sampler import TelemetryConfig


def _signature(plan):
    """Everything a plan's members derive from the config, as plain data."""
    return (
        plan.device.describe(),
        plan.problem,
        plan.launch.describe(),
        plan.pattern.describe(),
        plan.monitor.config,
    )


def _as_dicts(results):
    return [result.as_dict() for result in results]


@pytest.fixture
def count_plan_builds(monkeypatch):
    """Count the plans pipelines build (thread-safe; in-process backends)."""
    calls = []
    lock = threading.Lock()
    real_build_plan = pipeline_module.build_plan

    def counting_build_plan(config, *args, **kwargs):
        with lock:
            calls.append(config)
        return real_build_plan(config, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "build_plan", counting_build_plan)
    return calls


@pytest.fixture
def sweep(quiet_config):
    """3 distinct configs x 4 seeds."""
    return sweep_configs(
        quiet_config(pattern_family="sparsity", matrix_size=32, seeds=4),
        "sparsity",
        [0.0, 0.5, 1.0],
    )


# ----------------------------------------------------------------- build_plan


class TestBuildPlan:
    def test_builds_fresh_members_every_call(self, quiet_config):
        """No cache and no shared-pattern memo: two builds share nothing."""
        config = quiet_config()
        first, second = build_plan(config), build_plan(config)
        assert first is not second
        assert first.pattern is not second.pattern
        assert first.device is not second.device
        assert first.monitor is not second.monitor

    def test_builds_are_equal_in_value(self, quiet_config):
        config = quiet_config()
        assert _signature(build_plan(config)) == _signature(build_plan(config))

    def test_plan_is_frozen(self, quiet_config):
        plan = build_plan(quiet_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.pattern = build_workload_pattern(quiet_config())

    def test_has_no_fingerprint_field(self, quiet_config):
        """The plan is a plain value: nothing keys it any more."""
        plan = build_plan(quiet_config())
        names = {field.name for field in dataclasses.fields(plan)}
        assert names == {"device", "problem", "pattern", "launch", "monitor"}

    def test_describe_is_json(self, quiet_config):
        plan = build_plan(quiet_config())
        info = json.loads(json.dumps(plan.describe()))
        assert info["device"] == plan.device.describe()
        assert info["launch"] == plan.launch.describe()
        assert info["pattern"] == type(plan.pattern).__name__

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pattern_family": "sparsity", "pattern_params": {"sparsity": 0.5}},
            {"pattern_params": {"std": 16.0}},
            {"dtype": "fp32"},
            {"matrix_size": 256},
            {"transpose_b": False},
            {"gpu": "h100"},
            {"instance_id": 3},
            {"telemetry": TelemetryConfig(noise_std_watts=1.0)},
        ],
        ids=[
            "pattern_family",
            "pattern_params",
            "dtype",
            "matrix_size",
            "transpose_b",
            "gpu",
            "instance_id",
            "telemetry",
        ],
    )
    def test_follows_plan_inputs(self, quiet_config, overrides):
        config = quiet_config()
        changed = build_plan(config.with_overrides(**overrides))
        assert _signature(changed) != _signature(build_plan(config))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seeds": 7},
            {"base_seed": 999},
            {"iterations": 123},
            {"warmup_trim_s": 1.5},
            {"include_process_variation": True},
            {"label": "renamed"},
            {"sampling": SamplingConfig(output_samples=16)},
        ],
        ids=[
            "seeds",
            "base_seed",
            "iterations",
            "warmup_trim_s",
            "include_process_variation",
            "label",
            "sampling",
        ],
    )
    def test_ignores_measurement_procedure(self, quiet_config, overrides):
        """The seed loop and the measurement procedure are outside the plan,
        which is what lets one plan serve every seed of a run."""
        config = quiet_config()
        unchanged = build_plan(config.with_overrides(**overrides))
        assert _signature(unchanged) == _signature(build_plan(config))


# ------------------------------------------------------------- plan sharing


class TestPipelinePlanSharing:
    def test_one_plan_for_all_seeds(self, quiet_config, count_plan_builds):
        config = quiet_config(seeds=4)
        result = EstimationPipeline(config, activity_cache=None).run()
        assert len(result.measurements) == 4
        assert count_plan_builds == [config]

    def test_result_reports_the_plan_device(self, quiet_config):
        pipeline = EstimationPipeline(quiet_config(gpu="h100"), activity_cache=None)
        assert pipeline.device is pipeline.plan.device
        assert pipeline.run().config["device"] == pipeline.plan.device.describe()

    def test_runner_exposes_the_pipeline_plan(self, quiet_config, count_plan_builds):
        runner = ExperimentRunner(quiet_config(seeds=3), activity_cache=None)
        assert runner.plan is runner.pipeline.plan
        runner.run()
        assert len(count_plan_builds) == 1

    def test_default_pattern_is_the_plan_pattern(self, quiet_config):
        """Operands drawn from the plan's pattern equal operands drawn from a
        freshly built one, bit for bit."""
        config = quiet_config(seeds=2)
        pipeline = EstimationPipeline(config, activity_cache=None)
        problem = build_problem(config)
        for seed_index in range(config.seeds):
            shared = pipeline.generate_operands(problem, seed_index)
            fresh = pipeline.generate_operands(
                problem, seed_index, pattern=build_workload_pattern(config)
            )
            assert np.array_equal(shared.a, fresh.a)
            assert np.array_equal(shared.b_stored, fresh.b_stored)

    def test_separate_pipelines_agree(self, quiet_config):
        config = quiet_config(seeds=2)
        first = EstimationPipeline(config, activity_cache=None)
        second = EstimationPipeline(config, activity_cache=None)
        assert first.plan is not second.plan
        assert first.run().as_dict() == second.run().as_dict()

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_sweep_builds_one_plan_per_distinct_config(
        self, sweep, backend, count_plan_builds
    ):
        """3 distinct configs x 4 seeds: 3 plan builds per uncached pass,
        whatever the in-process backend; nothing carries over between
        passes."""
        first = run_configs(
            sweep, workers=2, cache=None, activity_cache=None, backend=backend
        )
        assert sorted(config.label for config in count_plan_builds) == sorted(
            config.label for config in sweep
        )
        second = run_configs(
            sweep, workers=2, cache=None, activity_cache=None, backend=backend
        )
        assert len(count_plan_builds) == 6
        assert _as_dicts(first) == _as_dicts(second)

    def test_cross_seed_sweep_builds_one_plan_per_point(
        self, quiet_config, count_plan_builds
    ):
        """Points differing only in base_seed are distinct experiments and
        each builds its own plan; results match single runs."""
        configs = sweep_configs(
            quiet_config(matrix_size=32, seeds=2),
            "base_seed",
            [1, 2, 3, 4],
            target="config",
        )
        results = run_configs(configs, workers=1, cache=None, activity_cache=None)
        assert len(count_plan_builds) == 4
        singles = [run_experiment(config, None, None) for config in configs]
        assert _as_dicts(results) == _as_dicts(singles)

    def test_duplicate_configs_build_one_plan(self, quiet_config, count_plan_builds):
        config = quiet_config(matrix_size=32, seeds=2)
        results = run_configs(
            [config, config, config], workers=1, cache=None, activity_cache=None
        )
        assert len(results) == 3
        assert len(count_plan_builds) == 1

    def test_warm_result_cache_builds_no_plans(self, sweep, count_plan_builds):
        cache = ExperimentCache(max_entries=16)
        cold = run_configs(sweep, workers=1, cache=cache, activity_cache=None)
        assert len(count_plan_builds) == 3
        warm = run_configs(sweep, workers=1, cache=cache, activity_cache=None)
        assert len(count_plan_builds) == 3
        assert _as_dicts(warm) == _as_dicts(cold)


# ------------------------------------------------------------ process pools


class TestProcessPoolBackend:
    def test_processes_backend_matches_serial(self, quiet_config, monkeypatch):
        """A sweep forced onto the processes backend really runs on a process
        pool and matches the serial results."""
        seen = []
        real_get_executor = sweep_module.get_executor

        def recording_get_executor(name, workers, **kwargs):
            seen.append(name)
            return real_get_executor(name, workers, **kwargs)

        monkeypatch.setattr(sweep_module, "get_executor", recording_get_executor)
        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
            "sparsity",
            [0.0, 1.0],
        )
        computed = run_configs(
            configs, workers=2, cache=None, activity_cache=None, backend="processes"
        )
        assert seen == ["processes"]
        reference = run_configs(
            configs, workers=1, cache=None, activity_cache=None, backend="serial"
        )
        assert _as_dicts(computed) == _as_dicts(reference)
