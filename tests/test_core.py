"""Tests for the pure estimation core (repro.core) and its wrappers.

The core/orchestration split only works if every layer above the pipeline
— the runner, the cached one-shot entry point, the sweep machinery and the
serving layer — produces bit-for-bit the pipeline's own output.  These
tests pin that equivalence plus the deprecation shim for the old harness
location of the moved constant.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter

import pytest

import oracle
from repro.core import (
    MIN_MEASUREMENT_DURATION_S,
    EstimationPipeline,
    estimate_experiment,
)
from repro.dtypes import get_dtype
from repro.experiments.harness import ExperimentRunner, run_experiment
from repro.experiments.plan import (
    ExperimentPlan,
    build_plan,
    build_problem,
    build_workload_pattern,
)
from repro.kernels.launch import plan_launch


class TestPipelineEquivalence:
    def test_all_entry_points_agree_bit_for_bit(self, quiet_config):
        config = quiet_config(seeds=2)
        pipeline_doc = EstimationPipeline(config, activity_cache=None).run().as_dict()
        function_doc = estimate_experiment(config, activity_cache=None).as_dict()
        runner_doc = ExperimentRunner(config, activity_cache=None).run().as_dict()
        uncached_doc = run_experiment(config, cache=None, activity_cache=None).as_dict()
        assert pipeline_doc == function_doc == runner_doc == uncached_doc

    def test_pipeline_is_deterministic(self, quiet_config):
        config = quiet_config()
        first = EstimationPipeline(config, activity_cache=None).run()
        second = EstimationPipeline(config, activity_cache=None).run()
        assert first.as_dict() == second.as_dict()

    def test_runner_mirrors_pipeline_state(self, quiet_config):
        runner = ExperimentRunner(quiet_config(), activity_cache=None)
        assert runner.plan is runner.pipeline.plan
        assert runner.device is runner.pipeline.device
        assert runner.power_model is runner.pipeline.power_model
        assert runner.runtime_model is runner.pipeline.runtime_model
        assert runner.activity_engine is runner.pipeline.activity_engine

    def test_reference_seed_path_matches_batched(self, quiet_config):
        # The oracle's seed-by-seed path (no plan, scalar estimators) must
        # agree with the batched pipeline the seeds normally go through.
        config = quiet_config(seeds=2)
        pipeline = EstimationPipeline(config, activity_cache=None)
        batched = pipeline.run()
        reference = [
            oracle.run_seed_reference(pipeline, index) for index in range(config.seeds)
        ]
        assert [m.as_dict() for m in batched.measurements] == [
            m.as_dict() for m in reference
        ]


class TestOperandStaging:
    """Patterns hand the estimators words: no float64 staging of operands."""

    @pytest.mark.parametrize(
        ("family", "params", "value_domain"),
        [
            ("gaussian", {}, False),
            ("zero_lsb", {"fraction": 0.5}, False),
            ("sparsity", {"sparsity": 0.5}, False),
            # Row and column sorts of 16-bit float words run on the words
            # (a counting sort in value order).
            ("sorted_rows", {}, False),
            # The within-row sort is defined on values: one decode and one
            # re-encode per operand around it.
            ("sorted_within_rows", {}, True),
        ],
    )
    def test_paper_kinds_encode_each_operand_once(
        self, monkeypatch, quiet_config, family, params, value_domain
    ):
        config = quiet_config(pattern_family=family, pattern_params=params, seeds=2)
        expected = EstimationPipeline(config, activity_cache=None).run().as_dict()
        calls: list[tuple[str, str]] = []

        def record(name, original):
            def wrapper(arg):
                calls.append((name, sys._getframe(1).f_globals.get("__name__", "")))
                return original(arg)

            return wrapper

        spec = get_dtype(config.dtype)
        for name in ("encode", "decode", "quantize"):
            monkeypatch.setattr(spec, name, record(name, getattr(spec, name)))
        assert EstimationPipeline(config, activity_cache=None).run().as_dict() == expected

        # The datapath estimator decodes (and re-encodes) only its sampled
        # output rows; everything else is operand staging.
        staging = Counter(name for name, caller in calls if not caller.startswith("repro.activity"))
        operands = 2 * config.seeds
        if value_domain:
            assert staging == {"encode": 2 * operands, "decode": operands}
        else:
            assert staging == {"encode": operands}


class TestPlan:
    def test_plan_matches_scratch_construction(self, quiet_config):
        config = quiet_config()
        plan = build_plan(config)
        assert isinstance(plan, ExperimentPlan)
        problem = build_problem(config)
        assert plan.problem == problem
        assert plan.launch.describe() == plan_launch(problem, plan.device).describe()
        assert type(plan.pattern) is type(build_workload_pattern(config))
        assert plan.monitor.device is plan.device
        assert plan.device.name == config.gpu


class TestMinimumDuration:
    def test_constant_is_exported_from_core(self):
        assert MIN_MEASUREMENT_DURATION_S == pytest.approx(3.0)

    def test_harness_shim_warns_but_works(self):
        import repro.experiments.harness as harness

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = harness.MIN_MEASUREMENT_DURATION_S
        assert value == MIN_MEASUREMENT_DURATION_S
        assert len(caught) == 1
        assert issubclass(caught[0].category, DeprecationWarning)
        assert "repro.core" in str(caught[0].message)

    def test_harness_unknown_attribute_still_raises(self):
        import repro.experiments.harness as harness

        with pytest.raises(AttributeError):
            harness.NO_SUCH_NAME
