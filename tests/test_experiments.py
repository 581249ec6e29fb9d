"""Unit and integration tests for repro.experiments (config, harness, sweeps, results)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.config import PAPER_ITERATIONS, PAPER_MATRIX_SIZE, PAPER_SEEDS, ExperimentConfig
from repro.experiments.harness import ExperimentRunner, run_experiment
from repro.experiments.results import ExperimentResult, FigureResult, SweepResult
from repro.experiments.sweep import run_configs, run_sweep, sweep_configs
from repro.telemetry.sampler import TelemetryConfig, latest_warmup_trim_s


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.pattern_family == "gaussian"
        assert config.dtype == "fp16_t"

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(pattern_family="bogus")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(dtype="fp9")

    def test_unknown_gpu_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig(gpu="tpu")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(matrix_size=4)
        with pytest.raises(ExperimentError):
            ExperimentConfig(seeds=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(iterations=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(warmup_trim_s=-1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pattern_params": {"std": float("nan")}},
            {"pattern_params": {"std": float("inf")}},
            {"pattern_params": {"values": [1.0, float("-inf")]}},
            {"warmup_trim_s": float("nan")},
            {"warmup_trim_s": float("inf")},
        ],
    )
    def test_non_finite_values_rejected(self, overrides):
        with pytest.raises(ExperimentError, match="finite"):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("sparsity", {"sparsity": 1.5}),
            ("gaussian", {"std": -1.0}),
            ("gaussian", {"bogus": 1}),
        ],
    )
    def test_invalid_pattern_params_rejected(self, family, params):
        # Rejected when the config is built, not partway through a run.
        with pytest.raises(ExperimentError):
            ExperimentConfig(pattern_family=family, pattern_params=params)

    @pytest.mark.parametrize("warmup_trim_s", [3.0, 10.0])
    def test_warmup_trim_past_shortest_trace_rejected(self, warmup_trim_s):
        with pytest.raises(ExperimentError, match="no power sample"):
            ExperimentConfig(matrix_size=64, seeds=1, warmup_trim_s=warmup_trim_s)

    @pytest.mark.parametrize("sample_period_s", [0.1, 0.05, 0.07, 0.3, 1.0, 7.0])
    def test_warmup_trim_bound_is_the_shortest_trace_last_sample(self, sample_period_s):
        # The 64² kernel is far shorter than the minimum window, so the run
        # is padded to the shortest trace any config can produce.
        telemetry = TelemetryConfig(sample_period_s=sample_period_s)
        bound = latest_warmup_trim_s(telemetry)
        with pytest.raises(ExperimentError, match="no power sample"):
            ExperimentConfig(
                matrix_size=64, seeds=1, telemetry=telemetry,
                warmup_trim_s=float(np.nextafter(bound, np.inf)),
            )
        config = ExperimentConfig(
            matrix_size=64, seeds=1, telemetry=telemetry, warmup_trim_s=bound
        )
        assert math.isfinite(run_experiment(config, cache=None).mean_power_watts)

    def test_default_warmup_trim_bound(self):
        assert latest_warmup_trim_s(TelemetryConfig()) == 29 * 0.1

    def test_with_overrides_does_not_mutate(self):
        base = ExperimentConfig()
        other = base.with_overrides(dtype="fp32")
        assert base.dtype == "fp16_t" and other.dtype == "fp32"

    def test_with_pattern(self):
        config = ExperimentConfig().with_pattern("sparsity", sparsity=0.5)
        assert config.pattern_family == "sparsity"
        assert config.pattern_params == {"sparsity": 0.5}

    def test_paper_defaults(self):
        config = ExperimentConfig.paper_defaults("fp16_t")
        assert config.matrix_size == PAPER_MATRIX_SIZE
        assert config.seeds == PAPER_SEEDS
        assert config.iterations == PAPER_ITERATIONS["fp16_t"]
        assert ExperimentConfig.paper_defaults("fp32").iterations == PAPER_ITERATIONS["default"]

    def test_describe_and_label(self):
        config = ExperimentConfig(pattern_family="sparsity", pattern_params={"sparsity": 0.5})
        desc = config.describe()
        assert desc["pattern_params"] == {"sparsity": 0.5}
        assert "sparsity" in config.default_label()


class TestHarness:
    def test_run_basic(self, quiet_config):
        result = run_experiment(quiet_config())
        assert isinstance(result, ExperimentResult)
        assert len(result.measurements) == 1
        assert result.mean_power_watts > 50.0
        assert result.mean_iteration_time_s > 0.0
        assert result.mean_iteration_energy_j > 0.0

    def test_seed_count_respected(self, quiet_config):
        result = run_experiment(quiet_config(seeds=3))
        assert len(result.measurements) == 3
        assert {m.seed for m in result.measurements} == {0, 1, 2}

    def test_deterministic_without_noise(self, quiet_config):
        config = quiet_config()
        # cache=None forces both runs through the harness; with the default
        # cache the second call would be a hit and prove nothing.
        one = run_experiment(config, cache=None)
        two = run_experiment(config, cache=None)
        assert one.mean_power_watts == pytest.approx(two.mean_power_watts)

    def test_a_and_b_use_different_seeds(self, quiet_config):
        # With a constant_random pattern A and B should get different values,
        # so the bit alignment between them must be below 1.
        result = run_experiment(quiet_config(pattern_family="constant_random"))
        assert result.mean_bit_alignment < 1.0

    def test_different_patterns_produce_different_power(self, quiet_config):
        dense = run_experiment(quiet_config())
        empty = run_experiment(
            quiet_config(pattern_family="sparsity", pattern_params={"sparsity": 1.0})
        )
        assert empty.mean_power_watts < dense.mean_power_watts

    def test_device_metadata_in_result(self, quiet_config):
        result = run_experiment(quiet_config(gpu="h100"))
        assert result.config["device"]["name"] == "h100"

    def test_runner_reuse(self, quiet_config):
        runner = ExperimentRunner(quiet_config())
        first = runner.run()
        second = runner.run()
        assert first.mean_power_watts == pytest.approx(second.mean_power_watts)

    def test_measurement_fields_serializable(self, quiet_config):
        result = run_experiment(quiet_config())
        as_json = json.dumps(result.as_dict())
        assert "power_watts" in as_json


class TestSweep:
    def test_sweep_configs_pattern_target(self, quiet_config):
        configs = sweep_configs(quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 0.5])
        assert [c.pattern_params["sparsity"] for c in configs] == [0.0, 0.5]

    def test_sweep_configs_config_target(self, quiet_config):
        configs = sweep_configs(quiet_config(), "dtype", ["fp16", "int8"], target="config")
        assert [c.dtype for c in configs] == ["fp16", "int8"]

    def test_sweep_configs_invalid_target(self, quiet_config):
        with pytest.raises(ExperimentError):
            sweep_configs(quiet_config(), "dtype", ["fp16"], target="bogus")

    def test_sweep_configs_empty_values(self, quiet_config):
        with pytest.raises(ExperimentError):
            sweep_configs(quiet_config(), "sparsity", [])

    def test_run_sweep_returns_aligned_results(self, quiet_config):
        sweep = run_sweep(
            quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 1.0], label="test sweep"
        )
        assert sweep.values == [0.0, 1.0]
        assert len(sweep.results) == 2
        assert sweep.powers()[1] < sweep.powers()[0]

    def test_run_configs_workers_serial_matches(self, quiet_config):
        configs = sweep_configs(quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 1.0])
        serial = run_configs(configs, workers=1)
        assert len(serial) == 2

    def test_run_configs_invalid_workers(self, quiet_config):
        with pytest.raises(ExperimentError):
            run_configs([quiet_config()], workers=0)


class TestResultContainers:
    def test_sweep_result_validation(self, quiet_config):
        result = run_experiment(quiet_config())
        with pytest.raises(ExperimentError):
            SweepResult(parameter="x", values=[1, 2], results=[result])
        with pytest.raises(ExperimentError):
            SweepResult(parameter="x", values=[], results=[])

    def test_sweep_helpers(self, quiet_config):
        sweep = run_sweep(
            quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 0.5, 1.0]
        )
        assert len(sweep.energies()) == 3
        assert len(sweep.runtimes()) == 3
        assert len(sweep.activity_factors()) == 3
        assert 0.0 <= sweep.power_range_fraction() < 1.0
        assert sweep.relative_powers()[0] == pytest.approx(1.0)

    def test_sweep_rendering(self, quiet_config):
        sweep = run_sweep(quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 1.0])
        table = sweep.render_table()
        chart = sweep.render_chart()
        assert "power_W" in table
        assert "power_W" in chart

    def test_experiment_result_requires_measurements(self):
        with pytest.raises(ExperimentError):
            ExperimentResult(config={}, measurements=[])

    def test_figure_result_panels(self, quiet_config):
        sweep = run_sweep(quiet_config(pattern_family="sparsity"), "sparsity", [0.0, 1.0])
        figure = FigureResult(name="figX", description="test figure")
        figure.add_panel("panel", sweep)
        assert figure.panel("panel") is sweep
        with pytest.raises(ExperimentError):
            figure.add_panel("panel", sweep)
        with pytest.raises(ExperimentError):
            figure.panel("missing")
        rendered = figure.render()
        assert "figX" in rendered and "panel" in rendered

    def test_figure_result_save_json(self, quiet_config, tmp_path):
        sweep = run_sweep(quiet_config(pattern_family="sparsity"), "sparsity", [0.0])
        figure = FigureResult(name="figY", description="serialization test")
        figure.add_panel("only", sweep)
        path = figure.save_json(tmp_path / "figY.json")
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "figY"
        assert "only" in loaded["panels"]
