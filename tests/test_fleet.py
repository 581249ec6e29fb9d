"""Unit tests for :mod:`repro.fleet`: wire format, scheduler, CLI.

The property suite lives in ``tests/test_fleet_invariants.py`` and the
determinism/replay/cache-collapse harness in ``tests/test_fleet_replay.py``;
this file covers the deterministic single-case behaviour of each layer.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import FleetError
from repro.fleet import (
    CapEvent,
    DiscreteTimeScheduler,
    FleetGPU,
    FleetSpec,
    KernelEstimate,
    Trace,
    TraceJob,
    WorkloadSpec,
    generate_trace,
)
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.trace import TRACE_FORMAT, default_fleet_seed
from repro.gpu.specs import get_gpu_spec

def small_trace(**overrides) -> Trace:
    fields = dict(
        name="unit",
        tick_s=60.0,
        workloads={
            "w1": WorkloadSpec(matrix_size=128, iterations=500),
            "w2": WorkloadSpec(dtype="fp32", matrix_size=128, iterations=500),
        },
        jobs=(
            TraceJob(arrival_tick=0, tenant="a", workload="w1", kernels=100),
            TraceJob(arrival_tick=0, tenant="b", workload="w2", kernels=100),
            TraceJob(arrival_tick=2, tenant="a", workload="w2", kernels=50),
        ),
    )
    fields.update(overrides)
    return Trace(**fields)


def synthetic_estimates(
    trace: Trace, fleet: FleetSpec, power: float = 150.0, base_time: float = 0.05
) -> "dict[tuple[str, str], KernelEstimate]":
    return {
        (workload, model): KernelEstimate(
            workload=workload,
            gpu_model=model,
            unconstrained_power_watts=power,
            base_iteration_time_s=base_time,
            spec=get_gpu_spec(model),
        )
        for workload in trace.workloads
        for model in fleet.models()
    }


class TestWorkloadSpec:
    def test_invalid_dtype_rejected_at_build_time(self):
        with pytest.raises(FleetError, match="invalid workload"):
            WorkloadSpec(dtype="nope")

    def test_invalid_pattern_rejected_at_build_time(self):
        with pytest.raises(FleetError, match="invalid workload"):
            WorkloadSpec(pattern_family="not-a-pattern")

    def test_to_config_carries_workload_axes(self):
        spec = WorkloadSpec(
            pattern_family="sparsity",
            pattern_params={"sparsity": 0.5},
            dtype="fp32",
            matrix_size=192,
            iterations=1234,
        )
        config = spec.to_config(gpu="h100")
        assert config.pattern_family == "sparsity"
        assert config.pattern_params == {"sparsity": 0.5}
        assert config.dtype == "fp32"
        assert config.matrix_size == 192
        assert config.iterations == 1234
        assert config.gpu == "h100"

    def test_round_trip(self):
        spec = WorkloadSpec(pattern_family="value_set", pattern_params={"set_size": 8})
        assert WorkloadSpec.from_dict(spec.as_dict()) == spec


class TestTraceWireFormat:
    def test_round_trip(self):
        trace = small_trace()
        assert Trace.from_dict(trace.as_dict()).as_dict() == trace.as_dict()

    def test_unknown_top_level_field_rejected(self):
        payload = small_trace().as_dict()
        payload["surprise"] = 1
        with pytest.raises(FleetError, match="surprise"):
            Trace.from_dict(payload)

    def test_unknown_job_field_rejected(self):
        payload = small_trace().as_dict()
        payload["jobs"][0]["gpu"] = "a100"
        with pytest.raises(FleetError, match="gpu"):
            Trace.from_dict(payload)

    def test_unknown_workload_field_rejected(self):
        payload = small_trace().as_dict()
        payload["workloads"]["w1"]["priority"] = 3
        with pytest.raises(FleetError, match="priority"):
            Trace.from_dict(payload)

    def test_wrong_format_tag_rejected(self):
        payload = small_trace().as_dict()
        payload["format"] = "repro.fleet.trace/v999"
        with pytest.raises(FleetError, match="format"):
            Trace.from_dict(payload)

    def test_job_referencing_missing_workload_rejected(self):
        with pytest.raises(FleetError, match="undeclared workload"):
            small_trace(
                jobs=(TraceJob(arrival_tick=0, tenant="a", workload="ghost"),)
            )

    def test_save_and_load(self, tmp_path):
        trace = small_trace()
        path = trace.save_json(tmp_path / "t.json")
        loaded = Trace.load(path)
        assert loaded.as_dict() == trace.as_dict()
        assert json.loads(path.read_text())["format"] == TRACE_FORMAT


class TestGenerators:
    @pytest.mark.parametrize("kind", ["diurnal", "training", "mixed"])
    def test_same_seed_same_trace(self, kind):
        first = generate_trace(kind, ticks=6, seed=11)
        second = generate_trace(kind, ticks=6, seed=11)
        assert first.as_dict() == second.as_dict()

    @pytest.mark.parametrize("kind", ["diurnal", "training", "mixed"])
    def test_different_seed_different_jobs(self, kind):
        first = generate_trace(kind, ticks=12, seed=1)
        second = generate_trace(kind, ticks=12, seed=2)
        assert first.as_dict() != second.as_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetError, match="unknown trace kind"):
            generate_trace("surprise")

    def test_mixed_catalogue_bound(self):
        with pytest.raises(FleetError, match="distinct_workloads"):
            generate_trace("mixed", distinct_workloads=10_000)

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SEED", "42")
        assert default_fleet_seed() == 42
        assert (
            generate_trace("diurnal", ticks=4).as_dict()
            == generate_trace("diurnal", ticks=4, seed=42).as_dict()
        )

    def test_seed_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SEED", "not-a-number")
        with pytest.raises(FleetError, match="REPRO_FLEET_SEED"):
            default_fleet_seed()


class TestFleetSpec:
    def test_from_counts_and_models(self):
        fleet = FleetSpec.from_counts({"a100": 2, "h100": 1})
        assert len(fleet) == 3
        assert fleet.model_counts() == {"a100": 2, "h100": 1}
        assert list(fleet.models()) == ["a100", "h100"]

    def test_unknown_gpu_model_rejected(self):
        with pytest.raises(FleetError):
            FleetSpec.from_counts({"tpu9000": 1})

    def test_power_limit_defaults_to_tdp(self):
        fleet = FleetSpec.from_counts({"a100": 1})
        tdp = get_gpu_spec("a100").tdp_watts
        assert fleet.power_limit_at(0, 0) == tdp

    def test_cap_events_last_one_at_or_before_tick_wins(self):
        fleet = FleetSpec.from_counts(
            {"a100": 1},
            cap_events=[
                CapEvent(tick=5, cap_watts=200.0),
                CapEvent(tick=10, cap_watts=None),
            ],
        )
        tdp = get_gpu_spec("a100").tdp_watts
        assert fleet.power_limit_at(0, 0) == tdp
        assert fleet.power_limit_at(5, 0) == 200.0
        assert fleet.power_limit_at(9, 0) == 200.0
        assert fleet.power_limit_at(10, 0) == tdp

    def test_cap_event_gpu_subset(self):
        fleet = FleetSpec.from_counts(
            {"a100": 2}, cap_events=[CapEvent(tick=0, cap_watts=100.0, gpus=(1,))]
        )
        tdp = get_gpu_spec("a100").tdp_watts
        assert fleet.power_limit_at(0, 0) == tdp
        assert fleet.power_limit_at(0, 1) == 100.0

    def test_cap_never_exceeds_tdp(self):
        fleet = FleetSpec.from_counts({"a100": 1}, cap_watts=5000.0)
        assert fleet.power_limit_at(0, 0) == get_gpu_spec("a100").tdp_watts

    def test_round_trip(self):
        fleet = FleetSpec.from_counts(
            {"a100": 2, "h100": 1},
            cap_watts=250.0,
            cap_events=[CapEvent(tick=3, cap_watts=120.0)],
        )
        assert FleetSpec.from_dict(fleet.as_dict()).as_dict() == fleet.as_dict()

    @pytest.mark.parametrize("cap_watts", [float("nan"), float("inf")])
    def test_non_finite_gpu_cap_rejected(self, cap_watts):
        with pytest.raises(FleetError, match="cap_watts must be a finite number"):
            FleetGPU(model="a100", cap_watts=cap_watts)

    def test_non_finite_cap_event_rejected(self):
        with pytest.raises(FleetError, match="cap_watts must be a finite number"):
            CapEvent(tick=0, cap_watts=float("nan"))

    def test_fractional_cap_event_gpu_rejected(self):
        # int() would have truncated 0.7 to GPU 0.
        with pytest.raises(FleetError, match=r"gpus\[0\] must be an integer, got 0.7"):
            CapEvent(tick=0, cap_watts=100.0, gpus=(0.7,))

    def test_cap_event_bad_gpu_index_rejected(self):
        with pytest.raises(FleetError):
            FleetSpec.from_counts(
                {"a100": 1}, cap_events=[CapEvent(tick=0, cap_watts=100.0, gpus=(7,))]
            )


class TestScheduler:
    def test_jobs_placed_in_arrival_order_without_overlap(self):
        trace = small_trace()
        fleet = FleetSpec.from_counts({"a100": 1})
        schedule = DiscreteTimeScheduler(fleet).schedule(
            trace, synthetic_estimates(trace, fleet)
        )
        assert len(schedule.placements) == 3
        spans = sorted(
            (p.start_tick, p.end_tick) for p in schedule.placements
        )
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end

    def test_cap_resolves_to_throttled_slower_jobs(self):
        trace = small_trace()
        uncapped_fleet = FleetSpec.from_counts({"a100": 1})
        capped_fleet = FleetSpec.from_counts({"a100": 1}, cap_watts=100.0)
        estimates = synthetic_estimates(
            trace, uncapped_fleet, power=150.0, base_time=1.0
        )
        free = DiscreteTimeScheduler(uncapped_fleet).schedule(trace, estimates)
        capped = DiscreteTimeScheduler(capped_fleet).schedule(trace, estimates)
        assert free.throttled_jobs == 0
        assert capped.throttled_jobs == 3
        assert capped.horizon_ticks > free.horizon_ticks
        for placement in capped.placements:
            assert placement.throttled
            assert placement.power_watts <= 100.0 + 1e-9
            assert placement.clock_scale < 1.0

    def test_missing_estimate_raises(self):
        trace = small_trace()
        fleet = FleetSpec.from_counts({"a100": 1})
        with pytest.raises(FleetError, match="no estimate"):
            DiscreteTimeScheduler(fleet).schedule(trace, {})

    def test_empty_trace_empty_schedule(self):
        trace = small_trace(jobs=())
        fleet = FleetSpec.from_counts({"a100": 2})
        schedule = DiscreteTimeScheduler(fleet).schedule(trace, {})
        assert list(schedule.placements) == []
        assert schedule.horizon_ticks == 0


class TestCli:
    def test_generate_simulate_summarize(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        result_path = tmp_path / "result.json"
        assert (
            fleet_main(
                [
                    "generate-trace",
                    "--kind",
                    "mixed",
                    "--seed",
                    "5",
                    "--ticks",
                    "4",
                    "--out",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert trace_path.exists()
        capsys.readouterr()
        assert (
            fleet_main(
                [
                    "simulate",
                    str(trace_path),
                    "--gpus",
                    "a100:2",
                    "--out",
                    str(result_path),
                    "--json",
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"] > 0
        assert result_path.exists()
        assert fleet_main(["summarize", str(result_path), "--json"]) == 0
        resummarized = json.loads(capsys.readouterr().out)
        assert resummarized["jobs"] > 0
        assert fleet_main(["summarize", str(trace_path)]) == 0
        assert "workloads" in capsys.readouterr().out

    def test_expect_matches_and_mismatches(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        golden_path = tmp_path / "golden.json"
        fleet_main(
            ["generate-trace", "--kind", "training", "--seed", "3", "--ticks", "3",
             "--out", str(trace_path)]
        )
        capsys.readouterr()
        fleet_main(["simulate", str(trace_path), "--gpus", "a100:1", "--json"])
        summary = json.loads(capsys.readouterr().out)
        golden_path.write_text(json.dumps(summary))
        assert (
            fleet_main(
                ["simulate", str(trace_path), "--gpus", "a100:1",
                 "--expect", str(golden_path), "--json"]
            )
            == 0
        )
        capsys.readouterr()
        # A different fleet must fail the replay check.
        assert (
            fleet_main(
                ["simulate", str(trace_path), "--gpus", "a100:2",
                 "--expect", str(golden_path), "--json"]
            )
            == 1
        )
        assert "MISMATCH" in capsys.readouterr().err

    def test_bad_gpus_spec_is_an_error_not_a_traceback(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        fleet_main(
            ["generate-trace", "--kind", "training", "--seed", "1", "--ticks", "2",
             "--out", str(trace_path)]
        )
        capsys.readouterr()
        assert fleet_main(["simulate", str(trace_path), "--gpus", ":3"]) == 1
        assert "error:" in capsys.readouterr().err
