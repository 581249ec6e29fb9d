"""Tests for the repro.optimize.engines subsystem.

Covers the engine protocol properties the subsystem promises (analytic
convergence, monotone bracket shrinkage, bit-for-bit checkpoint/resume,
fixed-seed determinism), the runner's cache collapse and constraint
handling, the bisection-backed ``find_sparsity_for_cap`` equivalence
with the retired ad-hoc loop, the ``python -m repro.optimize`` CLI
(including ``--expect`` replay), and a chaos leg running an engine with
faulty disk caches.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.activity import SamplingConfig
from repro.cache.store import ActivityCache, ExperimentCache
from repro.errors import OptimizationError
from repro.experiments.config import ExperimentConfig
from repro.optimize.engines import (
    BisectionEngine,
    Constraint,
    Dimension,
    Evaluation,
    NelderMeadEngine,
    OptimizationResult,
    OptimizationRunner,
    ParameterSpace,
    RandomRefineEngine,
    engine_from_state,
    get_engine,
    list_engines,
    run_study,
)
from repro.optimize.__main__ import main as optimize_main
from repro.telemetry import TelemetryConfig

DATA_DIR = Path(__file__).parent / "data"


def quadratic(x0: float, y0: float):
    return lambda p: (p["x"] - x0) ** 2 + (p["y"] - y0) ** 2


def space_2d() -> ParameterSpace:
    return ParameterSpace(
        [
            Dimension(name="x", low=-2.0, high=2.0),
            Dimension(name="y", low=-2.0, high=2.0),
        ]
    )


def space_1d(low: float = 0.0, high: float = 1.0) -> ParameterSpace:
    return ParameterSpace([Dimension(name="x", low=low, high=high)])


def quiet_base() -> ExperimentConfig:
    return ExperimentConfig(
        pattern_family="sparsity",
        pattern_params={"sparsity": 0.0},
        matrix_size=128,
        seeds=1,
        iterations=200,
        sampling=SamplingConfig(output_samples=64),
        telemetry=TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0),
    )


def quiet_study(engine: str = "nelder_mead", **engine_params) -> dict:
    params = {"seed": 0, "max_iterations": 10} if engine == "nelder_mead" else {}
    params.update(engine_params)
    return {
        "format": "repro.optimize.study/v1",
        "engine": engine,
        "engine_params": params,
        "space": [{"name": "sparsity", "low": 0.0, "high": 0.95}],
        "base_config": {
            "pattern_family": "sparsity",
            "pattern_params": {"sparsity": 0.0},
            "matrix_size": 128,
            "seeds": 1,
            "iterations": 200,
            "sampling": {"output_samples": 64},
            "telemetry": {"noise_std_watts": 0.0, "drift_watts": 0.0},
        },
        "objective": {"metric": "mean_power_watts", "mode": "min"},
    }


def fresh_caches() -> dict:
    return {
        "cache": ExperimentCache(),
        "activity_cache": ActivityCache(),
    }


class TestRegistry:
    def test_all_three_engines_registered(self):
        assert list_engines() == ["bisection", "nelder_mead", "random"]

    def test_get_engine_unknown_raises(self):
        with pytest.raises(OptimizationError, match="unknown engine"):
            get_engine("gradient_descent")

    def test_engine_from_state_dispatches_on_name(self):
        engine = RandomRefineEngine(space_2d(), seed=5, rounds=2)
        rebuilt = engine_from_state(engine.state_dict())
        assert isinstance(rebuilt, RandomRefineEngine)
        assert rebuilt.propose() == engine.propose()


def _fresh_engines() -> "list":
    return [
        BisectionEngine(space_1d(), target=0.5),
        NelderMeadEngine(space_2d(), seed=1),
        RandomRefineEngine(space_2d(), seed=5, rounds=2),
    ]


#: A count field of each engine's checkpoint.
COUNT_FIELD = {"bisection": "max_iterations", "nelder_mead": "max_iterations", "random": "rounds"}


class TestCheckpointDecoding:
    """Checkpoints decode through :mod:`repro.wire`: a mistyped field fails
    naming it instead of being coerced (``2.9`` used to resume as ``2``)."""

    @pytest.mark.parametrize("value", [2.9, True])
    @pytest.mark.parametrize("engine", _fresh_engines(), ids=lambda engine: engine.name)
    def test_a_mistyped_count_fails_naming_the_field(self, engine, value):
        field = COUNT_FIELD[engine.name]
        state = {**engine.state_dict(), field: value}
        with pytest.raises(
            OptimizationError, match=rf"^{engine.name} state\.{field} must be an integer"
        ):
            type(engine).from_state(state)

    @pytest.mark.parametrize("engine", _fresh_engines(), ids=lambda engine: engine.name)
    def test_unknown_and_missing_fields_fail(self, engine):
        state = engine.state_dict()
        with pytest.raises(OptimizationError, match="unknown .* field"):
            type(engine).from_state({**state, "iterations": 3})
        del state["space"]
        with pytest.raises(OptimizationError, match=r"state\.space is required"):
            type(engine).from_state(state)

    def test_nelder_mead_infinite_values_round_trip_as_null(self):
        """Infeasible points put ``inf`` in the simplex and in a contraction's
        reflection value; the checkpoint is strict JSON (``null``) and
        resumes on the same trajectory at every step."""

        def objective(p):
            return math.inf if p["x"] > 0.6 else (p["x"] - 0.5) ** 2 + (p["y"] + 0.5) ** 2

        engine = NelderMeadEngine(space_2d(), seed=1)
        infinite_value = infinite_reflection = False
        for _ in range(8):
            state = json.loads(json.dumps(engine.state_dict(), allow_nan=False))
            infinite_value |= None in state["values"]
            infinite_reflection |= state["reflection"] is not None and (
                state["reflection_value"] is None
            )
            resumed = NelderMeadEngine.from_state(state)
            assert resumed.state_dict() == engine.state_dict()
            proposals = engine.propose()
            assert resumed.propose() == proposals
            batch = [Evaluation(point=p, objective=objective(p)) for p in proposals]
            engine.ingest(batch)
            resumed.ingest(batch)
            assert resumed.propose() == engine.propose()
        assert infinite_value and infinite_reflection


class TestParameterSpace:
    def test_clip_rounds_and_bounds(self):
        space = ParameterSpace(
            [
                Dimension(name="sparsity", low=0.0, high=0.9),
                Dimension(name="matrix_size", low=64, high=512, target="matrix_size"),
            ]
        )
        clipped = space.clip({"sparsity": 1.5, "matrix_size": 127.4})
        assert clipped == {"sparsity": 0.9, "matrix_size": 127.0}

    def test_unknown_and_missing_dimensions_rejected(self):
        space = space_1d()
        with pytest.raises(OptimizationError, match="unknown dimension"):
            space.clip({"x": 0.5, "z": 1.0})
        with pytest.raises(OptimizationError, match="missing dimension"):
            space.clip({})

    def test_to_config_writes_pattern_params_and_fields(self):
        space = ParameterSpace(
            [
                Dimension(name="sparsity", low=0.0, high=0.9),
                Dimension(name="matrix_size", low=64, high=512, target="matrix_size"),
            ]
        )
        base = quiet_base()
        config = space.to_config({"sparsity": 0.25, "matrix_size": 256.0}, base)
        assert config.pattern_params["sparsity"] == 0.25
        assert config.matrix_size == 256
        assert isinstance(config.matrix_size, int)
        assert base.pattern_params["sparsity"] == 0.0  # base untouched

    def test_bad_target_rejected(self):
        with pytest.raises(OptimizationError, match="target"):
            Dimension(name="x", low=0.0, high=1.0, target="dtype")

    def test_round_trip(self):
        space = space_2d()
        assert ParameterSpace.from_dict(space.as_dict()).as_dict() == space.as_dict()


class TestNelderMead:
    @settings(max_examples=25, deadline=None)
    @given(
        x0=st.floats(-1.5, 1.5),
        y0=st.floats(-1.5, 1.5),
        seed=st.integers(0, 1_000),
    )
    # Regression: hard-clipping out-of-box proposals collapsed every
    # vertex onto the y=-2 face here, sticking the simplex one
    # dimension short of the interior optimum.
    @example(x0=1.0, y0=-1.0, seed=0)
    # Regression: a damped reflection followed by its expansion lands
    # exactly on x=-2, and the simplex collapsed onto that face and
    # reported convergence at objective 0.25.
    @example(x0=-1.5, y0=0.0, seed=689)
    # Regression: the first damped reflection flattened the simplex into a
    # needle that crawled toward the optimum until max_iterations.
    @example(x0=-1.5, y0=0.0, seed=772)
    def test_converges_to_analytic_optimum(self, x0, y0, seed):
        engine = NelderMeadEngine(space_2d(), seed=seed, max_iterations=200, xtol=1e-4)
        result = OptimizationRunner(engine, quadratic(x0, y0)).run()
        assert result.converged
        assert result.best_objective == pytest.approx(0.0, abs=1e-3)
        assert result.best_point["x"] == pytest.approx(x0, abs=0.05)
        assert result.best_point["y"] == pytest.approx(y0, abs=0.05)

    def test_fixed_seed_is_deterministic(self):
        results = [
            OptimizationRunner(
                NelderMeadEngine(space_2d(), seed=11, max_iterations=40),
                quadratic(0.3, -0.7),
            ).run()
            for _ in range(2)
        ]
        assert results[0].summary() == results[1].summary()
        assert [r.as_dict() for r in results[0].iterations] == [
            r.as_dict() for r in results[1].iterations
        ]

    def test_different_seeds_differ(self):
        proposals = {
            json.dumps(NelderMeadEngine(space_2d(), seed=seed).propose())
            for seed in range(4)
        }
        assert len(proposals) == 4

    @settings(max_examples=15, deadline=None)
    @given(interrupt=st.integers(1, 30), seed=st.integers(0, 100))
    def test_checkpoint_resume_bit_for_bit(self, interrupt, seed):
        objective = quadratic(-0.4, 0.9)
        straight = OptimizationRunner(
            NelderMeadEngine(space_2d(), seed=seed, max_iterations=40), objective
        )
        reference = straight.run()

        resumed_runner = OptimizationRunner(
            NelderMeadEngine(space_2d(), seed=seed, max_iterations=40), objective
        )
        for _ in range(interrupt):
            if resumed_runner.step() is None:
                break
        # JSON round-trip the checkpoint: what resume would read from disk.
        payload = json.loads(json.dumps(resumed_runner.checkpoint()))
        resumed = OptimizationRunner.from_checkpoint(payload, objective=objective).run()
        assert resumed.summary() == reference.summary()
        assert [r.as_dict() for r in resumed.iterations] == [
            r.as_dict() for r in reference.iterations
        ]

    def test_initial_point_is_respected(self):
        engine = NelderMeadEngine(space_2d(), initial_point={"x": 0.5, "y": 0.5})
        first = engine.propose()[0]
        assert first == {"x": 0.5, "y": 0.5}

    def test_ingest_out_of_order_rejected(self):
        engine = NelderMeadEngine(space_2d(), seed=0)
        batch = engine.propose()
        wrong = [Evaluation(point={"x": 9.0, "y": 9.0}, objective=0.0)] * len(batch)
        with pytest.raises(OptimizationError, match="out of order"):
            engine.ingest(wrong)


class TestBisection:
    @settings(max_examples=40, deadline=None)
    @given(
        boundary=st.floats(0.05, 0.95),
        tolerance=st.floats(1e-4, 0.2),
    )
    def test_bracket_shrinks_monotonically_onto_boundary(self, boundary, tolerance):
        # f(x) = 1 - x is decreasing; f(x) <= target iff x >= 1 - target.
        target = 1.0 - boundary
        engine = BisectionEngine(
            space_1d(), target=target, tolerance=tolerance, max_iterations=60
        )
        runner = OptimizationRunner(engine, lambda p: 1.0 - p["x"])
        widths = [engine.bracket[1] - engine.bracket[0]]
        while runner.step() is not None:
            widths.append(engine.bracket[1] - engine.bracket[0])
        assert all(b <= a for a, b in zip(widths, widths[1:]))
        low, high = engine.bracket
        assert engine.feasible
        assert low <= boundary <= high + tolerance
        best_x = engine.best.point["x"]
        assert best_x >= boundary - 1e-12
        assert best_x - boundary <= max(tolerance, (1.0 - boundary) / 2**60) + 1e-12

    def test_trivial_end_feasible_stops_immediately(self):
        engine = BisectionEngine(space_1d(), target=2.0)
        runner = OptimizationRunner(engine, lambda p: 1.0 - p["x"])
        result = runner.run()
        assert result.evaluations == 1
        assert result.best_point == {"x": 0.0}
        assert result.best_feasible

    def test_infeasible_target_keeps_best_attempt(self):
        engine = BisectionEngine(space_1d(), target=-1.0)
        result = OptimizationRunner(engine, lambda p: 1.0 - p["x"]).run()
        assert result.evaluations == 2
        assert not result.best_feasible
        assert result.best_point == {"x": 1.0}  # the far (most feasible) end

    def test_increasing_direction(self):
        engine = BisectionEngine(
            space_1d(), target=0.5, direction="increasing", tolerance=1e-3
        )
        OptimizationRunner(engine, lambda p: p["x"]).run()
        assert engine.feasible
        assert engine.best.point["x"] == pytest.approx(0.5, abs=2e-3)

    def test_requires_one_dimension(self):
        with pytest.raises(OptimizationError, match="one-dimensional"):
            BisectionEngine(space_2d(), target=0.0)

    def test_checkpoint_resume_bit_for_bit(self):
        objective = lambda p: 1.0 - p["x"]  # noqa: E731
        straight = OptimizationRunner(
            BisectionEngine(space_1d(), target=0.33, tolerance=1e-3), objective
        ).run()
        runner = OptimizationRunner(
            BisectionEngine(space_1d(), target=0.33, tolerance=1e-3), objective
        )
        runner.step()
        runner.step()
        payload = json.loads(json.dumps(runner.checkpoint()))
        resumed = OptimizationRunner.from_checkpoint(payload, objective=objective).run()
        assert resumed.summary() == straight.summary()


class TestRandomRefine:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_refinement_never_worsens_and_lands_near_optimum(self, seed):
        engine = RandomRefineEngine(space_2d(), seed=seed, rounds=8, batch_size=16)
        runner = OptimizationRunner(engine, quadratic(0.5, -0.25))
        bests = []
        while runner.step() is not None:
            bests.append(engine.best.objective)
        assert bests == sorted(bests, reverse=True)
        assert bests[-1] < 0.05

    def test_fixed_seed_is_deterministic(self):
        runs = [
            OptimizationRunner(
                RandomRefineEngine(space_2d(), seed=9, rounds=3), quadratic(0.0, 0.0)
            ).run()
            for _ in range(2)
        ]
        assert runs[0].summary() == runs[1].summary()

    def test_grid_mode_covers_box_corners(self):
        engine = RandomRefineEngine(space_2d(), mode="grid", batch_size=4, rounds=1)
        points = engine.propose()
        xs = {p["x"] for p in points}
        ys = {p["y"] for p in points}
        assert xs == {-2.0, 2.0} and ys == {-2.0, 2.0}

    def test_checkpoint_resume_bit_for_bit(self):
        objective = quadratic(1.0, 1.0)
        straight = OptimizationRunner(
            RandomRefineEngine(space_2d(), seed=4, rounds=5), objective
        ).run()
        runner = OptimizationRunner(
            RandomRefineEngine(space_2d(), seed=4, rounds=5), objective
        )
        runner.step()
        runner.step()
        payload = json.loads(json.dumps(runner.checkpoint()))
        resumed = OptimizationRunner.from_checkpoint(payload, objective=objective).run()
        assert resumed.summary() == straight.summary()


class TestRunner:
    def test_config_objective_warm_replay_executes_zero_engine_runs(self):
        caches = fresh_caches()
        cold = run_study(quiet_study(), **caches)
        assert cold.engine_runs > 0
        warm = run_study(quiet_study(), **caches)
        assert warm.engine_runs == 0
        assert warm.cache_hits == warm.evaluations
        assert warm.summary() == cold.summary()

    def test_run_stats_recorded_per_iteration(self):
        result = run_study(quiet_study(), **fresh_caches())
        assert result.iterations
        for record in result.iterations:
            stats = record.run_stats
            assert set(stats) == {"total", "unique", "cache_hits", "executed"}
            assert stats["total"] == len(record.proposals)

    def test_real_objective_prefers_sparser_point(self):
        # T12: power decreases with sparsity, so the optimum is the
        # sparsest corner of the box.
        result = run_study(quiet_study(), **fresh_caches())
        assert result.converged
        assert result.best_point["sparsity"] == pytest.approx(0.95)

    def test_constraint_penalty_steers_engine(self):
        constraint = Constraint(metric="objective", lower=0.5, mode="penalty", weight=10.0)
        runner = OptimizationRunner(
            NelderMeadEngine(space_1d(), seed=0, max_iterations=60, xtol=1e-4),
            lambda p: p["x"],
            constraint=constraint,
        )
        result = runner.run()
        # Unconstrained optimum is x=0; the lower bound pushes it to 0.5.
        assert result.best_metrics["objective"] == pytest.approx(0.5, abs=0.02)

    def test_constraint_filter_marks_infeasible_as_null(self):
        constraint = Constraint(metric="objective", lower=0.5, mode="filter")
        runner = OptimizationRunner(
            RandomRefineEngine(space_1d(), seed=1, rounds=2, batch_size=8),
            lambda p: p["x"],
            constraint=constraint,
        )
        result = runner.run()
        flattened = [
            (obj, feas)
            for record in result.iterations
            for obj, feas in zip(record.objectives, record.feasible)
        ]
        assert any(not feas for _, feas in flattened)
        for obj, feas in flattened:
            if not feas:
                assert obj == float("inf")
        payload = json.loads(json.dumps(result.as_dict()))
        for record in payload["iterations"]:
            for obj, feas in zip(record["objectives"], record["feasible"]):
                if not feas:
                    assert obj is None  # inf serializes as null

    def test_callable_objective_rejects_metric_constraints(self):
        with pytest.raises(OptimizationError, match="objective"):
            OptimizationRunner(
                NelderMeadEngine(space_1d(), seed=0),
                lambda p: p["x"],
                constraint=Constraint(metric="mean_power_watts", upper=1.0),
            )

    def test_config_objective_checkpoint_is_self_contained(self, tmp_path):
        caches = fresh_caches()
        straight = run_study(quiet_study(), **caches)
        from repro.optimize.engines import build_runner

        runner = build_runner(quiet_study(), **caches)
        runner.step()
        ckpt = tmp_path / "ckpt.json"
        runner.save_checkpoint(ckpt)
        resumed = OptimizationRunner.from_checkpoint(ckpt, **caches).run()
        assert resumed.summary() == straight.summary()

    def test_unknown_study_fields_rejected(self):
        study = quiet_study()
        study["objectivee"] = {}
        with pytest.raises(OptimizationError, match="unknown study field"):
            run_study(study, **fresh_caches())

    def test_misspelled_objective_field_rejected(self):
        study = quiet_study()
        study["objective"] = {"metirc": "mean_iteration_time_s"}
        with pytest.raises(OptimizationError, match="unknown study.objective field"):
            run_study(study, **fresh_caches())

    def test_non_finite_constraint_weight_rejected(self):
        with pytest.raises(OptimizationError, match="weight must be a finite number"):
            Constraint(metric="objective", upper=1.0, weight=float("nan"))

    def test_result_json_round_trip(self, tmp_path):
        result = run_study(quiet_study(), **fresh_caches())
        path = result.save_json(tmp_path / "result.json")
        loaded = OptimizationResult.load(path)
        assert loaded.summary() == result.summary()
        assert loaded.as_dict() == result.as_dict()


class TestPowerCappingEquivalence:
    """The bisection-backed search must match the retired ad-hoc loop."""

    @staticmethod
    def legacy_loop(activations, weights, power_cap_watts, max_sparsity=0.95,
                    tolerance=0.01, max_iterations=12):
        """Inline replica of the pre-engine find_sparsity_for_cap loop."""
        from repro.optimize.estimation import quick_power_estimate
        from repro.optimize.sparsity_design import magnitude_prune

        weights = np.asarray(weights, dtype=np.float64)
        activations = np.asarray(activations, dtype=np.float64)
        baseline = quick_power_estimate(activations, weights)

        def evaluate(sparsity):
            mask = magnitude_prune(weights, sparsity)
            pruned = np.where(mask, weights, 0.0)
            return quick_power_estimate(activations, pruned), pruned

        if baseline.power_watts <= power_cap_watts:
            return (0.0, True, baseline.power_watts, 0.0)
        max_estimate, max_pruned = evaluate(max_sparsity)
        denom = float(np.linalg.norm(weights)) or 1.0
        if max_estimate.power_watts > power_cap_watts:
            return (
                max_sparsity, False, max_estimate.power_watts,
                float(np.linalg.norm(max_pruned - weights)) / denom,
            )
        low, high = 0.0, max_sparsity
        best_estimate, best_pruned, best_sparsity = max_estimate, max_pruned, max_sparsity
        for _ in range(max_iterations):
            mid = 0.5 * (low + high)
            estimate, pruned = evaluate(mid)
            if estimate.power_watts <= power_cap_watts:
                best_estimate, best_pruned, best_sparsity = estimate, pruned, mid
                high = mid
            else:
                low = mid
            if high - low <= tolerance:
                break
        return (
            float(best_sparsity), True, best_estimate.power_watts,
            float(np.linalg.norm(best_pruned - weights)) / denom,
        )

    def test_bit_for_bit_across_cap_regimes(self, rng):
        from repro.optimize.estimation import quick_power_estimate
        from repro.optimize.power_capping import find_sparsity_for_cap

        activations = rng.normal(size=(48, 48))
        weights = rng.normal(size=(48, 48))
        dense = quick_power_estimate(activations, weights).power_watts
        for fraction in (1.1, 0.98, 0.9, 0.6, 0.3, 0.01):
            cap = dense * fraction
            want = self.legacy_loop(activations, weights, cap)
            plan = find_sparsity_for_cap(activations, weights, cap)
            got = (plan.sparsity, plan.feasible, plan.capped.power_watts, plan.relative_error)
            assert got == want, f"divergence at cap fraction {fraction}"


class TestCli:
    def test_run_out_history_and_expect(self, tmp_path, capsys):
        study_path = DATA_DIR / "optimize_study.json"
        golden = DATA_DIR / "optimize_golden_summary.json"
        out = tmp_path / "result.json"

        assert optimize_main(
            ["run", str(study_path), "--no-cache", "--out", str(out),
             "--expect", str(golden)]
        ) == 0
        assert "replay OK" in capsys.readouterr().out
        assert out.exists()

        assert optimize_main(["history", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == json.loads(golden.read_text())

    def test_threads_flag_replays_the_golden_summary(self, capsys):
        study_path = DATA_DIR / "optimize_study.json"
        golden = DATA_DIR / "optimize_golden_summary.json"
        assert optimize_main(
            ["run", str(study_path), "--no-cache", "--backend", "threads",
             "--workers", "2", "--expect", str(golden)]
        ) == 0
        assert "replay OK" in capsys.readouterr().out

    def test_expect_mismatch_fails_with_diff(self, tmp_path, capsys):
        study_path = DATA_DIR / "optimize_study.json"
        wrong = json.loads((DATA_DIR / "optimize_golden_summary.json").read_text())
        wrong["best_objective"] = -1.0
        expect = tmp_path / "wrong.json"
        expect.write_text(json.dumps(wrong))
        assert optimize_main(
            ["run", str(study_path), "--no-cache", "--expect", str(expect)]
        ) == 1
        err = capsys.readouterr().err
        assert "replay MISMATCH" in err
        assert "best_objective" in err

    def test_interrupted_run_resumes_to_identical_summary(self, tmp_path, capsys):
        study_path = DATA_DIR / "optimize_study.json"
        golden = json.loads((DATA_DIR / "optimize_golden_summary.json").read_text())
        ckpt = tmp_path / "ckpt.json"
        # Interrupt after 3 evaluations, then resume from the checkpoint.
        assert optimize_main(
            ["run", str(study_path), "--no-cache", "--checkpoint", str(ckpt),
             "--max-evaluations", "3", "--json"]
        ) == 0
        partial = json.loads(capsys.readouterr().out)
        assert partial["evaluations"] <= golden["evaluations"]
        assert optimize_main(["resume", str(ckpt), "--no-cache", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == golden

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"format\": \"nope\"}")
        assert optimize_main(["run", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err
        assert optimize_main(["history", str(tmp_path / "missing.json")]) == 1


class TestChaos:
    @pytest.mark.parametrize("faults_seed", ["0", "20240817"])
    def test_engine_result_survives_cache_faults(self, tmp_path, monkeypatch, faults_seed):
        import repro.faults as faults

        reference = run_study(quiet_study(), cache=None, activity_cache=None)
        cache = ExperimentCache(disk_dir=tmp_path / "exp")
        activity_cache = ActivityCache(disk_dir=tmp_path / "act")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "cache.sqlite.read:busy@0.3;cache.sqlite.write:busy@0.3",
        )
        monkeypatch.setenv("REPRO_FAULTS_SEED", faults_seed)
        faults.reset()
        try:
            survived = run_study(
                quiet_study(), cache=cache, activity_cache=activity_cache
            )
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_FAULTS_SEED")
            faults.reset()
        # Faults degrade the disk tier, never the trajectory.
        assert survived.summary() == reference.summary()
