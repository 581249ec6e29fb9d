"""Tests for the stable public façade (repro.api) and top-level exports."""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro import api
from repro.core import EstimationPipeline
from repro.experiments import ExperimentRunner


class TestExports:
    def test_every_declared_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_lazy_submodules_resolve_to_modules(self):
        import types

        import repro

        # ``repro.serve`` must stay the module — a same-named function at
        # the top level would shadow ``python -m repro.serve``.
        assert isinstance(repro.api, types.ModuleType)
        assert isinstance(repro.core, types.ModuleType)
        assert isinstance(repro.serve, types.ModuleType)
        assert callable(repro.serve.serve)
        for name in ("api", "core", "serve"):
            assert name in repro.__all__
            assert name in dir(repro)

    def test_unknown_top_level_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_symbol

    def test_facade_symbols_are_the_real_objects(self):
        from repro.core import estimate_experiment
        from repro.experiments.config import ExperimentConfig
        from repro.serve.server import serve
        from repro.serve.service import ServiceConfig

        assert api.ExperimentConfig is ExperimentConfig
        assert api.estimate_experiment is estimate_experiment
        assert api.serve is serve
        assert api.ServiceConfig is ServiceConfig


class TestKeywordOnlyContracts:
    def test_run_experiment_rejects_positional_caches(self, quiet_config):
        with pytest.raises(TypeError):
            api.run_experiment(quiet_config(), None)

    def test_run_configs_rejects_positional_workers(self, quiet_config):
        with pytest.raises(TypeError):
            api.run_configs([quiet_config()], 2)

    def test_run_sweep_rejects_positional_tuning(self, quiet_config):
        with pytest.raises(TypeError):
            api.run_sweep(quiet_config(), "matrix_size", [128, 160], "config")


class TestFacadeEquivalence:
    def test_run_experiment_matches_harness(self, quiet_config):
        from repro.experiments.harness import run_experiment as harness_run

        config = quiet_config()
        facade = api.run_experiment(config, cache=None, activity_cache=None)
        direct = harness_run(config, cache=None, activity_cache=None)
        assert facade.as_dict() == direct.as_dict()

    def test_run_configs_matches_sweep(self, quiet_config):
        from repro.experiments.sweep import run_configs as sweep_run

        configs = [quiet_config(), quiet_config(matrix_size=160)]
        facade = api.run_configs(configs, cache=None, activity_cache=None)
        direct = sweep_run(configs, cache=None, activity_cache=None)
        assert [r.as_dict() for r in facade] == [r.as_dict() for r in direct]

    def test_run_sweep_matches_sweep(self, quiet_config):
        from repro.experiments.sweep import run_sweep as sweep_run

        base = quiet_config()
        facade = api.run_sweep(
            base,
            "matrix_size",
            [128, 160],
            target="config",
            cache=None,
            activity_cache=None,
        )
        direct = sweep_run(
            base,
            "matrix_size",
            [128, 160],
            target="config",
            cache=None,
            activity_cache=None,
        )
        assert [r.as_dict() for r in facade.results] == [
            r.as_dict() for r in direct.results
        ]

    def test_default_caches_is_peek(self):
        from repro.cache.store import peek_default_caches

        assert api.default_caches() == peek_default_caches()


class TestConfigWireFormat:
    def test_from_dict_round_trips_describe_fields(self, quiet_config):
        from repro.experiments.config import ExperimentConfig

        config = quiet_config(label="wire")
        rebuilt = ExperimentConfig.from_dict(config.describe())
        for field_name in config.describe():
            assert getattr(rebuilt, field_name) == getattr(config, field_name), field_name

    def test_from_dict_nested_sub_configs(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.from_dict(
            {
                "matrix_size": 96,
                "sampling": {"output_samples": 32},
                "telemetry": {"noise_std_watts": 0.0, "drift_watts": 0.0},
            }
        )
        assert config.matrix_size == 96
        assert config.sampling.output_samples == 32
        assert config.telemetry.noise_std_watts == 0.0

    def test_from_dict_rejects_unknown_fields(self):
        from repro.errors import ExperimentError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ExperimentError) as excinfo:
            ExperimentConfig.from_dict({"matrix_sise": 96})
        assert "matrix_sise" in str(excinfo.value)

    def test_from_dict_rejects_bad_sub_config_fields(self):
        from repro.errors import ExperimentError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ExperimentError):
            ExperimentConfig.from_dict({"sampling": {"output_sample": 32}})
        with pytest.raises(ExperimentError):
            ExperimentConfig.from_dict({"matrix_size": "not-a-number"})


# ------------------------------------------------------- plan tier shims


def _study(config) -> dict:
    return {
        "format": "repro.optimize.study/v1",
        "engine": "random",
        "engine_params": {"seed": 0, "batch_size": 2, "rounds": 1},
        "space": [{"name": "sparsity", "low": 0.0, "high": 0.9}],
        "base_config": {
            "pattern_family": "sparsity",
            "matrix_size": config.matrix_size,
            "seeds": 1,
            "iterations": 200,
            "sampling": {"output_samples": 64},
            "telemetry": {"noise_std_watts": 0.0, "drift_watts": 0.0},
        },
        "objective": {"metric": "mean_power_watts", "mode": "min"},
    }


def _fleet(config, **kwargs):
    from repro.fleet import FleetSpec, Trace, TraceJob, WorkloadSpec

    trace = Trace(
        name="shim",
        tick_s=60.0,
        workloads={"w": WorkloadSpec(matrix_size=config.matrix_size, iterations=200)},
        jobs=(TraceJob(arrival_tick=0, tenant="a", workload="w", kernels=10),),
    )
    return api.simulate_fleet(
        trace,
        FleetSpec.from_counts({"a100": 1}),
        cache=None,
        activity_cache=None,
        estimation_overrides={"telemetry": config.telemetry, "sampling": config.sampling},
        **kwargs,
    ).summary()


#: Every public entry point that kept ``plan_cache=`` for its deprecation
#: release, as ``config, **kwargs -> comparable output``.
_PLAN_CACHE_ENTRY_POINTS = {
    "api.run_experiment": lambda config, **kw: api.run_experiment(
        config, cache=None, activity_cache=None, **kw
    ).as_dict(),
    "api.run_sweep": lambda config, **kw: [
        r.as_dict()
        for r in api.run_sweep(
            config, "matrix_size", [128, 160], target="config",
            cache=None, activity_cache=None, **kw,
        ).results
    ],
    "api.simulate_fleet": _fleet,
    "api.optimize": lambda config, **kw: api.optimize(
        _study(config), cache=None, activity_cache=None, **kw
    ).summary(),
    "core.EstimationPipeline": lambda config, **kw: EstimationPipeline(
        config, activity_cache=None, **kw
    ).run().as_dict(),
    "core.estimate_experiment": lambda config, **kw: api.estimate_experiment(
        config, activity_cache=None, **kw
    ).as_dict(),
    "experiments.ExperimentRunner": lambda config, **kw: ExperimentRunner(
        config, activity_cache=None, **kw
    ).run().as_dict(),
}


class TestPlanCacheDeprecation:
    """The plan tier is gone; its public spellings survive one release."""

    @pytest.fixture
    def legacy_plan_cache(self):
        with pytest.warns(DeprecationWarning, match="PlanCache"):
            return api.PlanCache(max_entries=8)

    @pytest.fixture
    def run_batch(self, backend):
        """Run a batch of configs on each backend and return its documents."""

        def inner(configs, **kwargs):
            results = api.run_configs(
                configs,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
                **kwargs,
            )
            return [result.as_dict() for result in results]

        return inner

    def test_run_configs_warns_and_is_bit_for_bit(
        self, run_batch, quiet_config, legacy_plan_cache
    ):
        configs = [quiet_config(seeds=2), quiet_config(matrix_size=160)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silent = run_batch(configs, plan_cache=None)
        with pytest.warns(DeprecationWarning, match="plan_cache="):
            warned = run_batch(configs, plan_cache=legacy_plan_cache)
        assert warned == silent

    @pytest.mark.parametrize("entry", sorted(_PLAN_CACHE_ENTRY_POINTS))
    def test_entry_point_warns_and_is_bit_for_bit(
        self, entry, quiet_config, legacy_plan_cache
    ):
        run = _PLAN_CACHE_ENTRY_POINTS[entry]
        config = quiet_config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silent = run(config, plan_cache=None)
        with pytest.warns(DeprecationWarning, match="plan_cache=") as caught:
            warned = run(config, plan_cache=legacy_plan_cache)
        assert warned == silent
        # The warning names the caller's line, not the library internals.
        assert all(w.filename == __file__ for w in caught)

    def test_build_plan_cache_keyword_warns(self, quiet_config, legacy_plan_cache):
        from repro.experiments.plan import build_plan

        config = quiet_config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silent = build_plan(config, cache=None).describe()
        with pytest.warns(DeprecationWarning, match="cache="):
            warned = build_plan(config, cache=legacy_plan_cache).describe()
        assert warned == silent

    def test_constructors_warn(self, legacy_plan_cache):
        from repro.optimize.engines import OptimizationRunner, ParameterSpace, get_engine
        from repro.serve import EstimationService

        with pytest.warns(DeprecationWarning, match="plan_cache="):
            EstimationService(plan_cache=legacy_plan_cache)
        space = ParameterSpace.from_dict([{"name": "x", "low": 0.0, "high": 1.0}])
        engine = get_engine("random")(space)
        with pytest.warns(DeprecationWarning, match="plan_cache="):
            OptimizationRunner(engine, lambda point: 0.0, plan_cache=legacy_plan_cache)

    def test_every_public_plan_cache_keyword_defaults_to_none(self):
        import importlib

        for package in (
            "repro",
            "repro.api",
            "repro.core",
            "repro.experiments",
            "repro.fleet",
            "repro.optimize",
            "repro.optimize.engines",
            "repro.serve",
        ):
            module = importlib.import_module(package)
            for name in module.__all__:
                target = getattr(module, name)
                if not callable(target) or inspect.ismodule(target):
                    continue
                try:
                    parameters = inspect.signature(target).parameters
                except (TypeError, ValueError):
                    continue
                if "plan_cache" in parameters:
                    assert parameters["plan_cache"].default is None, f"{package}.{name}"

    @pytest.mark.parametrize("module_name", ["repro", "repro.api", "repro.experiments"])
    def test_removed_handles_warn_and_stay_inert(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert "PlanCache" not in module.__all__
        assert "get_default_plan_cache" not in module.__all__
        with pytest.warns(DeprecationWarning, match="get_default_plan_cache"):
            accessor = module.get_default_plan_cache
        assert accessor() is None
        with pytest.warns(DeprecationWarning, match="PlanCache"):
            module.PlanCache(max_entries=4)
        with pytest.raises(AttributeError):
            module.NO_SUCH_NAME


class TestDiskBackendDeprecation:
    """SQLite is the only disk layout; ``disk_backend=`` survives one release."""

    @pytest.mark.parametrize(
        "cache_cls, backend",
        [(api.ExperimentCache, "json"), (api.ActivityCache, "sqlite")],
    )
    def test_warns_once_and_round_trips_through_sqlite(
        self, tmp_path, quiet_config, cache_cls, backend
    ):
        from repro.cache.sqlite_store import DB_FILENAME, read_entries

        result = api.run_experiment(quiet_config(), cache=None, activity_cache=None)
        value = result if cache_cls is api.ExperimentCache else result.measurements[0].activity
        with pytest.warns(DeprecationWarning, match="disk_backend=") as caught:
            cache = cache_cls(disk_dir=tmp_path, disk_backend=backend)
        assert len(caught) == 1
        assert caught[0].filename == __file__  # names the caller's line
        cache.put("k", value)
        assert [key for key, _, _ in read_entries(tmp_path / DB_FILENAME)] == ["k"]
        assert list(tmp_path.glob("*.json")) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = cache_cls(disk_dir=tmp_path)
        assert reader.get("k").as_dict() == value.as_dict()
        assert reader.stats.disk_hits == 1

    @pytest.mark.parametrize("cache_cls", [api.ExperimentCache, api.ActivityCache])
    def test_none_is_silent(self, tmp_path, cache_cls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = cache_cls(disk_dir=tmp_path, disk_backend=None)
        assert "disk_backend" not in cache.describe_memory()
