"""Property suite over every wire format that :mod:`repro.wire` decodes.

Two properties per format:

* a document written by ``as_dict`` (or the format's writer) decodes back
  to the same value;
* a document with one field replaced by junk raises the format's
  :class:`~repro.errors.ReproError` subclass, and the message names the
  field's path.  Junk is a wrong type, NaN or ±inf, a bool or float in a
  count, the string ``"false"`` in a flag, an unknown key, or a missing
  required key.

The junk sites are enumerated from the declarations themselves: each
dataclass's fields, annotations and ``_wire`` options, walked alongside
the document.
"""

from __future__ import annotations

import collections.abc
import copy
import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.activity.report import ActivityReport
from repro.activity.sampler import SamplingConfig
from repro.errors import ExperimentError, FleetError, OptimizationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult, SeedMeasurement
from repro.fleet.attribution import EnergyAttribution
from repro.fleet.scheduler import CapEvent, FleetSpec
from repro.fleet.simulator import FleetResult
from repro.fleet.trace import Trace, generate_mixed_trace
from repro.optimize.engines import (
    ConfigObjective,
    Constraint,
    Dimension,
    OptimizationResult,
    OptimizationRunner,
    ParameterSpace,
    RandomRefineEngine,
    build_runner,
    load_study,
)
from repro.optimize.engines.runner import _Checkpoint, _Study, _StudyObjective
from repro.telemetry import TelemetryConfig

# ------------------------------------------------------------- junk sites

#: Values no field of the annotated type accepts (``None`` is dropped for
#: optional fields).
SCALAR_JUNK = {
    int: [2.5, 3.0, True, "3", None],
    float: [math.nan, math.inf, -math.inf, True, "0.5", None],
    bool: ["false", 0, 1, None],
    str: [5, True, None],
}
CONTAINER_JUNK = [5, "x", True]
UNKNOWN_KEY = "zz_unknown"


@dataclass(frozen=True)
class Site:
    """One junk edit: where, what, and the text the error must contain."""

    keys: tuple
    action: str  # "set" | "delete" | "add"
    value: Any
    names: str

    def apply(self, document: Any) -> Any:
        document = copy.deepcopy(document)
        parent = document
        for key in self.keys[:-1]:
            parent = parent[key]
        last = self.keys[-1]
        if self.action == "delete":
            del parent[last]
        else:
            parent[last] = self.value
        return document


def _unwrap_optional(tp: Any) -> "tuple[Any, bool]":
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in args:
        return next(arg for arg in args if arg is not type(None)), True
    return tp, False


def sites(tp: Any, value: Any, keys: tuple, path: str, overrides: dict) -> "list[Site]":
    """Every junk edit of ``value`` (decoded as ``tp``) and the path it names."""
    tp, optional = _unwrap_optional(tp)
    if tp is Any:
        return []
    if tp in SCALAR_JUNK:
        return [
            Site(keys, "set", junk, path)
            for junk in SCALAR_JUNK[tp]
            if not (junk is None and optional)
        ]
    found = [Site(keys, "set", junk, path) for junk in CONTAINER_JUNK] if keys else []
    if value is None:
        return found
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        declared = getattr(tp, "_wire", None) or wire.Wire()
        hints = typing.get_type_hints(tp)
        for field in dataclasses.fields(tp):
            key = declared.keys.get(field.name, field.name)
            if key not in value:
                continue
            field_type = overrides.get((tp, field.name), hints[field.name])
            if field.name in declared.convert:  # decoded as its wire annotation
                field_type = declared.convert[field.name][0]
            found += sites(field_type, value[key], keys + (key,), f"{path}.{key}", overrides)
            if field.default is field.default_factory is dataclasses.MISSING:
                found.append(Site(keys + (key,), "delete", None, f"{path}.{key} is required"))
        if declared.tag is not None:
            tag = declared.tag[0]
            found.append(Site(keys + (tag,), "set", "bogus/v0", f"{path}.{tag}"))
            if not declared.tag_optional:
                found.append(Site(keys + (tag,), "delete", None, f"{path}.{tag} is required"))
        if not declared.ignore_unknown:
            found.append(
                Site(keys + (UNKNOWN_KEY,), "add", 1, f"unknown {path} field(s): {UNKNOWN_KEY}")
            )
    elif origin in (list, tuple) or tp in (list, tuple):
        item = args[0] if args else Any
        for index, entry in enumerate(value):
            found += sites(item, entry, keys + (index,), f"{path}[{index}]", overrides)
    elif origin in (dict, collections.abc.Mapping) or tp is dict:
        item = args[1] if args else Any
        for key, entry in value.items():
            found += sites(item, entry, keys + (key,), f"{path}.{key}", overrides)
    return found


# ------------------------------------------------------------- formats


@dataclass(frozen=True)
class Format:
    name: str
    root: Any
    path: str
    error: type
    documents: Any
    decode: Callable[[Any], Any]
    #: ``(document, decoded) -> bool``: the decoded value is the original
    round_trips: Callable[[Any, Any], bool]
    overrides: dict = dataclasses.field(default_factory=dict)


def _json(document: Any) -> Any:
    return json.loads(json.dumps(document))


FAMILIES = [
    ("gaussian", {"mean": 0.0, "std": 210.0}),
    ("sparsity", {"sparsity": 0.5}),
    ("value_set", {"set_size": 16}),
]


@st.composite
def configs(draw) -> ExperimentConfig:
    family, params = draw(st.sampled_from(FAMILIES))
    return ExperimentConfig(
        pattern_family=family,
        pattern_params=params,
        dtype=draw(st.sampled_from(["fp16_t", "fp32", "int8"])),
        matrix_size=draw(st.integers(8, 96)),
        transpose_b=draw(st.booleans()),
        seeds=draw(st.integers(1, 4)),
        base_seed=draw(st.integers(0, 2**31)),
        iterations=draw(st.integers(1, 5_000)),
        warmup_trim_s=draw(st.sampled_from([0.0, 0.5, 1.25])),
        include_process_variation=draw(st.booleans()),
        sampling=SamplingConfig(
            output_samples=draw(st.integers(1, 64)),
            max_k=draw(st.none() | st.integers(2, 64)),
        ),
        telemetry=TelemetryConfig(noise_std_watts=draw(st.floats(0.0, 2.0))),
        label=draw(st.sampled_from(["", "probe"])),
    )


config_documents = configs().map(lambda config: _json(dataclasses.asdict(config)))


@st.composite
def trace_documents(draw) -> dict:
    trace = generate_mixed_trace(
        ticks=draw(st.integers(1, 3)),
        tenants=("a", "b"),
        jobs_per_tick=1.5,
        distinct_workloads=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1_000)),
    )
    return _json(trace.as_dict())


@st.composite
def fleet_documents(draw) -> dict:
    a100 = draw(st.integers(1, 3))
    events = [
        CapEvent(
            tick=draw(st.integers(0, 20)),
            cap_watts=draw(st.none() | st.floats(50.0, 500.0)),
            gpus=draw(st.none() | st.just((0, a100))),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    fleet = FleetSpec.from_counts(
        {"a100": a100, "h100": draw(st.integers(1, 2))},
        cap_watts=draw(st.none() | st.floats(100.0, 400.0)),
        cap_events=events,
        include_idle_power=draw(st.booleans()),
    )
    return _json(fleet.as_dict())


@st.composite
def fleet_result_documents(draw) -> dict:
    horizon = draw(st.integers(0, 6))
    tick_s = draw(st.floats(1.0, 600.0))
    series = {
        tenant: np.asarray(draw(st.lists(st.floats(0.0, 900.0), min_size=horizon,
                                         max_size=horizon)), dtype=np.float64)
        for tenant in draw(st.lists(st.sampled_from(["a", "b", "(idle)"]), unique=True))
    }
    result = FleetResult(
        trace_name="probe",
        tick_s=tick_s,
        horizon_ticks=horizon,
        jobs=draw(st.integers(0, 50)),
        scheduled_kernels=draw(st.integers(0, 10**6)),
        distinct_configs=draw(st.integers(0, 8)),
        throttled_jobs=draw(st.integers(0, 50)),
        gpu_models={"a100": draw(st.integers(1, 4))},
        attribution=EnergyAttribution(tick_s, horizon, series),
        run_stats={"executed": draw(st.integers(0, 8))},
        metadata={"seed": 1},
    )
    return _json(result.as_dict())


unit_floats = st.floats(0.0, 2.0)


@st.composite
def result_rows(draw) -> dict:
    measurements = [
        SeedMeasurement(
            seed=seed,
            power_watts=draw(st.floats(50.0, 400.0)),
            unconstrained_power_watts=draw(st.floats(50.0, 500.0)),
            iteration_time_s=draw(st.floats(1e-6, 1e-2)),
            iteration_energy_j=draw(st.floats(1e-6, 1.0)),
            activity_factor=draw(unit_floats),
            throttled=draw(st.booleans()),
            clock_scale=draw(st.floats(0.5, 1.0)),
            activity=ActivityReport(
                *(draw(unit_floats) for _ in range(14)),
                dtype="fp16_t",
                shape=(64, 64, 64),
                output_samples=draw(st.integers(1, 192)),
            ),
        )
        for seed in range(draw(st.integers(1, 3)))
    ]
    config = draw(config_documents)
    return _json(ExperimentResult(config=config, measurements=measurements).as_dict())


def _callable_runner(seed: int, constraint: "Constraint | None") -> OptimizationRunner:
    space = ParameterSpace([Dimension(name="x", low=0.0, high=1.0)])
    return OptimizationRunner(
        RandomRefineEngine(space, seed=seed, batch_size=3, rounds=3),
        lambda point: (point["x"] - 0.3) ** 2,
        constraint=constraint,
    )


constraints = st.none() | st.builds(
    Constraint,
    metric=st.just("objective"),
    upper=st.floats(0.01, 0.5),
    mode=st.sampled_from(["penalty", "filter"]),
    weight=st.floats(1.0, 1e4),
)


@st.composite
def optimization_result_documents(draw) -> dict:
    runner = _callable_runner(draw(st.integers(0, 100)), draw(constraints))
    return _json(runner.run().as_dict())


@st.composite
def checkpoint_documents(draw) -> dict:
    runner = _callable_runner(draw(st.integers(0, 100)), draw(constraints))
    for _ in range(draw(st.integers(0, 3))):
        runner.step()
    document = _json(runner.checkpoint())
    # A config objective makes the checkpoint self-contained.
    base = draw(configs())
    document["objective"] = _json(
        ConfigObjective(base=base, metric="mean_iteration_time_s", mode="max").as_dict()
    )
    return document


@st.composite
def study_documents(draw) -> dict:
    constraint = draw(constraints)
    return {
        "format": "repro.optimize.study/v1",
        "description": "probe",
        "engine": "random",
        "engine_params": {"seed": draw(st.integers(0, 9)), "batch_size": 2, "rounds": 1},
        "space": [
            _json(Dimension(name="sparsity", low=0.0, high=draw(st.floats(0.1, 0.95))).as_dict())
        ],
        "base_config": draw(config_documents),
        "objective": {
            "metric": draw(st.sampled_from(["mean_power_watts", "mean_iteration_time_s"])),
            "mode": draw(st.sampled_from(["min", "max"])),
        },
        "constraint": None if constraint is None else _json(
            dataclasses.replace(constraint, metric="mean_power_watts").as_dict()
        ),
    }


def _study_round_trips(document: dict, runner: OptimizationRunner) -> bool:
    top_level = {key: value for key, value in document.items() if key != "format"}
    constraint = None if runner.constraint is None else runner.constraint.as_dict()
    return (
        load_study(document) == top_level
        and runner.space.as_dict() == document["space"]
        and runner.objective.base == ExperimentConfig.from_dict(document["base_config"])
        and {"metric": runner.objective.metric, "mode": runner.objective.mode}
        == document["objective"]
        and constraint == document["constraint"]
    )


FORMATS = [
    Format(
        "config", ExperimentConfig, "config", ExperimentError, config_documents,
        ExperimentConfig.from_dict,
        lambda doc, config: _json(dataclasses.asdict(config)) == doc,
    ),
    Format(
        "trace", Trace, "trace", FleetError, trace_documents(), Trace.from_dict,
        lambda doc, trace: trace.as_dict() == doc,
    ),
    Format(
        "fleet", FleetSpec, "fleet", FleetError, fleet_documents(), FleetSpec.from_dict,
        lambda doc, fleet: _json(fleet.as_dict()) == doc,
    ),
    Format(
        "fleet_result", FleetResult, "fleet result", FleetError, fleet_result_documents(),
        FleetResult.from_dict,
        lambda doc, result: _json(result.as_dict()) == doc,
    ),
    Format(
        "study", _Study, "study", OptimizationError, study_documents(),
        lambda doc: build_runner(doc, cache=None, activity_cache=None),
        _study_round_trips,
        {
            (_Study, "space"): list[Dimension],
            (_Study, "base_config"): ExperimentConfig,
            (_Study, "objective"): _StudyObjective,
            (_Study, "constraint"): Constraint | None,
        },
    ),
    Format(
        "checkpoint", _Checkpoint, "checkpoint", OptimizationError, checkpoint_documents(),
        lambda doc: OptimizationRunner.from_checkpoint(doc, cache=None, activity_cache=None),
        lambda doc, runner: _json(runner.checkpoint()) == doc,
        {(_Checkpoint, "objective"): ConfigObjective},
    ),
    Format(
        "optimize_result", OptimizationResult, "result", OptimizationError,
        optimization_result_documents(), OptimizationResult.from_dict,
        lambda doc, result: _json(result.as_dict()) == doc,
    ),
    Format(
        "result_row", ExperimentResult, "result", ExperimentError, result_rows(),
        ExperimentResult.from_dict,
        lambda doc, result: _json(result.as_dict()) == doc,
    ),
]


@pytest.mark.parametrize("fmt", FORMATS, ids=[fmt.name for fmt in FORMATS])
class TestWireFormats:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, fmt, data):
        document = data.draw(fmt.documents)
        assert fmt.round_trips(document, fmt.decode(document))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_junk_field_raises_typed_error_naming_its_path(self, fmt, data):
        document = data.draw(fmt.documents)
        site = data.draw(
            st.sampled_from(sites(fmt.root, document, (), fmt.path, fmt.overrides))
        )
        with pytest.raises(fmt.error) as excinfo:
            fmt.decode(site.apply(document))
        assert excinfo.type is fmt.error
        assert site.names in str(excinfo.value)


# ------------------------------------------------------------- probes


def _trace_with(**job_fields) -> dict:
    document = _json(generate_mixed_trace(ticks=2, tenants=("a",), seed=3).as_dict())
    document["jobs"][0].update(job_fields)
    return document


PROBES = [
    # (decode, payload, error, text the message must contain)
    (ExperimentConfig.from_dict, {"transpose_b": "no"}, ExperimentError, "config.transpose_b"),
    (ExperimentConfig.from_dict, {"include_process_variation": "false"}, ExperimentError,
     "config.include_process_variation"),
    (ExperimentConfig.from_dict, {"telemetry": 5}, ExperimentError, "config.telemetry"),
    (ExperimentConfig.from_dict, {"sampling": 5}, ExperimentError, "config.sampling"),
    (Dimension.from_dict, {"name": "x", "low": 0.0, "high": 1.0, "integer": "false"},
     OptimizationError, "dimension.integer"),
    (FleetSpec.from_dict, {"gpus": [{"model": "a100"}], "include_idle_power": "false"},
     FleetError, "fleet.include_idle_power"),
    (Trace.from_dict, _trace_with(kernels=2.5), FleetError, "trace.jobs[0].kernels"),
    (FleetSpec.from_dict,
     {"gpus": [{"model": "a100"}], "cap_events": [{"tick": 0, "cap_watts": 1.0, "gpus": [0.7]}]},
     FleetError, "fleet.cap_events[0].gpus[0]"),
    (FleetSpec.from_dict,
     {"gpus": [{"model": "a100"}], "cap_events": [{"tick": 0, "cap_watts": math.nan}]},
     FleetError, "fleet.cap_events[0].cap_watts"),
    (Constraint.from_dict, {"metric": "objective", "upper": 1.0, "weight": math.nan},
     OptimizationError, "constraint.weight"),
    (Constraint.from_dict, {"upper": 1.0}, OptimizationError, "constraint.metric is required"),
    (SeedMeasurement.from_dict, {"seed": 0}, ExperimentError, "measurement.power_watts"),
    (OptimizationResult.from_dict, {"format": "repro.optimize.result/v1"}, OptimizationError,
     "result.engine is required"),
    (lambda doc: Trace.from_dict({**_trace_with(), **doc}), {"tick_s": "0.5"}, FleetError,
     "trace.tick_s"),
]


@pytest.mark.parametrize("decode, payload, error, names", PROBES)
def test_malformed_payload_fails_typed_naming_the_field(decode, payload, error, names):
    with pytest.raises(error) as excinfo:
        decode(payload)
    assert excinfo.type is error
    assert names in str(excinfo.value)


def test_result_evaluations_must_be_a_count():
    document = _json(_callable_runner(0, None).run().as_dict())
    document["evaluations"] = 2.9
    with pytest.raises(OptimizationError, match=r"result\.evaluations must be an integer"):
        OptimizationResult.from_dict(document)


def test_evaluation_objective_null_is_infeasible_and_nan_is_rejected():
    from repro.optimize.engines import Evaluation

    assert Evaluation.from_dict({"point": {"x": 0.5}, "objective": None}).objective == math.inf
    with pytest.raises(OptimizationError, match=r"evaluation\.objective must be a finite"):
        Evaluation.from_dict({"point": {"x": 0.5}, "objective": math.nan})


def test_unsupported_annotation_is_a_programming_error():
    with pytest.raises(TypeError, match="no wire decoding"):
        wire.decode(set[int], [1], "x", ExperimentError)
