"""One executor surface for the entry points that run on their own.

The fleet CLI, the optimize CLI and the estimation server all take their
pool width from ``REPRO_PARALLEL_WORKERS`` and their backend from ``auto``
(steered by ``REPRO_PARALLEL_BACKEND``).  The per-subsystem names they
used to read (``REPRO_FLEET_BACKEND``, ``REPRO_SERVE_WORKERS``, ...) were
removed in 1.2.0 and are not read any more.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.fleet.__main__ as fleet_cli
import repro.optimize.__main__ as optimize_cli
import repro.serve.__main__ as serve_cli
import repro.serve.server as serve_server
from repro.errors import ExperimentError
from repro.parallel import ENV_BACKEND, ENV_WORKERS, executor_defaults
from repro.serve.service import ServiceConfig

DATA = Path(__file__).resolve().parent / "data"

#: The per-subsystem executor names removed in 1.2.0.
REMOVED_NAMES = tuple(
    f"REPRO_{subsystem}_{knob}"
    for subsystem in ("FLEET", "OPT", "SERVE")
    for knob in ("BACKEND", "WORKERS")
)


class _FakeResult:
    def render(self) -> str:
        return "fake result"

    def summary(self) -> dict:
        return {}


def _run_fleet(monkeypatch, argv=()):
    seen = {}

    def fake_simulate(trace, fleet, *, workers, backend):
        seen.update(backend=backend, workers=workers)
        return _FakeResult()

    monkeypatch.setattr(fleet_cli, "simulate", fake_simulate)
    args = ["simulate", str(DATA / "fleet_golden_trace.json"), "--gpus", "a100:2", *argv]
    assert fleet_cli.main(args) == 0
    return seen["backend"], seen["workers"]


def _run_optimize(monkeypatch, argv=()):
    seen = {}

    def fake_build_runner(study, *, workers, backend, **kwargs):
        seen.update(backend=backend, workers=workers)
        return SimpleNamespace(run=lambda max_evaluations=None: _FakeResult())

    monkeypatch.setattr(optimize_cli, "build_runner", fake_build_runner)
    assert optimize_cli.main(["run", "study.json", *argv]) == 0
    return seen["backend"], seen["workers"]


def _run_serve(monkeypatch, argv=()):
    config = ServiceConfig.from_env()
    return config.backend, config.workers


#: entry point -> a runner returning (backend, workers)
ENTRY_POINTS = {"fleet": _run_fleet, "optimize": _run_optimize, "serve": _run_serve}

#: CLI entry point -> (its main, the argv of a real run)
CLIS = {
    "fleet": (fleet_cli, ["simulate", str(DATA / "fleet_golden_trace.json")]),
    "optimize": (optimize_cli, ["run", str(DATA / "optimize_study.json")]),
}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in (ENV_BACKEND, ENV_WORKERS, *REMOVED_NAMES):
        monkeypatch.delenv(name, raising=False)


def _quietly(run, monkeypatch, argv=()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(monkeypatch, argv)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEntryPoints:
    def test_defaults_are_auto_and_one_worker_without_warnings(self, entry, monkeypatch):
        assert _quietly(ENTRY_POINTS[entry], monkeypatch) == ("auto", 1)

    def test_parallel_workers_reaches_the_entry_point(self, entry, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert _quietly(ENTRY_POINTS[entry], monkeypatch) == ("auto", 3)

    # Each value once changed what its old name's subsystem ran on.
    @pytest.mark.parametrize(
        "suffix, value", [("BACKEND", "serial"), ("BACKEND", "processes"), ("WORKERS", "3")]
    )
    def test_removed_names_are_ignored(self, entry, suffix, value, monkeypatch):
        for name in REMOVED_NAMES:
            if name.endswith(suffix):
                monkeypatch.setenv(name, value)
        assert _quietly(ENTRY_POINTS[entry], monkeypatch) == ("auto", 1)


@pytest.mark.parametrize("entry", sorted(CLIS))
def test_flags_beat_every_environment_name(entry, monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "bogus")
    monkeypatch.setenv(ENV_WORKERS, "abc")
    run = ENTRY_POINTS[entry]
    assert _quietly(run, monkeypatch, ["--backend", "auto", "--workers", "2"]) == ("auto", 2)


class TestMalformedValues:
    @pytest.mark.parametrize("raw", ["0", "-2", "1.5", "abc"])
    def test_workers_must_be_a_positive_integer(self, raw):
        with pytest.raises(ExperimentError, match=f"{ENV_WORKERS} must be an integer >= 1"):
            executor_defaults(environ={ENV_WORKERS: raw})

    def test_backend_is_read_from_the_mapping(self):
        assert executor_defaults(environ={ENV_BACKEND: "serial"}) == ("serial", 1)
        with pytest.raises(ExperimentError, match=f"{ENV_BACKEND} must be one of"):
            executor_defaults(environ={ENV_BACKEND: "bogus"})

    def test_blank_values_mean_unset(self):
        blank = {ENV_BACKEND: "  ", ENV_WORKERS: "  "}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert executor_defaults(environ=blank) == ("auto", 1)

    @pytest.mark.parametrize(
        "cli, argv",
        [(fleet_cli, ["simulate", "--help"]), (optimize_cli, ["run", "--help"])],
    )
    @pytest.mark.parametrize("name", [ENV_BACKEND, ENV_WORKERS])
    def test_help_works_whatever_the_environment_holds(self, cli, argv, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert "--workers" in capsys.readouterr().out

    # "processes" names the process backend removed in 1.2.0.
    @pytest.mark.parametrize("entry", sorted(CLIS))
    @pytest.mark.parametrize(
        "environ, flags, message",
        [
            ({ENV_WORKERS: "abc"}, [], f"error: {ENV_WORKERS} must be an integer"),
            ({}, ["--backend", "processes"], "error: backend must be one of"),
            ({ENV_BACKEND: "processes"}, [], f"error: {ENV_BACKEND} must be one of"),
        ],
        ids=["workers", "backend-flag", "backend-env"],
    )
    def test_cli_reports_a_malformed_value_as_an_error(
        self, entry, environ, flags, message, monkeypatch, capsys
    ):
        for name, raw in environ.items():
            monkeypatch.setenv(name, raw)
        cli, argv = CLIS[entry]
        assert cli.main([*argv, *flags]) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_SERVE_MAX_PENDING", "many"),
            ("REPRO_SERVE_TIMEOUT_S", "nan"),
            (ENV_WORKERS, "abc"),
            (ENV_BACKEND, "bogus"),
            (ENV_BACKEND, "processes"),
        ],
    )
    def test_serve_reports_a_malformed_name_as_an_error(self, name, raw, monkeypatch, capsys):
        def must_not_start(*args, **kwargs):
            raise AssertionError("the server started despite a malformed environment")

        monkeypatch.setattr(serve_server, "EstimationServer", must_not_start)
        monkeypatch.setenv(name, raw)
        assert serve_cli.main(["--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
