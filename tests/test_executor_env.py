"""One executor surface for the entry points that run on their own.

The fleet CLI, the optimize CLI and the estimation server all take their
pool width from ``REPRO_PARALLEL_WORKERS`` and their backend from ``auto``
(steered by ``REPRO_PARALLEL_BACKEND``).  Their old per-subsystem names
(``repro._deprecated.RENAMED_ENV``) still work for one release: each warns
once, names its replacement and keeps its old effect.
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
from repro._deprecated import RENAMED_ENV
from repro.errors import ExperimentError
from repro.parallel import ENV_BACKEND, ENV_WORKERS, executor_defaults
from repro.serve.service import ServiceConfig

DATA = Path(__file__).resolve().parent / "data"


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


#: entry point -> (its old name prefix, a runner returning (backend, workers))
ENTRY_POINTS = {
    "fleet": ("REPRO_FLEET_", _run_fleet),
    "optimize": ("REPRO_OPT_", _run_optimize),
    "serve": ("REPRO_SERVE_", _run_serve),
}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in (ENV_BACKEND, ENV_WORKERS, *RENAMED_ENV):
        monkeypatch.delenv(name, raising=False)


def _quietly(run, monkeypatch, argv=()):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(monkeypatch, argv)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEntryPoints:
    def test_defaults_are_auto_and_one_worker_without_warnings(self, entry, monkeypatch):
        assert _quietly(ENTRY_POINTS[entry][1], monkeypatch) == ("auto", 1)

    def test_parallel_workers_reaches_the_entry_point(self, entry, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert _quietly(ENTRY_POINTS[entry][1], monkeypatch) == ("auto", 3)

    @pytest.mark.parametrize(
        "suffix, value, expected",
        [("BACKEND", "serial", ("serial", 1)), ("WORKERS", "3", ("auto", 3))],
    )
    def test_old_name_warns_once_and_keeps_its_effect(
        self, entry, suffix, value, expected, monkeypatch
    ):
        prefix, run = ENTRY_POINTS[entry]
        old = prefix + suffix
        monkeypatch.setenv(old, value)
        # The old name beats the new one in its own subsystem.
        monkeypatch.setenv(ENV_WORKERS, "2" if suffix == "WORKERS" else "1")
        with pytest.warns(DeprecationWarning) as record:
            assert run(monkeypatch) == expected
        messages = [str(w.message) for w in record if old in str(w.message)]
        assert len(messages) == 1
        assert RENAMED_ENV[old] in messages[0]

    def test_other_subsystems_old_names_are_ignored(self, entry, monkeypatch):
        prefix = ENTRY_POINTS[entry][0]
        for old in RENAMED_ENV:
            if not old.startswith(prefix):
                monkeypatch.setenv(old, "serial" if old.endswith("BACKEND") else "4")
        assert _quietly(ENTRY_POINTS[entry][1], monkeypatch) == ("auto", 1)

    def test_old_backend_name_set_to_processes_runs_on_threads(self, entry, monkeypatch):
        prefix, run = ENTRY_POINTS[entry]
        old = prefix + "BACKEND"
        monkeypatch.setenv(old, "processes")
        with pytest.warns(DeprecationWarning) as record:
            assert run(monkeypatch) == ("threads", 1)
        messages = [str(w.message) for w in record]
        assert len([m for m in messages if old in m]) == 1
        assert len([m for m in messages if "backend='processes'" in m]) == 1


@pytest.mark.parametrize("entry", ["fleet", "optimize"])
def test_processes_flag_warns_once_and_runs_on_threads(entry, monkeypatch):
    with pytest.warns(DeprecationWarning) as record:
        assert ENTRY_POINTS[entry][1](monkeypatch, ["--backend", "processes"]) == ("threads", 1)
    assert ["backend='processes'" in str(w.message) for w in record] == [True]


@pytest.mark.parametrize("entry", ["fleet", "optimize"])
def test_flags_beat_every_environment_name(entry, monkeypatch):
    prefix, run = ENTRY_POINTS[entry]
    monkeypatch.setenv(prefix + "BACKEND", "processes")
    monkeypatch.setenv(prefix + "WORKERS", "abc")
    monkeypatch.setenv(ENV_WORKERS, "abc")
    with pytest.warns(DeprecationWarning):
        assert run(monkeypatch, ["--backend", "auto", "--workers", "2"]) == ("auto", 2)


class TestMalformedValues:
    @pytest.mark.parametrize("raw", ["0", "-2", "1.5", "abc"])
    def test_workers_must_be_a_positive_integer(self, raw):
        with pytest.raises(ExperimentError, match=f"{ENV_WORKERS} must be an integer >= 1"):
            executor_defaults("FLEET", environ={ENV_WORKERS: raw})

    def test_backend_is_read_from_the_mapping(self):
        assert executor_defaults("FLEET", environ={ENV_BACKEND: "serial"}) == ("serial", 1)
        with pytest.raises(ExperimentError, match=f"{ENV_BACKEND} must be one of"):
            executor_defaults("OPT", environ={ENV_BACKEND: "bogus"})

    def test_blank_values_mean_unset(self):
        blank = {name: "  " for name in (ENV_WORKERS, *RENAMED_ENV)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert executor_defaults("SERVE", environ=blank) == ("auto", 1)

    @pytest.mark.parametrize(
        "cli, argv",
        [(fleet_cli, ["simulate", "--help"]), (optimize_cli, ["run", "--help"])],
    )
    @pytest.mark.parametrize(
        "name", ["REPRO_FLEET_WORKERS", "REPRO_OPT_WORKERS", ENV_WORKERS]
    )
    def test_help_works_whatever_the_environment_holds(self, cli, argv, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", ["fleet", "optimize"])
    @pytest.mark.parametrize("suffix", ["WORKERS", None])
    def test_cli_reports_a_malformed_name_as_an_error(self, entry, suffix, monkeypatch, capsys):
        prefix = ENTRY_POINTS[entry][0]
        name = prefix + suffix if suffix else ENV_WORKERS
        monkeypatch.setenv(name, "abc")
        cli = fleet_cli if entry == "fleet" else optimize_cli
        argv = (
            ["simulate", str(DATA / "fleet_golden_trace.json")]
            if entry == "fleet"
            else ["run", str(DATA / "optimize_study.json")]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be an integer")

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_SERVE_MAX_PENDING", "many"),
            ("REPRO_SERVE_TIMEOUT_S", "nan"),
            ("REPRO_SERVE_WORKERS", "abc"),
            ("REPRO_SERVE_BACKEND", "bogus"),
            (ENV_WORKERS, "abc"),
            (ENV_BACKEND, "bogus"),
        ],
    )
    def test_serve_reports_a_malformed_name_as_an_error(self, name, raw, monkeypatch, capsys):
        def must_not_start(*args, **kwargs):
            raise AssertionError("the server started despite a malformed environment")

        monkeypatch.setattr(serve_server, "EstimationServer", must_not_start)
        monkeypatch.setenv(name, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert serve_cli.main(["--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
