"""The knob table: every ``REPRO_*`` variable is declared once in
:mod:`repro.env` and read through :func:`repro.env.read`.

The reader's rules (blank means unset, values are stripped, a malformed
value raises the knob's own error) are pinned here, together with the
knobs no other test reads: ``REPRO_SERVE_HOST``, ``REPRO_SERVE_PORT``
(from the environment and as ``--port``) and ``REPRO_OPT_SEED``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import socket
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.serve.__main__ as serve_cli
import repro.serve.server as serve_server
from repro import env
from repro._deprecated import RENAMED_ENV
from repro.errors import OptimizationError, ServingError
from repro.optimize.engines.runner import build_runner
from repro.serve.server import EstimationServer
from repro.serve.service import EstimationService

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestReader:
    def test_unset_and_blank_mean_the_default(self):
        for environ in ({}, {"REPRO_CACHE_MAX_ENTRIES": "  "}):
            assert env.read("REPRO_CACHE_MAX_ENTRIES", environ) == 128
            assert env.read("REPRO_CACHE_DIR", environ) is None

    def test_values_are_stripped_then_parsed(self):
        assert env.read("REPRO_PARALLEL_BACKEND", {"REPRO_PARALLEL_BACKEND": " Threads "}) == (
            "threads"
        )
        assert env.read("REPRO_CACHE_MAX_BYTES", {"REPRO_CACHE_MAX_BYTES": "1.5K"}) == 1536
        assert env.read("REPRO_SERVE_TIMEOUT_S", {"REPRO_SERVE_TIMEOUT_S": "2.5"}) == 2.5

    @pytest.mark.parametrize("raw, expected", [("0", False), ("1", True), ("no", True)])
    def test_no_cache_is_on_unless_zero(self, raw, expected):
        assert env.read("REPRO_NO_CACHE", {"REPRO_NO_CACHE": raw}) is expected
        assert env.read("REPRO_NO_CACHE", {}) is False

    def test_reads_the_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SEED", "9")
        assert env.read("REPRO_FLEET_SEED") == 9

    def test_undeclared_names_are_never_read(self):
        # perfbench still pins the inert REPRO_BATCH_CHUNK_BUDGET.
        with pytest.raises(KeyError, match="REPRO_BATCH_CHUNK_BUDGET"):
            env.read("REPRO_BATCH_CHUNK_BUDGET", {"REPRO_BATCH_CHUNK_BUDGET": "1"})

    @pytest.mark.parametrize(
        "name", [name for name, knob in env.KNOBS.items() if knob.rule in ("integer", "number")]
    )
    def test_malformed_number_raises_the_knobs_error(self, name):
        with pytest.raises(env.KNOBS[name].error, match=f"^{name} must be "):
            env.read(name, {name: "abc"})

    @pytest.mark.parametrize(
        "name, raw", [("REPRO_PARALLEL_WORKERS", "0"), ("REPRO_CACHE_RETRIES", "-1")]
    )
    def test_bounds_are_checked(self, name, raw):
        with pytest.raises(env.KNOBS[name].error, match=f"{name} must be an integer >= "):
            env.read(name, {name: raw})

    def test_a_flag_is_named_in_its_own_error(self):
        with pytest.raises(ServingError, match="^--port must be an integer in 0..65535"):
            env.parse("REPRO_SERVE_PORT", "http", "--port")

    def test_table_declares_the_deprecated_names_with_their_replacements(self):
        deprecated = {name: knob.replaced_by for name, knob in env.KNOBS.items() if knob.replaced_by}
        assert deprecated == RENAMED_ENV
        assert all(new in env.KNOBS for new in deprecated.values())


def _bind_address(monkeypatch, argv=()):
    """The ``(host, port)`` ``python -m repro.serve`` would listen on."""
    seen = {}

    def fake_server(service, host, port):
        seen.update(host=host, port=port)
        return SimpleNamespace()

    async def no_serving(server, announce):
        return None

    monkeypatch.setattr(serve_server, "EstimationServer", fake_server)
    monkeypatch.setattr(serve_server, "_serve_async", no_serving)
    assert serve_cli.main(["--quiet", *argv]) == 0
    return seen["host"], seen["port"]


@pytest.fixture
def serve_env(monkeypatch):
    for name in ("REPRO_SERVE_HOST", "REPRO_SERVE_PORT"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestServeHost:
    def test_default(self, serve_env):
        assert _bind_address(serve_env)[0] == "127.0.0.1"

    def test_override_and_flag(self, serve_env):
        serve_env.setenv("REPRO_SERVE_HOST", "0.0.0.0")
        assert _bind_address(serve_env)[0] == "0.0.0.0"
        assert _bind_address(serve_env, ["--host", "localhost"])[0] == "localhost"

    def test_unbindable_host_fails_typed(self, serve_env, capsys):
        # 192.0.2.0/24 is reserved for documentation: no local interface
        # holds it, so bind() fails locally, before any packet is sent.
        serve_env.setenv("REPRO_SERVE_HOST", "192.0.2.1")
        serve_env.setenv("REPRO_SERVE_PORT", "0")
        assert serve_cli.main(["--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot listen on 192.0.2.1:0")


class TestServePort:
    def test_default(self, serve_env):
        assert _bind_address(serve_env)[1] == 8035

    def test_override_and_flag(self, serve_env):
        serve_env.setenv("REPRO_SERVE_PORT", " 9000 ")
        assert _bind_address(serve_env)[1] == 9000
        assert _bind_address(serve_env, ["--port", "9001"])[1] == 9001
        # 0 picks a free port: the benchmark's server child relies on it.
        assert _bind_address(serve_env, ["--port", "0"])[1] == 0

    @pytest.mark.parametrize("raw", ["abc", "-1", "70000"])
    def test_malformed_variable_fails_typed(self, serve_env, capsys, raw):
        serve_env.setenv("REPRO_SERVE_PORT", raw)
        with pytest.raises(ServingError, match="REPRO_SERVE_PORT must be an integer in 0..65535"):
            env.read("REPRO_SERVE_PORT")
        assert serve_cli.main(["--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: REPRO_SERVE_PORT must be an integer in 0..65535, got '{raw}'"
        )

    @pytest.mark.parametrize("raw", ["abc", "-1", "70000"])
    def test_malformed_flag_fails_typed(self, serve_env, capsys, raw):
        assert serve_cli.main(["--quiet", "--port", raw]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: --port must be an integer in 0..65535, got '{raw}'"
        )

    def test_port_zero_serves_on_a_free_port(self):
        """``python -m repro.serve --port 0`` as the benchmark runs it: the
        banner names the port picked, and ``POST /shutdown`` stops it."""
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        child_env = {
            **{k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "REPRO_NO_CACHE": "1",
        }
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = json.loads(server.stdout.readline())
            host, port = banner["listening"].removeprefix("http://").rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            connection = http.client.HTTPConnection(host, int(port), timeout=30)
            connection.request("POST", "/shutdown")
            assert connection.getresponse().status == 200
            connection.close()
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
            server.communicate()

    def test_library_port_out_of_range_fails_typed(self):
        server = EstimationServer(EstimationService(), host="127.0.0.1", port=70000)
        with pytest.raises(ServingError, match="cannot listen on 127.0.0.1:70000"):
            asyncio.run(server.start())

    def test_port_in_use_fails_typed(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            server = EstimationServer(EstimationService(), host="127.0.0.1", port=port)
            with pytest.raises(ServingError, match=f"cannot listen on 127.0.0.1:{port}"):
                asyncio.run(server.start())


STUDY = {
    "format": "repro.optimize.study/v1",
    "engine": "random",
    "engine_params": {"rounds": 1, "batch_size": 2},
    "space": [{"name": "sparsity", "low": 0.0, "high": 0.9}],
    "base_config": {"pattern_family": "sparsity", "matrix_size": 64},
}


class TestOptSeed:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPT_SEED", raising=False)
        assert build_runner(STUDY, cache=None, activity_cache=None).engine.seed == 0

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_SEED", "7")
        assert build_runner(STUDY, cache=None, activity_cache=None).engine.seed == 7
        # A study's own seed beats the variable.
        study = {**STUDY, "engine_params": {**STUDY["engine_params"], "seed": 3}}
        assert build_runner(study, cache=None, activity_cache=None).engine.seed == 3

    def test_malformed_fails_typed(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_SEED", "1.5")
        with pytest.raises(OptimizationError, match="REPRO_OPT_SEED must be an integer"):
            build_runner(STUDY, cache=None, activity_cache=None)
