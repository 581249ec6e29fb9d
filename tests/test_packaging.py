"""Packaging and CI-pipeline consistency checks."""

from __future__ import annotations

import shutil
import subprocess
import tomllib
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPyproject:
    def test_exists_and_parses(self):
        path = REPO_ROOT / "pyproject.toml"
        assert path.exists(), "setup.py refers to pyproject.toml; it must exist"
        data = tomllib.loads(path.read_text())
        assert data["project"]["name"] == "repro-gpu-power"

    def test_version_single_source(self):
        """The dynamic version attribute must resolve to repro.__version__."""
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert "version" in data["project"]["dynamic"]
        attr = data["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "repro._version.__version__"
        from repro._version import __version__

        assert repro.__version__ == __version__

    def test_numpy_dependency_declared(self):
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert any(dep.startswith("numpy") for dep in data["project"]["dependencies"])

    def test_pytest_config_targets_tier1_suite(self):
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert data["tool"]["pytest"]["ini_options"]["testpaths"] == ["tests"]

    def test_ruff_config_present(self):
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert "ruff" in data["tool"]


class TestWorkflow:
    def test_ci_workflow_exists(self):
        path = REPO_ROOT / ".github" / "workflows" / "ci.yml"
        assert path.exists()
        text = path.read_text()
        # tier-1 command, benchmark smoke (with timing artifact) and lint
        # gates must all be wired.
        assert "python -m pytest -x -q" in text
        assert "bench_engine_performance.py" in text
        assert "--benchmark-json" in text
        assert "upload-artifact" in text
        assert "ruff check" in text
        assert "examples/quickstart.py" in text
        assert "perfbench/test_perfbench.py" in text
        assert "perfbench/run.py --workload paper_cold" in text


class TestRepositoryHygiene:
    def test_no_bytecode_is_tracked(self):
        if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
            pytest.skip("not a git checkout")
        listed = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True, text=True
        )
        if listed.returncode != 0:
            pytest.skip("not a git checkout")
        tracked = [
            path
            for path in listed.stdout.splitlines()
            if path.endswith(".pyc") or "__pycache__/" in path
        ]
        assert tracked == []
