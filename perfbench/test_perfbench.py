"""The benchmark's own tests, at smoke size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from support import ROOT, WORKLOAD_NAMES

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload, not only the ones BENCHMARK.json gates on.
WORKLOADS = list(WORKLOAD_NAMES)


def run_benchmark(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> "dict[tuple[str, int], dict]":
    return {
        (workload, trace): result_of(run_benchmark(workload, trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_exact_counts_repeat_across_runs(results):
    # Each traced run measures every layer group afresh, so two workloads'
    # traced runs are two independent runs of the same layer trace.
    first = results[("paper_cold", 1)]["metrics"]
    second = results[("fleet_day", 1)]["metrics"]
    for name in ("sweep.unique", "sweep.executed", "sweep.cache_hits", "plan.hit_ratio",
                 "plan.lookups", "fleet.engine_runs_warm", "serve.burst_coalesced_ratio",
                 "activity.chunk_seeds", "kernels.operand_bytes_per_seed"):
        assert first[name]["value"] == second[name]["value"], name
    assert first["fleet.engine_runs_warm"]["value"] == 0
    assert first["sweep.executed"]["value"] == 0
    assert first["serve.burst_coalesced_ratio"]["value"] == 0.5


def test_stage_replay_equals_pipeline_run():
    completed = subprocess.run(
        [sys.executable, "perfbench/layers.py", "--group", "estimation", "--seed", "2",
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    # One check compares the replayed seeds with EstimationPipeline.run,
    # the other compares the run with the stored digest.
    assert outcome["attempted"] == 2
    assert outcome["failed"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("fleet_day", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
