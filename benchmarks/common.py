"""Shared infrastructure for the benchmark harness.

Every benchmark reproduces one of the paper's figures (or an ablation /
optimizer study on top of them), prints the regenerated rows/series, checks
that the trend *shape* matches what the paper reports, and saves the raw
results under ``benchmarks/results/``.

The fidelity profile is controlled with the ``REPRO_BENCH_PROFILE``
environment variable:

* ``quick`` (default) — 512x512 matrices, 2 seeds: every trend is clearly
  visible and the full harness finishes in a few minutes.
* ``standard`` — 1024x1024 matrices, 3 seeds.
* ``paper`` — the paper's 2048x2048 matrices and 10 seeds (slow).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import env
from repro.experiments.figures import FigureSettings
from repro.experiments.results import FigureResult

__all__ = ["bench_settings", "emit_figure", "RESULTS_DIR", "PROFILE"]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

PROFILE = env.read("REPRO_BENCH_PROFILE")


def bench_settings(**overrides) -> FigureSettings:
    """Figure settings for the selected benchmark profile."""
    if PROFILE == "paper":
        settings = FigureSettings.paper()
    elif PROFILE == "standard":
        settings = FigureSettings.standard()
    else:
        settings = FigureSettings.quick(matrix_size=512, seeds=2, sweep_points=5)
    if overrides:
        import dataclasses

        settings = dataclasses.replace(settings, **overrides)
    return settings


def emit_figure(figure: FigureResult, extra_notes: list[str] | None = None) -> Path:
    """Print a figure's tables/charts and persist them under results/."""
    if extra_notes:
        figure.notes.extend(extra_notes)
    text = figure.render(charts=True)
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{figure.name}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{figure.name}.json").write_text(json.dumps(figure.as_dict(), indent=2))
    return RESULTS_DIR / f"{figure.name}.json"
