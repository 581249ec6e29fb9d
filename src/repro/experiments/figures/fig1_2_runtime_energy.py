"""Figures 1 and 2: iteration runtime and energy by datatype.

Both figures use the paper's baseline workload — 2048x2048 GEMM with
Gaussian random inputs (mean 0, std 210 for floating point and 25 for INT8)
— and compare the four datatype setups.  Figure 1 reports average iteration
runtime; Figure 2 reports average iteration energy.

The two figures run *identical* configurations, so with the default caches
the second driver is served entirely from the experiment result tier; when
results are recomputed (``cache=None`` benchmarking, code-version bumps),
the per-seed activity tier still serves the second run's estimates.
"""

from __future__ import annotations

from repro.experiments.figures.common import FigureSettings, base_config, resolve_settings
from repro.experiments.results import FigureResult, SweepResult
from repro.experiments.sweep import run_configs

__all__ = ["run_fig1_runtime", "run_fig2_energy"]


def _run_dtype_comparison(settings: FigureSettings) -> SweepResult:
    """Run the Gaussian baseline for every datatype and collect one sweep."""
    configs = [
        base_config(settings, dtype, pattern_family="gaussian").with_overrides(
            label=f"gaussian/{dtype}"
        )
        for dtype in settings.dtypes
    ]
    results = run_configs(configs, workers=settings.workers, backend=settings.backend)
    return SweepResult(
        parameter="dtype",
        values=list(settings.dtypes),
        results=results,
        label=f"Gaussian baseline by datatype ({settings.gpu}, {settings.matrix_size}^2)",
    )


def run_fig1_runtime(settings: FigureSettings | None = None) -> FigureResult:
    """Figure 1: average iteration runtime by datatype."""
    settings = resolve_settings(settings)
    sweep = _run_dtype_comparison(settings)
    figure = FigureResult(
        name="fig1",
        description="Average GEMM iteration runtime by datatype (Gaussian inputs)",
    )
    figure.add_panel("runtime_by_dtype", sweep)
    fastest = min(zip(sweep.values, sweep.runtimes()), key=lambda kv: kv[1])
    figure.notes.append(
        f"fastest datatype: {fastest[0]} at {fastest[1] * 1e6:.1f} us per iteration "
        "(tensor cores accelerate FP16-T, as in the paper)"
    )
    figure.notes.append(
        "runtimes are input-independent by construction; the paper observes "
        "microsecond-level consistency across experiments"
    )
    return figure


def run_fig2_energy(settings: FigureSettings | None = None) -> FigureResult:
    """Figure 2: average iteration energy by datatype."""
    settings = resolve_settings(settings)
    sweep = _run_dtype_comparison(settings)
    figure = FigureResult(
        name="fig2",
        description="Average GEMM iteration energy by datatype (Gaussian inputs)",
    )
    figure.add_panel("energy_by_dtype", sweep)
    cheapest = min(zip(sweep.values, sweep.energies()), key=lambda kv: kv[1])
    figure.notes.append(
        f"lowest energy per iteration: {cheapest[0]} at {cheapest[1] * 1e3:.2f} mJ"
    )
    figure.notes.append(
        "energy follows runtime (power is similar across datatypes for random "
        "inputs), matching the identical patterns the paper notes between "
        "Figures 1 and 2"
    )
    return figure
