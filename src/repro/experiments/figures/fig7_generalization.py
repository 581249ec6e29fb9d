"""Figure 7: generalization across GPU generations.

The paper replicates four experiments (distribution mean, randomized MSBs,
sorted rows, general sparsity) with FP16 inputs on a V100, A100, H100 and
Quadro RTX 6000.  The RTX 6000 throttled at 2048x2048 and was therefore run
at 512x512; the same special case is applied here.

This figure is the flagship consumer of the per-seed activity cache
(:class:`~repro.cache.store.ActivityCache`): the bit-level activity of a
sweep point depends on the workload and seed but *not* on the GPU model, so
every GPU after the first reuses the same per-seed estimates.  The sweeps
run experiment-major (all GPUs of one experiment back to back) to keep
those shared entries hot in the cache's LRU.
"""

from __future__ import annotations

from repro.experiments.figures.common import (
    FigureSettings,
    base_config,
    mean_sweep_values,
    resolve_settings,
)
from repro.experiments.results import FigureResult
from repro.experiments.sweep import run_sweep
from repro.gpu.specs import PAPER_GPUS

__all__ = ["run_fig7_generalization", "FIG7_DTYPE", "FIG7_EXPERIMENTS"]

#: The generalization study uses FP16 (no tensor cores) throughout.
FIG7_DTYPE = "fp16"

#: (experiment key, pattern family, swept parameter) per panel row.
FIG7_EXPERIMENTS: tuple[tuple[str, str, str], ...] = (
    ("mean", "gaussian", "mean"),
    ("msb", "randomize_msb", "fraction"),
    ("sorted_rows", "sorted_rows", "fraction"),
    ("sparsity", "sparsity", "sparsity"),
)


def _sweep_values(settings: FigureSettings, experiment: str) -> list[float]:
    if experiment == "mean":
        return settings.subsample(mean_sweep_values(FIG7_DTYPE))
    if experiment == "msb":
        return settings.subsample([0.0, 0.25, 0.5, 0.75, 1.0])
    if experiment == "sorted_rows":
        return settings.subsample([0.0, 0.25, 0.5, 0.75, 1.0])
    return settings.subsample([0.0, 0.25, 0.5, 0.75, 1.0])


def _matrix_size_for(gpu: str, settings: FigureSettings) -> int:
    """The RTX 6000 runs a smaller matrix, as in the paper."""
    if gpu == "rtx6000":
        return min(settings.matrix_size, 512)
    return settings.matrix_size


def run_fig7_generalization(settings: FigureSettings | None = None) -> FigureResult:
    """Reproduce Figure 7 (four experiments across four GPU models)."""
    settings = resolve_settings(settings)
    figure = FigureResult(
        name="fig7",
        description="Input-dependent power trends across NVIDIA GPU generations (FP16)",
    )

    # Experiment-major order: consecutive sweeps differ only in the GPU, so
    # the activity tier serves every device after the first from cache (the
    # RTX 6000 re-estimates only when its smaller matrix changes the
    # workload).  Panel keys stay "<gpu>/<experiment>" either way.
    for experiment, family, parameter in FIG7_EXPERIMENTS:
        values = _sweep_values(settings, experiment)
        params: dict[str, object] = {}
        if family == "gaussian":
            params = {"mean": 0.0, "std": 1.0}
        for gpu in PAPER_GPUS:
            size = _matrix_size_for(gpu, settings)
            base = base_config(settings, FIG7_DTYPE, pattern_family=family, **params)
            base = base.with_overrides(gpu=gpu, matrix_size=size)
            sweep = run_sweep(
                base,
                parameter,
                values,
                label=f"Fig7 {experiment} on {gpu} ({size}^2, {FIG7_DTYPE})",
                workers=settings.workers,
                backend=settings.backend,
            )
            figure.add_panel(f"{gpu}/{experiment}", sweep)

    figure.notes.append(
        "V100, A100 and H100 should show consistent trends; the RTX 6000 "
        "(older design, GDDR6, lower TDP) shows less pronounced swings"
    )
    return figure


def power_swing_by_gpu(figure: FigureResult) -> dict[str, float]:
    """Largest relative power swing observed per GPU (for trend comparison)."""
    swings: dict[str, float] = {}
    for key, sweep in figure.panels.items():
        gpu = key.split("/", 1)[0]
        swings[gpu] = max(swings.get(gpu, 0.0), sweep.power_range_fraction())
    return swings
