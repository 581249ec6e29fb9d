"""Measurement harness: experiment configuration, execution, sweeps, figures.

The harness mirrors the paper's methodology: for each configuration it runs
(simulates) a loop of identical GEMM iterations per seed, samples power at
100 ms, trims the first 500 ms of samples, and averages across seeds, with
A and B drawn from the same pattern but different seeds.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ExperimentRunner, run_experiment
from repro.experiments.plan import ExperimentPlan, build_plan
from repro.experiments.results import ExperimentResult, FigureResult, SeedMeasurement, SweepResult
from repro.experiments.sweep import RunStats, run_configs, run_sweep

__all__ = [
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentPlan",
    "build_plan",
    "run_experiment",
    "ExperimentResult",
    "SeedMeasurement",
    "SweepResult",
    "FigureResult",
    "RunStats",
    "run_sweep",
    "run_configs",
]
