"""Pure estimation core: config in, deterministic result out, no side effects.

``repro.core`` is the seam between *estimation* and *orchestration*.  The
pipeline here (:class:`EstimationPipeline`, :func:`estimate_experiment`)
computes one configuration's measured result deterministically, touching
only the injectable activity cache tier; everything stateful —
result caching (:mod:`repro.experiments.harness`), sweeps and execution
backends (:mod:`repro.experiments.sweep`), and the long-running serving
layer with its request coalescing (:mod:`repro.serve`) — is layered on
top and calls down into this package.  One compute path, many front ends:
that is what keeps served, swept and one-shot results bit-for-bit
identical.
"""

from repro.core.pipeline import (
    MIN_MEASUREMENT_DURATION_S,
    EstimationPipeline,
    estimate_experiment,
)

__all__ = [
    "MIN_MEASUREMENT_DURATION_S",
    "EstimationPipeline",
    "estimate_experiment",
]
