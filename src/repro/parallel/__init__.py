"""Pluggable parallel execution for sweeps and figures.

This package is the single place sweep/figure parallelism goes through:

* :mod:`repro.parallel.backends` — the ``Executor`` protocol, the
  ``serial`` and ``threads`` backends, and the ``auto`` selection the
  sweep runner uses.
* :mod:`repro.parallel.calibrate` — the batched engine's fixed 1 MiB
  per-chunk working-set budget.

See ``docs/parallel.md`` for the full subsystem guide (backend selection,
the ``Executor`` contract, worker persistence); the one-line version is:
the default ``auto`` resolves to ``threads`` when ``workers > 1`` (the
estimation kernels release the GIL inside NumPy) and ``serial``
otherwise.
Results are bit-for-bit identical across backends at any worker count.
"""

from repro.parallel.backends import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    Executor,
    SerialExecutor,
    ThreadExecutor,
    executor_defaults,
    get_executor,
    resolve_backend,
)
from repro.parallel.calibrate import DEFAULT_CHUNK_BUDGET_BYTES, chunk_budget_bytes

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ENV_WORKERS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "executor_defaults",
    "resolve_backend",
    "get_executor",
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "chunk_budget_bytes",
]
