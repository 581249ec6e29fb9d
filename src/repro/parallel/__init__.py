"""Pluggable parallel execution for sweeps and figures.

This package is the single place sweep/figure parallelism goes through:

* :mod:`repro.parallel.backends` — the ``Executor`` protocol and the
  ``serial`` / ``threads`` / ``processes`` backends, plus the ``auto``
  per-workload selection the sweep runner uses.
* :mod:`repro.parallel.shm` — shared-memory result transfer for the
  process backend (with a transparent pickle fallback).
* :mod:`repro.parallel.calibrate` — the batched engine's fixed 1 MiB
  per-chunk working-set budget.

See ``docs/parallel.md`` for the full subsystem guide (backend selection,
the ``Executor`` contract, worker persistence and the shared-memory result
path); the one-line version is: the default ``auto`` resolves to
``threads`` for the built-in estimation workloads (their NumPy kernels
release the GIL) and ``serial`` for ``workers=1``, while ``processes``
remains available for GIL-holding pattern generators.  Results are
bit-for-bit identical across backends at any worker count.
"""

from repro.parallel.backends import (
    BACKENDS,
    ENV_BACKEND,
    ENV_WORKERS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    choose_backend,
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
    "ProcessExecutor",
    "choose_backend",
    "executor_defaults",
    "resolve_backend",
    "get_executor",
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "chunk_budget_bytes",
]
