"""Calibrated chunk-budget sizing for the batched activity engine.

The batched estimators (:mod:`repro.activity.engine`) process seed batches
in chunks whose stacked operand working set stays cache-resident: stacking
more data than fits in cache turns every estimator pass into a DRAM stream
and is *slower* than going seed by seed.  The right budget therefore
depends on the machine's cache hierarchy, not on the workload — yet it used
to be a hard-coded 1 MiB constant tuned on one development box.

This module replaces the constant with a measured value, resolved in
precedence order:

1. ``REPRO_BATCH_CHUNK_BUDGET`` — explicit override, accepts the same human
   sizes as the cache CLI (``"512K"``, ``"2M"``, plain bytes).
2. A calibration file persisted under ``$REPRO_CACHE_DIR/calibration/`` by
   a previous probe on this machine.
3. A one-shot probe (:func:`calibrate_chunk_budget`): time the engine's
   characteristic kernel (XOR + popcount + reduce, the toggle-counting
   inner loop) over working sets of increasing size and keep the largest
   one that still runs at near-peak per-byte throughput.  The result is
   written back to the calibration file when a cache directory is
   configured, so the probe runs once per machine, not once per process.
4. :data:`DEFAULT_CHUNK_BUDGET_BYTES` if the probe itself fails.

The budget only sizes chunks; chunked estimation is bit-for-bit identical
to unchunked estimation at any chunk size, so calibration can never change
results, only speed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError
from repro.util.bits import popcount

__all__ = [
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "ENV_CHUNK_BUDGET",
    "CALIBRATION_SUBDIR",
    "CALIBRATION_FILENAME",
    "CalibrationResult",
    "calibrate_chunk_budget",
    "chunk_budget_bytes",
    "seed_probed_budget",
    "calibration_path",
]

#: Fallback budget when nothing else is available: half a typical per-core
#: L2, the constant :mod:`repro.activity.engine` used before calibration.
DEFAULT_CHUNK_BUDGET_BYTES = 1 << 20

#: Environment variable overriding the calibrated budget (human sizes OK).
ENV_CHUNK_BUDGET = "REPRO_BATCH_CHUNK_BUDGET"

#: Where the probe persists its result, under the shared cache root.  A
#: dedicated subdirectory keeps the file out of the experiment tier's
#: ``<root>/*.json`` namespace, so cache GC never evicts the calibration.
CALIBRATION_SUBDIR = "calibration"
CALIBRATION_FILENAME = "chunk_budget.json"

#: Working-set sizes the probe times, in bytes.  Spanning 256 KiB–8 MiB
#: covers per-core L2 through shared L3 on every x86/ARM part the paper's
#: sweeps run on; anything larger is firmly DRAM-bound and never wins.
PROBE_SIZES_BYTES = (1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22, 1 << 23)

#: Keep the largest probed size whose per-byte throughput is at least this
#: fraction of the best observed — "still effectively cache-resident".
PROBE_KEEP_FRACTION = 0.85

#: Bounds applied to whatever the probe (or the disk file) reports, so a
#: noisy measurement can never produce a pathological chunking policy.
MIN_CHUNK_BUDGET_BYTES = 1 << 16
MAX_CHUNK_BUDGET_BYTES = 1 << 26


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one :func:`calibrate_chunk_budget` probe."""

    #: chosen per-chunk working-set budget, in bytes
    budget_bytes: int
    #: measured per-byte throughput for every probed size (bytes/second)
    throughput_bytes_per_s: dict[int, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "budget_bytes": self.budget_bytes,
            "throughput_bytes_per_s": {
                str(size): rate for size, rate in self.throughput_bytes_per_s.items()
            },
        }


def calibration_path(root: "str | Path") -> Path:
    """Calibration file location under a cache root directory."""
    return Path(root) / CALIBRATION_SUBDIR / CALIBRATION_FILENAME


def _probe_pass(words: np.ndarray, shifted: np.ndarray) -> int:
    """One timed pass of the engine's characteristic toggle kernel.

    Uses the *production* popcount (:func:`repro.util.bits.popcount` — the
    native ``bitwise_count`` ufunc or its precomputed byte-table fallback),
    so the probe measures exactly the code path whose chunking it tunes.
    """
    return int(popcount(np.bitwise_xor(words, shifted)).sum())


def calibrate_chunk_budget(
    sizes: "tuple[int, ...]" = PROBE_SIZES_BYTES,
    repeats: int = 3,
) -> CalibrationResult:
    """Measure per-byte toggle-kernel throughput across working-set sizes.

    For each candidate size the kernel runs ``repeats`` times on a buffer of
    that size and the fastest pass is kept (minimum over repeats rejects
    scheduler noise).  The chosen budget is the largest size still within
    :data:`PROBE_KEEP_FRACTION` of the best per-byte throughput: large
    chunks amortize per-pass overhead, so we take as much as the cache
    allows but back off as soon as throughput falls off the cache cliff.

    The probe costs a few tens of milliseconds and touches at most
    ``max(sizes)`` bytes of scratch memory.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    throughput: dict[int, float] = {}
    for size_bytes in sizes:
        n = max(size_bytes // 8, 1)
        words = np.arange(n, dtype=np.uint64)
        words *= np.uint64(0x9E3779B97F4A7C15)  # decorrelate neighbouring words
        shifted = np.roll(words, 1)
        _probe_pass(words, shifted)  # warm the buffer and the ufunc path
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_pass(words, shifted)
            best = min(best, time.perf_counter() - started)
        throughput[size_bytes] = size_bytes / best if best > 0 else float("inf")
    peak = max(throughput.values())
    eligible = [
        size
        for size, rate in throughput.items()
        if rate >= PROBE_KEEP_FRACTION * peak
    ]
    budget = max(eligible)
    budget = min(max(budget, MIN_CHUNK_BUDGET_BYTES), MAX_CHUNK_BUDGET_BYTES)
    return CalibrationResult(budget_bytes=budget, throughput_bytes_per_s=throughput)


# One probe per process at most; the chosen budget is a machine property,
# so it is also persisted to disk when a cache root is configured.
_probed_budget: int | None = None
# Memo of the fully resolved budget, keyed by the environment that produced
# it so tests (and long-lived processes) that flip the variables re-resolve.
_resolved: "tuple[tuple[str | None, str | None], int] | None" = None
# Serializes resolution: the threads backend's workers all reach
# chunk_budget_bytes() together on a cold start, and N concurrent probes
# would contend on the very cache hierarchy being measured (then persist the
# distorted result).  Under the lock, one thread probes on a quiet machine
# while the rest wait for the memo.
_resolve_lock = threading.Lock()


def _parse_budget(raw: str) -> int:
    from repro.cache.lifecycle import parse_size

    try:
        value = parse_size(raw)
    except ValueError as exc:
        raise ExperimentError(f"{ENV_CHUNK_BUDGET}: {exc}") from None
    if value < 1:
        raise ExperimentError(f"{ENV_CHUNK_BUDGET} must be >= 1 byte, got {raw!r}")
    return value


def _load_persisted(root: str) -> int | None:
    path = calibration_path(root)
    try:
        data = json.loads(path.read_text())
        budget = int(data["budget_bytes"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not MIN_CHUNK_BUDGET_BYTES <= budget <= MAX_CHUNK_BUDGET_BYTES:
        return None
    return budget


def _persist(root: str, result: CalibrationResult) -> None:
    """Best-effort atomic write (same temp-file dance as the cache stores)."""
    path = calibration_path(root)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(result.as_dict()))
        os.replace(tmp, path)
    except OSError:
        pass  # calibration is a pure performance hint; never fail the caller


def seed_probed_budget(budget: int) -> None:
    """Seed this process's probe memo with an already-resolved budget.

    Used as a process-pool worker initializer: the sweep runner resolves the
    budget once in the parent and hands it to every worker at start-up, so
    workers never probe — whatever the start method (fork or spawn) and
    whether or not a cache directory is configured.  Explicit configuration
    still wins inside the worker: resolution checks the
    ``REPRO_BATCH_CHUNK_BUDGET`` override and the persisted calibration file
    before falling back to this memo.
    """
    global _probed_budget, _resolved
    value = int(budget)
    if value < 1:
        raise ExperimentError(f"budget must be >= 1 byte, got {budget}")
    with _resolve_lock:
        _probed_budget = value
        _resolved = None  # let the next resolution pick the seed up


def chunk_budget_bytes(refresh: bool = False) -> int:
    """The per-chunk working-set budget the batched engine should target.

    Resolution order: ``REPRO_BATCH_CHUNK_BUDGET`` override, then the
    calibration file under ``$REPRO_CACHE_DIR``, then a one-shot probe
    (persisted back to the calibration file when possible), then the
    built-in default.  ``refresh=True`` drops the in-process memo and
    re-resolves (it does not delete the persisted file).
    """
    global _probed_budget, _resolved
    env_key = (
        os.environ.get(ENV_CHUNK_BUDGET) or None,
        os.environ.get("REPRO_CACHE_DIR") or None,
    )
    with _resolve_lock:
        if refresh:
            _resolved = None
            _probed_budget = None
        if _resolved is not None and _resolved[0] == env_key:
            return _resolved[1]

        override, root = env_key
        if override is not None:
            budget = _parse_budget(override)
        else:
            budget = _load_persisted(root) if root is not None else None
            if budget is None:
                if _probed_budget is None:
                    try:
                        result = calibrate_chunk_budget()
                    except Exception:
                        result = CalibrationResult(
                            budget_bytes=DEFAULT_CHUNK_BUDGET_BYTES
                        )
                    _probed_budget = result.budget_bytes
                else:
                    # A probe already ran (possibly before the cache root was
                    # configured); persist the memo so other processes stop
                    # re-probing — once per machine, not once per process.
                    result = CalibrationResult(budget_bytes=_probed_budget)
                if root is not None:
                    _persist(root, result)
                budget = _probed_budget
        _resolved = (env_key, budget)
        return budget
