"""Shared-memory result transfer for the process backend.

A sweep worker process used to hand its :class:`ExperimentResult` — per-seed
measurements, each carrying a full :class:`ActivityReport` — back through the
``ProcessPoolExecutor`` result pipe, which pickles the object graph, streams
it through a pipe and unpickles it in the parent.  For paper-scale sweeps the
results dwarf the operand-free configs going *out*, so the return path
dominates pool overhead.

This module moves the payload out of the pipe: the worker serializes its
chunk of results to JSON bytes (the exact representation the disk cache
already round-trips, so values stay bit-for-bit identical), publishes them
in a :class:`multiprocessing.shared_memory.SharedMemory` segment, and sends
only a tiny ``(name, size)`` handle through the pipe.  The parent attaches,
decodes and unlinks the segment.  When shared memory is unavailable (or
disabled with ``REPRO_SHM=0``) the worker falls back to returning the
results inline, i.e. the classic pickle path.

Ownership protocol: the *worker* creates a segment and never unlinks it;
the *parent* unlinks exactly once, whether decoding succeeds or not.  Both
sides detach the segment from the Python side of the resource tracker (via
``track=False`` where available, else by unregistering) because the tracker
would otherwise double-book cleanup across the process boundary.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.results import ExperimentResult

__all__ = [
    "ENV_DISABLE_SHM",
    "ShmHandle",
    "InlineChunk",
    "shm_available",
    "share_chunk",
    "receive_chunk",
    "discard_chunk",
    "encode_experiment_results",
    "decode_experiment_results",
]

#: Set to ``0``/``false``-ish to force the pickle fallback even where shared
#: memory works (useful for debugging and for the equivalence tests).
ENV_DISABLE_SHM = "REPRO_SHM"


@dataclass(frozen=True)
class ShmHandle:
    """What a worker sends back instead of its results: a segment name and
    the payload length (segments are page-rounded, so the length matters)."""

    name: str
    size: int
    count: int


@dataclass(frozen=True)
class InlineChunk:
    """Pickle-fallback envelope: the results travel in the handle itself."""

    values: tuple


def _shm_disabled() -> bool:
    return os.environ.get(ENV_DISABLE_SHM, "").strip().lower() in ("0", "false", "no")


def _create_segment(size: int):
    """Create a fresh segment without leaving a tracker obligation behind.

    The creator (a pool worker) never unlinks — the parent does — but
    Python's ``resource_tracker`` assumes whoever registers a segment also
    unregisters it (``unlink`` unregisters implicitly before 3.13).  So the
    creator opts out of tracking: ``track=False`` from Python 3.13, the
    documented unregister escape hatch before that.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(create=True, size=size, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        shm = shared_memory.SharedMemory(create=True, size=size)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:
            pass
        return shm


def _attach_segment(name: str):
    """Attach to a worker-created segment (parent side).

    No tracker fiddling needed here: before 3.13 an attach registers and the
    mandatory ``unlink`` unregisters (balanced); from 3.13 attaches are
    untracked by default.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def shm_available() -> bool:
    """Whether shared-memory transfer can be used in this environment."""
    if _shm_disabled():
        return False
    from multiprocessing import shared_memory

    try:
        # Default tracking: a same-process create + unlink pair is balanced
        # on every Python version.
        shm = shared_memory.SharedMemory(create=True, size=1)
    except Exception:
        return False
    try:
        shm.close()
        shm.unlink()
    except Exception:
        pass
    return True


def share_chunk(
    values: "Sequence[Any]", encode: "Callable[[Sequence[Any]], bytes]"
) -> "ShmHandle | InlineChunk":
    """Publish one chunk of results (worker side).

    Returns a :class:`ShmHandle` naming a fresh segment holding
    ``encode(values)``, or an :class:`InlineChunk` carrying the values
    themselves when shared memory cannot be used.
    """
    if _shm_disabled():
        return InlineChunk(values=tuple(values))
    try:
        payload = encode(values)
        shm = _create_segment(max(len(payload), 1))
    except Exception:
        return InlineChunk(values=tuple(values))
    try:
        shm.buf[: len(payload)] = payload
        return ShmHandle(name=shm.name, size=len(payload), count=len(values))
    finally:
        shm.close()


def receive_chunk(
    handle: "ShmHandle | InlineChunk",
    decode: "Callable[[bytes], list[Any]]",
) -> list[Any]:
    """Decode one chunk of results (parent side), unlinking the segment."""
    if isinstance(handle, InlineChunk):
        return list(handle.values)
    if not isinstance(handle, ShmHandle):
        raise ExperimentError(
            f"expected a ShmHandle or InlineChunk, got {type(handle).__name__}"
        )
    shm = _attach_segment(handle.name)
    try:
        payload = bytes(shm.buf[: handle.size])
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-receive guard
            pass
    values = decode(payload)
    if len(values) != handle.count:
        raise ExperimentError(
            f"shared-memory chunk decoded {len(values)} results, expected {handle.count}"
        )
    return values


def discard_chunk(handle: "ShmHandle | InlineChunk | None") -> None:
    """Free a chunk without decoding it (cleanup after a failed sweep)."""
    if not isinstance(handle, ShmHandle):
        return
    try:
        shm = _attach_segment(handle.name)
        shm.close()
        shm.unlink()
    except Exception:
        pass


# ------------------------------------------------- ExperimentResult codec

def encode_experiment_results(values: "Sequence[Sequence[ExperimentResult]]") -> bytes:
    """JSON-encode a chunk of sweep task results, exactly as the disk cache
    would.

    Each value is one seed-group task's list of partial results, one per
    member.  ``float`` round-trips through ``repr`` losslessly, so the
    decoded results are bit-for-bit identical to the originals — the same
    guarantee the content-addressed disk cache relies on.
    """
    return json.dumps([[item.as_dict() for item in value] for value in values]).encode(
        "utf-8"
    )


def decode_experiment_results(payload: bytes) -> "list[list[ExperimentResult]]":
    from repro.experiments.results import ExperimentResult

    return [
        [ExperimentResult.from_dict(item) for item in value]
        for value in json.loads(payload.decode("utf-8"))
    ]
