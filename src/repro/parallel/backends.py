"""Pluggable sweep execution backends behind one ``Executor`` interface.

Two backends run the embarrassingly parallel part of a sweep:

``serial``
    Plain in-process iteration.  No pools; the reference backend the
    other one must match bit for bit.

``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The sweep's hot
    path — bit-level switching-activity estimation — spends its time inside
    NumPy ufuncs (XOR, ``bitwise_count``, reductions, casts) which release
    the GIL for the duration of the loop (see the "released-GIL kernels"
    notes in :mod:`repro.util.bits` and :mod:`repro.activity.toggles`), so
    threads scale near-linearly on estimation-bound workloads while sharing
    the parent's caches directly: no pickling out, no result transfer back,
    and explicit in-memory cache *instances* keep working.

The ``Executor`` protocol contract
----------------------------------

Implementations promise, and the sweep runner relies on, exactly four
things:

1. **Order** — :meth:`Executor.map` yields one result per submitted item,
   in submission order (never completion order).
2. **Failure** — the first worker exception propagates to the consumer of
   the result iterator.
3. **Shutdown** — ``shutdown()`` releases every backend resource;
   ``shutdown(cancel=True)`` additionally drops queued work.
4. **Worker persistence** — pool threads live for the executor's whole
   lifetime: one thread serves many items.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import env
from repro.errors import ExperimentError

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
]

#: The selectable backends, in the order the docs present them.
BACKENDS = ("serial", "threads")

#: Environment override consulted by ``backend="auto"`` (never by an
#: explicit backend choice).
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"

#: Worker-pool width of the fleet and optimize CLIs and the server when
#: they are given none (library calls take ``workers=`` and never read it).
ENV_WORKERS = "REPRO_PARALLEL_WORKERS"


class Executor(abc.ABC):
    """Minimal executor protocol the sweep runner drives.

    Implementations yield results from :meth:`map` in submission order and
    let the first worker exception propagate to the consumer.  See the
    module docstring for the full four-point contract (order, failure,
    shutdown, worker persistence).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def map(self, fn: "Callable[[Any], Any]", items: "Sequence[Any]") -> Iterator[Any]:
        """Apply ``fn`` to every item, yielding results in order."""

    def shutdown(self, cancel: bool = False) -> None:
        """Release backend resources; ``cancel`` drops queued work."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A failing sweep cancels what it can; a clean exit just waits.
        self.shutdown(cancel=exc_type is not None)


class SerialExecutor(Executor):
    """In-process reference backend: a lazy map, nothing more."""

    name = "serial"

    def map(self, fn: "Callable[[Any], Any]", items: "Sequence[Any]") -> Iterator[Any]:
        return (fn(item) for item in items)


class ThreadExecutor(Executor):
    """Thread pool for estimation-bound (GIL-releasing) workloads."""

    name = "threads"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-sweep"
        )

    def map(self, fn: "Callable[[Any], Any]", items: "Sequence[Any]") -> Iterator[Any]:
        futures = [self._pool.submit(fn, item) for item in items]

        def _results() -> Iterator[Any]:
            for future in futures:
                yield future.result()

        return _results()

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)


def resolve_backend(backend: str = "auto", workers: int = 1) -> str:
    """Resolve a ``backend=`` argument to a concrete backend name.

    ``"auto"`` is ``"threads"`` when ``workers > 1`` and ``"serial"``
    otherwise, unless ``REPRO_PARALLEL_BACKEND`` names a backend.  Explicit
    names are validated and returned unchanged.
    """
    if backend != "auto":
        return _known(backend, "backend", BACKENDS + ("auto",))
    override = env.read(ENV_BACKEND)
    if override:
        return _known(override, ENV_BACKEND, BACKENDS)
    return "threads" if workers > 1 else "serial"


def _known(name: str, source: str, choices: "tuple[str, ...]") -> str:
    if name not in BACKENDS:
        raise ExperimentError(f"{source} must be one of {choices}, got {name!r}")
    return name


def executor_defaults(
    backend: "str | None" = None,
    workers: "int | None" = None,
    environ: "Mapping[str, str] | None" = None,
) -> "tuple[str, int]":
    """The ``(backend, workers)`` an entry point runs with.

    Explicit values win.  Next come ``REPRO_PARALLEL_BACKEND`` and
    ``REPRO_PARALLEL_WORKERS``, read from ``environ`` (the process
    environment by default).  Without them the backend is ``"auto"`` and
    the width 1; a set width must be an integer >= 1 and a set backend one
    of :data:`BACKENDS`.
    """
    if backend is None:
        override = env.read(ENV_BACKEND, environ)
        backend = _known(override, ENV_BACKEND, BACKENDS) if override else "auto"
    if workers is None:
        workers = env.read(ENV_WORKERS, environ)
    return backend, workers


def get_executor(backend: str, workers: int = 1) -> Executor:
    """Build the executor for a resolved backend name."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "threads":
        return ThreadExecutor(workers)
    raise ExperimentError(f"backend must be one of {BACKENDS}, got {backend!r}")
