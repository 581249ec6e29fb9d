"""Pluggable sweep execution backends behind one ``Executor`` interface.

Three backends run the embarrassingly parallel part of a sweep:

``serial``
    Plain in-process iteration.  No pools, no pickling; the reference
    backend every other one must match bit for bit.

``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The sweep's hot
    path — bit-level switching-activity estimation — spends its time inside
    NumPy ufuncs (XOR, ``bitwise_count``, reductions, casts) which release
    the GIL for the duration of the loop (see the "released-GIL kernels"
    notes in :mod:`repro.util.bits` and :mod:`repro.activity.toggles`), so
    threads scale near-linearly on estimation-bound workloads while sharing
    the parent's caches directly: no pickling out, no result transfer back,
    and explicit in-memory cache *instances* keep working.

``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor`, kept for workloads
    that hold the GIL (e.g. Python-loop-heavy pattern generators).  Results
    return through :mod:`multiprocessing.shared_memory` segments instead of
    the executor's pickle pipe (with a transparent pickle fallback), and
    work is submitted in chunks to amortize process start-up.

Every backend yields results in submission order and propagates the first
failure; ``shutdown(cancel=True)`` stops queued work and releases backend
resources (including unconsumed shared-memory segments).

The process backend additionally survives *pool breakage* (a worker dying
mid-chunk — OOM kill, segfault, interpreter abort): it rebuilds the pool
once and resubmits only the chunks whose results were not yet consumed,
then falls back to a thread pool for the remaining items if the rebuilt
pool breaks again (see ``docs/resilience.md``).  Both events are counted
on :class:`ExecutorResilience` and folded into the sweep's ``RunStats``.

The ``Executor`` protocol contract
----------------------------------

Implementations promise, and the sweep runner relies on, exactly four
things:

1. **Order** — :meth:`Executor.map` yields one result per submitted item,
   in submission order (never completion order).
2. **Failure** — the first worker exception propagates to the consumer of
   the result iterator; ``chunk_span`` declares how many submitted items
   fail as a unit so the consumer can bound its blame (1 for per-item
   submission, the chunk size for chunked pools).
3. **Shutdown** — ``shutdown()`` releases every backend resource;
   ``shutdown(cancel=True)`` additionally drops queued work.  Calling it
   with an unconsumed result iterator must not leak resources (the
   process backend frees published-but-unconsumed shared-memory segments).
4. **Worker persistence** — pool workers live for the executor's whole
   lifetime: one thread/process serves many items (and, for the process
   pool, many *chunks*), so per-worker state such as the process-default
   caches stays warm across every chunk a worker serves.
"""

from __future__ import annotations

import abc
import contextlib
import os
import signal
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ExperimentError
from repro.faults import fault_point
from repro.parallel import shm

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "Executor",
    "ExecutorResilience",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "choose_backend",
    "resolve_backend",
    "get_executor",
]


@dataclass
class ExecutorResilience:
    """Counters describing how an executor absorbed pool failures.

    ``fallback_backend`` is non-empty once the executor stopped using its
    native pool (e.g. ``"threads"`` after repeated process-pool breakage) —
    a sticky, loud signal the sweep runner copies into its ``RunStats``.
    """

    pool_rebuilds: int = 0
    chunks_resubmitted: int = 0
    fallback_backend: str = ""

    def as_dict(self) -> "dict[str, Any]":
        return {
            "pool_rebuilds": self.pool_rebuilds,
            "chunks_resubmitted": self.chunks_resubmitted,
            "fallback_backend": self.fallback_backend,
        }

#: The selectable backends, in the order the docs present them.
BACKENDS = ("serial", "threads", "processes")

#: Environment override consulted by ``backend="auto"`` (never by an
#: explicit backend choice).
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"


class Executor(abc.ABC):
    """Minimal executor protocol the sweep runner drives.

    Implementations yield results from :meth:`map` in submission order and
    let the first worker exception propagate to the consumer.
    ``chunk_span`` tells the consumer how many submitted items fail as a
    unit (1 for per-item submission, the chunk size for chunked pools).
    See the module docstring for the full four-point contract (order,
    failure, shutdown, worker persistence).
    """

    name: str = "abstract"
    chunk_span: int = 1

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


#: Signals :func:`_worker_init` re-homes in each process-pool worker.
_WORKER_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def _signals_held() -> Iterator[None]:
    """Block :data:`_WORKER_SIGNALS` in this thread while workers start.

    Pool workers fork inside ``submit`` and inherit the blocked mask, so a
    SIGTERM that reaches one before :func:`_worker_init` ran (the pool
    terminating a just-forked worker after a sibling died) waits instead
    of being reported through the parent's signal wakeup fd.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _worker_init() -> None:
    """Per-worker start-up hook: signal hygiene.

    Forked workers inherit the parent's Python-level signal handlers *and*
    any ``signal.set_wakeup_fd`` registration.  In a serving parent the
    wakeup fd is the asyncio loop's self-socketpair — shared with the
    child as the same open file description — so a signal delivered to a
    worker (most notably the SIGTERM that ``concurrent.futures`` sends to
    surviving workers when a sibling dies and breaks the pool) would be
    written into the *parent's* loop and observed there as a shutdown
    request.  Detach the wakeup fd and restore default dispositions so a
    worker's signals stay the worker's problem: SIGTERM default-kills it,
    SIGINT is ignored (Ctrl-C interrupts the parent, which then tears the
    pool down deliberately).  Only then are the signals unblocked: the
    worker was started with them blocked (see :func:`_signals_held`), so
    one that arrived earlier has waited for this point.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.set_wakeup_fd(-1)
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)


def _run_chunk(
    fn: "Callable[[Any], Any]",
    encode: "Callable[[Sequence[Any]], bytes]",
    items: "Sequence[Any]",
) -> "shm.ShmHandle | shm.InlineChunk":
    """Worker-side entry point: run one chunk, publish its results."""
    fault_point("pool.worker")
    return shm.share_chunk([fn(item) for item in items], encode)


class ProcessExecutor(Executor):
    """Process pool with shared-memory result transfer.

    Work is submitted in chunks of ``chunksize`` items; each worker runs its
    chunk, serializes the results once (the JSON representation the disk
    cache round-trips bit for bit) into a fresh shared-memory segment and
    returns only the segment's name.  The parent decodes and unlinks each
    segment as it consumes the result stream.  ``transfer`` selects the
    return path: ``"shm"``, ``"pickle"``, or ``"auto"`` (shm when the
    platform supports it and ``REPRO_SHM`` does not disable it).

    Workers are persistent: :class:`~concurrent.futures.ProcessPoolExecutor`
    never recycles a worker process, so each one serves chunk after chunk
    for the pool's whole lifetime.

    A dying worker (OOM kill, segfault) breaks the whole
    :class:`~concurrent.futures.ProcessPoolExecutor` — every pending future
    fails with :class:`BrokenProcessPool`, and so does any ``submit`` made
    after the breakage.  Consumed results are already
    safe, so this executor rebuilds the pool once and resubmits only the
    unconsumed chunks; if the rebuilt pool breaks too, the machine is
    telling us process workers do not survive here, and the remaining items
    run on a thread pool instead (``resilience.fallback_backend`` records
    the switch).  Results stay bit-for-bit identical in all three paths —
    only where they are computed changes.
    """

    name = "processes"

    def __init__(
        self,
        workers: int,
        chunksize: int = 1,
        transfer: str = "auto",
        encode: "Callable[[Sequence[Any]], bytes]" = shm.encode_experiment_results,
        decode: "Callable[[bytes], list[Any]]" = shm.decode_experiment_results,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if chunksize < 1:
            raise ExperimentError(f"chunksize must be >= 1, got {chunksize}")
        if transfer not in ("auto", "shm", "pickle"):
            raise ExperimentError(
                f"transfer must be 'auto', 'shm' or 'pickle', got {transfer!r}"
            )
        self.chunksize = chunksize
        self.chunk_span = chunksize
        self.resilience = ExecutorResilience()
        self._workers = workers
        self._encode = encode
        self._decode = decode
        self._use_shm = transfer == "shm" or (transfer == "auto" and shm.shm_available())
        self._pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
        self._fallback_pool: "ThreadPoolExecutor | None" = None
        self._futures: "list[Future]" = []
        self._consumed = 0
        self._fn: "Callable[[Any], Any] | None" = None
        self._chunks: "list[list[Any]]" = []

    def map(self, fn: "Callable[[Any], Any]", items: "Sequence[Any]") -> Iterator[Any]:
        items = list(items)
        self._fn = fn
        self._chunks = [
            items[start : start + self.chunksize]
            for start in range(0, len(items), self.chunksize)
        ]
        self._futures = self._submit(self._chunks)

        def _results() -> Iterator[Any]:
            index = 0
            while index < len(self._futures):
                try:
                    handle = self._futures[index].result()
                except BrokenProcessPool:
                    self._recover(index)
                    if self.resilience.fallback_backend:
                        yield from self._fallback_results(index)
                        return
                    continue  # retry this chunk's future on the rebuilt pool
                self._consumed = index + 1
                yield from shm.receive_chunk(handle, self._decode)
                index += 1

        return _results()

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True, cancel_futures=cancel)
        # Any chunk that completed without being consumed still owns a
        # shared-memory segment nobody will decode; free them whether this
        # is a cancellation (sweep failure) or a clean exit with the result
        # iterator abandoned early, so neither path can leak /dev/shm
        # space.  (Cancelled or failed futures never created a segment: the
        # worker either published or raised.)
        self._discard_unconsumed()
        self._futures = []
        self._consumed = 0

    # ----------------------------------------------------------- resilience

    def _submit(self, chunks: "list[list[Any]]") -> "list[Future]":
        """One future per chunk, in order.

        A worker can die while chunks are still being submitted; ``submit``
        then raises :class:`BrokenProcessPool` itself.  Every chunk left
        unsubmitted gets a future failed with that error instead, so the
        result loop sends it through :meth:`_recover` exactly like a
        breakage observed at result time.
        """
        futures: "list[Future]" = []
        with _signals_held():
            for chunk in chunks:
                try:
                    if self._use_shm:
                        future = self._pool.submit(_run_chunk, self._fn, self._encode, chunk)
                    else:
                        future = self._pool.submit(_run_pickled_chunk, self._fn, chunk)
                except BrokenProcessPool as exc:
                    failed: Future = Future()
                    failed.set_exception(exc)
                    futures.extend([failed] * (len(chunks) - len(futures)))
                    break
                futures.append(future)
        return futures

    def _discard_unconsumed(self) -> None:
        for future in self._futures[self._consumed :]:
            if future.done() and not future.cancelled() and future.exception() is None:
                shm.discard_chunk(future.result())

    def _recover(self, index: int) -> None:
        """React to pool breakage observed at chunk ``index``.

        First breakage: rebuild the pool (same signal-hygiene initializer)
        and resubmit every unconsumed chunk.  Second
        breakage: mark the threads fallback; the caller reruns the
        remaining items in-process.  Either way the broken pool is torn
        down without waiting — its workers are already gone.
        """
        remaining = self._chunks[index:]
        # Chunks that published a segment before the pool broke would leak
        # it once resubmission recomputes them; free those segments first.
        self._discard_unconsumed()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.resilience.chunks_resubmitted += len(remaining)
        if not self.resilience.pool_rebuilds:
            self.resilience.pool_rebuilds += 1
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_worker_init
            )
            self._futures[index:] = self._submit(remaining)
        else:
            self.resilience.fallback_backend = "threads"

    def _fallback_results(self, index: int) -> Iterator[Any]:
        """Run every item of the unconsumed chunks on a thread pool.

        The process pool broke twice; threads cannot be OOM-killed away
        from under us, and correctness does not depend on the backend (the
        serial/threads/processes contract is bit-for-bit equality).
        """
        items = [item for chunk in self._chunks[index:] for item in chunk]
        self._fallback_pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-sweep-fallback"
        )
        futures = [self._fallback_pool.submit(self._fn, item) for item in items]
        # The old futures all failed with BrokenProcessPool and own no
        # segments; mark them consumed so shutdown() skips them.
        self._consumed = len(self._futures)
        for future in futures:
            yield future.result()


def _run_pickled_chunk(fn: "Callable[[Any], Any]", items: "Sequence[Any]") -> "shm.InlineChunk":
    """Worker-side entry point for the forced-pickle transfer mode."""
    fault_point("pool.worker")
    return shm.InlineChunk(values=tuple(fn(item) for item in items))


def choose_backend(workload: str = "estimation") -> str:
    """Per-workload default backend.

    ``"estimation"`` workloads (switching-activity sweeps — the common
    case) are NumPy-bound with released-GIL kernels, so threads win: no
    pickling, shared caches, near-linear scaling.  ``"generation"``
    workloads dominated by GIL-holding Python (custom pattern generators,
    pure-Python feature extraction) need real processes.
    """
    if workload not in ("estimation", "generation"):
        raise ExperimentError(
            f"workload must be 'estimation' or 'generation', got {workload!r}"
        )
    return "threads" if workload == "estimation" else "processes"


def resolve_backend(
    backend: str = "auto", workers: int = 1, workload: str = "estimation"
) -> str:
    """Resolve a ``backend=`` argument to a concrete backend name.

    ``"auto"`` picks per workload (see :func:`choose_backend`), collapses to
    ``"serial"`` when ``workers == 1`` (no pool can help), and honours the
    ``REPRO_PARALLEL_BACKEND`` environment override.  Explicit names are
    validated and returned unchanged.
    """
    if backend != "auto":
        if backend not in BACKENDS:
            raise ExperimentError(
                f"backend must be one of {BACKENDS + ('auto',)}, got {backend!r}"
            )
        return backend
    override = os.environ.get(ENV_BACKEND, "").strip().lower()
    if override:
        if override not in BACKENDS:
            raise ExperimentError(
                f"{ENV_BACKEND} must be one of {BACKENDS}, got {override!r}"
            )
        return override
    if workers <= 1:
        return "serial"
    return choose_backend(workload)


def get_executor(
    backend: str,
    workers: int = 1,
    chunksize: int = 1,
    transfer: str = "auto",
) -> Executor:
    """Build the executor for a resolved backend name."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "threads":
        return ThreadExecutor(workers)
    if backend == "processes":
        return ProcessExecutor(workers, chunksize=chunksize, transfer=transfer)
    raise ExperimentError(f"backend must be one of {BACKENDS}, got {backend!r}")
