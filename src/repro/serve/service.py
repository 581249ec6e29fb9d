"""Transport-independent estimation service: coalescing, batching, admission.

:class:`EstimationService` is the heart of the serving layer.  It accepts
experiment configurations from any front end (the HTTP server in
:mod:`repro.serve.server`, or tests driving it directly) and turns them
into calls on the sweep machinery, with four serving-specific behaviours
layered on top:

**Single-flight coalescing.**  Requests are keyed by
:func:`~repro.cache.fingerprint.experiment_fingerprint` — the same
content-addressed key the result cache uses, so two requests differing
only in label coalesce exactly when the cache would serve one from the
other.  The first request for a key creates a future and enqueues the
work; every concurrent duplicate awaits that same future and never touches
the queue.  The estimation core is deterministic, so a coalesced response
is bit-for-bit the response a dedicated computation would have produced.

**Warm hits on the loop.**  A request whose key is not in flight is
first looked up in the experiment tier's in-memory LRU
(:meth:`~repro.cache.store.JsonDiskCache.get_memory`).  A hit is answered
right there on the event loop: no admission slot, no batch, no hop to the
compute thread.  The lookup never creates the default cache and never
reads disk, so a miss, or an entry only on disk, takes the batch path.

**Natural batching.**  There is no timer.  A request admitted while the
compute thread is idle dispatches at once; requests admitted while a
batch computes queue up and drain together, at most ``max_batch`` at a
time, through one :func:`~repro.experiments.sweep.run_configs` call per
batch — inheriting its deduplication, caching and execution backends.
Submits already scheduled on the loop (an ``asyncio.gather`` burst) queue
before the drain task first runs, so they share one batch.  A batch
computes in a single worker thread (``run_configs`` manages its own pool),
keeping the event loop free to accept, coalesce and reject while
estimation runs.
Batch failures are *isolated*: when a batch raises, every configuration in
it is re-run individually, so one poisoned configuration fails only its own
future instead of rejecting every request drained into the batch.

**Bounded admission.**  At most ``max_pending`` distinct keys may be
in flight; the next new key is rejected with
:class:`~repro.errors.ServiceOverloadedError` (HTTP 429 upstream).
Duplicates of an in-flight key always coalesce — joining an existing
future consumes no new capacity, so a thundering herd of identical
requests cannot wedge the service.

**Deadlines and health.**  ``timeout_s`` (``REPRO_SERVE_TIMEOUT_S``) caps
how long any one waiter blocks: past the deadline it gets
:class:`~repro.errors.ServiceTimeoutError` (HTTP 504 upstream) while the
shielded computation keeps running for later duplicates and the cache.
:meth:`EstimationService.health` rolls up the sticky degradations the
resilience layer records — a cache tier fallen back to memory-only — into
the ``/healthz`` body, so "still correct but needs attention" is
observable without grepping logs.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from repro import env
from repro._deprecated import ignore_batch_window, ignore_plan_cache, processes_backend
from repro.cache.fingerprint import experiment_fingerprint
from repro.cache.store import DEFAULT_CACHE, ExperimentCache, peek_default_caches
from repro.errors import ServiceOverloadedError, ServiceTimeoutError, ServingError
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.sweep import RunStats, run_configs
from repro.faults import fault_point
from repro.parallel import executor_defaults, resolve_backend

__all__ = ["ServiceConfig", "ServiceStats", "EstimationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs; :meth:`from_env` reads the ``REPRO_SERVE_*`` family
    and :func:`~repro.parallel.executor_defaults` for ``backend``/``workers``."""

    #: distinct in-flight requests admitted before 429s (coalesced
    #: duplicates ride along for free)
    max_pending: int = 64
    #: deprecated and ignored (kept in its old place for positional
    #: callers): batches drain as soon as the compute thread is idle
    batch_window_s: InitVar["float | None"] = None
    #: most configurations handed to one ``run_configs`` call
    max_batch: int = 16
    #: ``workers=`` for each batch (1 = inline in the compute thread)
    workers: int = 1
    #: execution backend for each batch (see :mod:`repro.parallel`)
    backend: str = "auto"
    #: per-request deadline, seconds (0 disables); an expired waiter gets
    #: :class:`~repro.errors.ServiceTimeoutError` (HTTP 504 upstream) while
    #: the shared computation keeps running for any later duplicate
    timeout_s: float = 0.0

    def __post_init__(self, batch_window_s: "float | None") -> None:
        ignore_batch_window(batch_window_s)
        if self.max_pending < 1:
            raise ServingError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")
        if not (math.isfinite(self.timeout_s) and self.timeout_s >= 0):
            raise ServingError(f"timeout_s must be finite and >= 0, got {self.timeout_s}")
        # A deprecated "processes" warns here, once, and is kept as threads.
        object.__setattr__(self, "backend", processes_backend(self.backend))
        resolve_backend(self.backend, self.workers)  # ExperimentError if unknown

    @classmethod
    def from_env(cls, environ: "Mapping[str, str] | None" = None) -> "ServiceConfig":
        backend, workers = executor_defaults("SERVE", environ=environ)
        return cls(
            max_pending=env.read("REPRO_SERVE_MAX_PENDING", environ),
            max_batch=env.read("REPRO_SERVE_MAX_BATCH", environ),
            workers=workers,
            backend=backend,
            timeout_s=env.read("REPRO_SERVE_TIMEOUT_S", environ),
        )


@dataclass
class ServiceStats:
    """Live serving counters, exposed verbatim on ``/stats``."""

    #: requests submitted (answered from memory, admitted, coalesced or
    #: rejected)
    requests: int = 0
    #: requests that joined an already-in-flight computation
    coalesced: int = 0
    #: requests rejected by admission control
    rejected: int = 0
    #: distinct configurations whose computation ultimately raised (after
    #: batch-failure isolation re-ran them individually)
    errors: int = 0
    #: ``run_configs`` batches drained (warm memory hits need none)
    batches: int = 0
    #: configurations re-run individually because their batch failed —
    #: survivors of a poisoned batch complete instead of inheriting the
    #: poison's exception
    isolated_retries: int = 0
    #: requests whose waiter hit the per-request deadline (HTTP 504)
    timeouts: int = 0
    #: cumulative sweep-runner accounting across all batches, with each
    #: warm memory hit counted as a one-config cache hit
    run: RunStats = field(default_factory=RunStats)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class EstimationService:
    """Coalescing, batching front door over the estimation machinery.

    One instance serves one event loop.  ``compute`` is injectable for
    tests; it must accept the keyword arguments :meth:`_run_batch` passes
    to :func:`~repro.experiments.sweep.run_configs`.  ``plan_cache`` is
    deprecated and ignored.
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        *,
        cache: "object | None" = DEFAULT_CACHE,
        activity_cache: "object | None" = DEFAULT_CACHE,
        plan_cache: object = None,
        compute: "Callable[..., list[ExperimentResult]] | None" = None,
    ) -> None:
        ignore_plan_cache(plan_cache)
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        self._cache = cache
        self._activity_cache = activity_cache
        self._compute = compute if compute is not None else run_configs
        #: key -> future shared by every coalesced waiter of that key
        self._inflight: "dict[str, asyncio.Future[ExperimentResult]]" = {}
        #: keys admitted but not yet drained into a batch
        self._queue: "list[tuple[str, ExperimentConfig]]" = []
        self._batcher: "asyncio.Task[None] | None" = None
        # One compute thread: batches serialize behind each other (each
        # batch parallelizes internally via run_configs' own backends),
        # while the event loop stays responsive for admission/coalescing.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )
        self._closed = False

    # ------------------------------------------------------------------ API

    async def submit(self, config: ExperimentConfig) -> ExperimentResult:
        """Estimate one configuration, coalescing with identical in-flight work.

        Returns the (possibly shared) :class:`ExperimentResult`.  Callers
        must not mutate it; serialize with :meth:`render_result`, which
        re-stamps the label the way the result cache does.
        """
        return await self._submit_keyed(config, experiment_fingerprint(config))

    async def _submit_keyed(self, config: ExperimentConfig, key: str) -> ExperimentResult:
        """:meth:`submit` for a caller that already holds ``config``'s
        fingerprint (the HTTP front end, which also puts it in the body)."""
        if self._closed:
            raise ServingError("service is closed")
        self.stats.requests += 1
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats.coalesced += 1
            return await self._await_result(existing)
        hit = self._memory_hit(config, key)
        if hit is not None:
            return hit
        if len(self._inflight) >= self.config.max_pending:
            self.stats.rejected += 1
            raise ServiceOverloadedError(
                f"{len(self._inflight)} requests in flight "
                f"(max_pending={self.config.max_pending})"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ExperimentResult]" = loop.create_future()
        self._inflight[key] = future
        self._queue.append((key, config))
        if self._batcher is None or self._batcher.done():
            self._batcher = loop.create_task(self._drain())
        return await self._await_result(future)

    def _memory_hit(self, config: ExperimentConfig, key: str) -> "ExperimentResult | None":
        """A warm hit answered on the event loop, or ``None``.

        Only the experiment tier's in-memory LRU is consulted: the explicit
        ``cache``, or the process default if it already exists.  Creating
        the default or reading its disk tier may block, so both are left
        to the batch path.  A hit is counted in ``stats.run`` as a
        one-config ``run_configs`` hit would be.
        """
        tier = self._cache
        if tier is DEFAULT_CACHE:
            tier = peek_default_caches().get("experiment")
        if not isinstance(tier, ExperimentCache):
            return None
        result = tier.get_memory(key)
        if result is None:
            return None
        result.config["label"] = config.describe()["label"]
        run = self.stats.run
        run.total += 1
        run.unique += 1
        run.cache_hits += 1
        return result

    async def _await_result(
        self, future: "asyncio.Future[ExperimentResult]"
    ) -> ExperimentResult:
        """Await a (possibly shared) result under the per-request deadline.

        The shield keeps a timed-out or cancelled waiter from cancelling
        the computation other coalesced requests still await; only this
        waiter's deadline expires, as :class:`ServiceTimeoutError`.
        """
        waiter = asyncio.shield(future)
        if self.config.timeout_s <= 0:
            return await waiter
        try:
            return await asyncio.wait_for(waiter, self.config.timeout_s)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise ServiceTimeoutError(
                f"request exceeded its {self.config.timeout_s:g}s deadline"
            ) from None

    @staticmethod
    def render_result(config: ExperimentConfig, result: ExperimentResult) -> dict[str, Any]:
        """JSON document for one response.

        Coalesced waiters share one result object, so the per-request label
        (excluded from the fingerprint, exactly like in the result cache) is
        re-stamped on the serialized copy, never on the shared object.
        """
        payload = result.as_dict()
        payload["config"]["label"] = config.describe()["label"]
        return payload

    def describe(self) -> dict[str, Any]:
        """Service counters plus per-tier cache counters (the ``/stats`` body).

        Cache tiers appear when this process has created them — the default
        caches are lazy, so a service that has not yet computed anything
        reports no tiers rather than fabricating empty ones.
        """
        return {
            "service": self.stats.as_dict(),
            "pending": len(self._inflight),
            "config": {
                "max_pending": self.config.max_pending,
                "max_batch": self.config.max_batch,
                "workers": self.config.workers,
                "backend": self.config.backend,
                "timeout_s": self.config.timeout_s,
            },
            "caches": {
                name: cache.describe_memory()
                for name, cache in self._cache_tiers().items()
            },
            "health": self.health(),
        }

    def health(self) -> dict[str, Any]:
        """Degradation roll-up for ``/healthz``.

        ``status`` is ``"degraded"`` when any cache tier fell back to
        memory-only operation; ``reasons`` lists every sticky degradation.  Degraded means
        "answers are still bit-for-bit correct but the deployment needs
        attention" — hard failures surface on requests, not here.
        """
        reasons: "list[str]" = []
        for name, cache in sorted(self._cache_tiers().items()):
            resilience = getattr(cache, "resilience", None)
            if resilience is not None and resilience.degraded:
                reasons.append(f"cache.{name}: {resilience.degraded_reason}")
        return {"status": "degraded" if reasons else "ok", "reasons": reasons}

    def _cache_tiers(self) -> dict[str, Any]:
        """The cache instances this service can describe: the process-wide
        defaults it actually uses plus any explicit per-service overrides."""
        tiers = dict(peek_default_caches())
        for name, cache in (
            ("experiment", self._cache),
            ("activity", self._activity_cache),
        ):
            if cache is not None and cache is not DEFAULT_CACHE:
                tiers[name] = cache
        return tiers

    async def close(self) -> None:
        """Stop accepting work, fail pending futures, release the executor."""
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None and not self._batcher.done():
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        for key, future in list(self._inflight.items()):
            if not future.done():
                future.set_exception(ServingError("service closed"))
            self._inflight.pop(key, None)
        self._queue.clear()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------ internals

    async def _drain(self) -> None:
        """Batcher: take what has queued, compute it, publish, repeat.

        Whatever queues while a batch computes forms the next batch.
        """
        while self._queue:
            batch = self._queue[: self.config.max_batch]
            del self._queue[: len(batch)]
            await self._run_batch(batch)

    async def _run_batch(self, batch: "list[tuple[str, ExperimentConfig]]") -> None:
        self.stats.batches += 1
        try:
            results = await self._compute_in_executor(
                [config for _, config in batch]
            )
        except Exception as exc:  # noqa: BLE001 - isolated per config below
            await self._isolate_batch_failure(batch, exc)
            return
        for (key, _), result in zip(batch, results):
            self._publish(key, result)

    async def _compute_in_executor(
        self, configs: "list[ExperimentConfig]"
    ) -> "list[ExperimentResult]":
        """One ``run_configs`` call on the compute thread; accumulates its
        :class:`RunStats` into the service totals only when it succeeds."""
        run_stats = RunStats()
        loop = asyncio.get_running_loop()
        job = partial(self._compute_batch, configs, run_stats)
        results = await loop.run_in_executor(self._executor, job)
        self._accumulate(run_stats)
        return results

    def _compute_batch(
        self, configs: "list[ExperimentConfig]", run_stats: RunStats
    ) -> "list[ExperimentResult]":
        """Compute-thread entry point for one batch.

        The ``serve.batch`` fault point fires here — on the compute thread,
        where a real batch failure would surface — so injected batch faults
        exercise exactly the isolation path production failures take.
        """
        fault_point("serve.batch")
        return self._compute(
            configs,
            workers=self.config.workers,
            cache=self._cache,
            activity_cache=self._activity_cache,
            stats=run_stats,
            backend=self.config.backend,
        )

    async def _isolate_batch_failure(
        self, batch: "list[tuple[str, ExperimentConfig]]", exc: Exception
    ) -> None:
        """Contain a failed batch to the configurations that actually fail.

        ``run_configs`` raises as a unit, so one poisoned configuration
        would otherwise reject every future drained into its batch.  Each
        configuration is re-run individually: survivors get their result,
        and only the configurations that fail *alone* get an exception.  A
        single-config batch needs no re-run — its failure is already its
        own.
        """
        if len(batch) == 1:
            self.stats.errors += 1
            self._fail(batch[0][0], exc)
            return
        for key, config in batch:
            self.stats.isolated_retries += 1
            try:
                results = await self._compute_in_executor([config])
            except Exception as single_exc:  # noqa: BLE001 - this config's own failure
                self.stats.errors += 1
                self._fail(key, single_exc)
            else:
                self._publish(key, results[0])

    def _publish(self, key: str, result: ExperimentResult) -> None:
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def _fail(self, key: str, exc: Exception) -> None:
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    def _accumulate(self, run_stats: RunStats) -> None:
        total = self.stats.run
        total.total += run_stats.total
        total.unique += run_stats.unique
        total.cache_hits += run_stats.cache_hits
        total.executed += run_stats.executed
        total.duration_s += run_stats.duration_s
        total.backend = run_stats.backend
