"""Parameter sweeps over experiment configurations.

Sweeps are the unit of work behind every figure panel: one configuration,
one parameter varied over a list of values.  Runs are embarrassingly
parallel across sweep points; ``workers > 1`` distributes them over one of
the :mod:`repro.parallel` backends (each point re-creates its device and
models locally, so no state is shared).  ``backend="auto"`` — the default —
resolves to a thread pool: the estimation kernels release the GIL inside
NumPy, so threads scale without pickling configs out or results back.
``backend="processes"`` keeps a process pool available for GIL-holding
workloads; its results return through shared memory
(:mod:`repro.parallel.shm`) rather than the executor's pickle pipe.
Results are bit-for-bit identical across backends at any worker count.

The runner is cache- and duplicate-aware: every configuration is
fingerprinted (:mod:`repro.cache.fingerprint`), physically identical points
are computed once, previously computed points are served from the
content-addressed result cache, and only the remainder is submitted to the
backend — in chunks for the process pool, to amortize start-up costs.
Beneath the result cache sits the per-seed activity tier: points that
differ only in GPU model, clocks or measurement procedure reuse one
switching-activity estimate per seed, so a warm cross-device sweep skips
estimation entirely.  A ``progress`` hook and a :class:`RunStats`
out-parameter expose what happened; a failing point cancels the rest of
the backend's queue and is re-raised with its config label attached.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro._deprecated import ignore_plan_cache
from repro.cache.fingerprint import experiment_fingerprint
from repro.cache.store import DEFAULT_CACHE, resolve_activity_cache, resolve_cache
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ExperimentRunner
from repro.experiments.results import ExperimentResult, SweepResult
from repro.parallel import get_executor, resolve_backend

__all__ = ["RunStats", "run_sweep", "run_configs", "sweep_configs"]

#: Signature of the optional progress hook: ``(done, total, label)`` where
#: ``done``/``total`` count the *distinct* configurations the runner resolves
#: (duplicates complete together with their representative when deduplication
#: is on) and ``label`` names the configuration that just completed or was
#: served from the cache.
ProgressHook = Callable[[int, int, str], None]


@dataclass
class RunStats:
    """What a :func:`run_configs` invocation actually did."""

    #: sweep points requested
    total: int = 0
    #: configurations resolved independently: distinct fingerprints when
    #: deduplication is on, every requested point otherwise
    unique: int = 0
    #: distinct configurations served from the result cache
    cache_hits: int = 0
    #: distinct configurations actually computed
    executed: int = 0
    #: wall-clock time of the whole call, seconds
    duration_s: float = 0.0
    #: execution backend the computed points actually ran on (``"serial"``
    #: when everything was inline or served from the cache)
    backend: str = "serial"
    #: times the process pool was rebuilt after breakage (dead worker)
    pool_rebuilds: int = 0
    #: chunks resubmitted (or rerun on the fallback) after pool breakage
    chunks_resubmitted: int = 0
    #: non-empty when the executor abandoned its native pool mid-run (e.g.
    #: ``"threads"`` after the rebuilt process pool broke again)
    degraded_backend: str = ""

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def sweep_configs(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[Any],
    target: str = "pattern",
) -> list[ExperimentConfig]:
    """Build the list of configs for a sweep.

    ``target`` selects where the parameter lives: ``"pattern"`` puts it into
    the pattern parameters (e.g. ``std``, ``sparsity``, ``fraction``);
    ``"config"`` replaces a field of the experiment config itself (e.g.
    ``dtype``, ``matrix_size``, ``gpu``).
    """
    if target not in ("pattern", "config"):
        raise ExperimentError(f"target must be 'pattern' or 'config', got {target!r}")
    if not values:
        raise ExperimentError("a sweep needs at least one value")
    configs = []
    for value in values:
        if target == "pattern":
            params = dict(base.pattern_params)
            params[parameter] = value
            config = base.with_overrides(pattern_params=params)
        else:
            config = base.with_overrides(**{parameter: value})
        config = config.with_overrides(label=f"{base.label or base.pattern_family}:{parameter}={value}")
        configs.append(config)
    return configs


def _run_uncached(
    config: ExperimentConfig, activity_cache: "object | None" = DEFAULT_CACHE
) -> ExperimentResult:
    """Pool worker entry point: always compute the experiment (workers have
    no shared result cache), but do consult the activity tier — each worker
    process uses its own default, which shares warm per-seed estimates
    through ``REPRO_CACHE_DIR`` when one is configured."""
    return ExperimentRunner(config, activity_cache=activity_cache).run()


def _stamp_label(result: ExperimentResult, config: ExperimentConfig) -> ExperimentResult:
    """Stamp ``config``'s label onto ``result`` (labels are not fingerprinted)."""
    result.config["label"] = config.describe()["label"]
    return result


def _chunk_group(
    pending: "Sequence[tuple[str, list[int]]]", position: int, span: int
) -> "list[tuple[str, list[int]]]":
    """The pending entries submitted in the same chunk as ``position``.

    Chunks tile the pending list from the front in steps of ``span``, so the
    chunk containing ``position`` starts at the previous multiple of ``span``
    and ends at most ``span`` entries later — clamped to the list, because
    the last chunk may be partial.  Blame for a chunk failure must cover
    exactly that chunk: naming points past its boundary would accuse sweep
    points that were never even submitted together with the failing one.
    """
    start = position - (position % span)
    return list(pending[start : min(start + span, len(pending))])


def run_configs(
    configs: Iterable[ExperimentConfig],
    workers: int = 1,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    dedupe: bool = True,
    chunksize: int | None = None,
    progress: ProgressHook | None = None,
    stats: RunStats | None = None,
    backend: str = "auto",
) -> list[ExperimentResult]:
    """Run a list of configurations, optionally across an execution backend.

    Parameters
    ----------
    configs:
        The configurations to run; results come back in the same order.
    workers:
        Backend pool width.  ``1`` runs inline.
    cache:
        An explicit :class:`~repro.cache.store.ExperimentCache`, ``None`` to
        disable caching, or the default sentinel for the process-wide cache.
    activity_cache:
        Per-seed activity tier (:class:`~repro.cache.store.ActivityCache`,
        ``None``, or the default sentinel).  Points that only differ in GPU
        model, clocks or measurement procedure share one activity estimate
        per seed through it.  ``None`` disables the tier everywhere,
        including pool workers.  An explicit cache *instance* is honoured by
        the in-process backends (``serial`` and ``threads``); process-pool
        workers cannot usefully share an in-memory instance, so they use
        their own process default (which still shares warm entries via
        ``REPRO_CACHE_DIR``).
    plan_cache:
        Deprecated and ignored (the plan tier was removed).
    dedupe:
        Compute physically identical configurations (same fingerprint,
        labels aside) only once and fan the result back out.
    chunksize:
        Process-backend submission chunk size; defaults to roughly four
        chunks per worker (and never more than the number of pending
        points), which amortizes worker start-up without starving the pool.
        The in-process backends submit per point and ignore it.
    progress:
        Optional ``(done, total, label)`` hook invoked as distinct
        configurations complete (see :data:`ProgressHook`).
    stats:
        Optional :class:`RunStats` instance filled in place with what the
        call did (useful alongside the returned results).
    backend:
        ``"serial"``, ``"threads"``, ``"processes"``, or ``"auto"`` (see
        :func:`repro.parallel.resolve_backend`).  ``auto`` picks ``threads``
        for ``workers > 1`` — the estimation kernels release the GIL inside
        NumPy — and collapses to ``serial`` otherwise; set
        ``REPRO_PARALLEL_BACKEND`` to steer ``auto`` globally.  Results are
        bit-for-bit identical whatever the choice.
    """
    ignore_plan_cache(plan_cache)
    config_list = list(configs)
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    if chunksize is not None and chunksize < 1:
        raise ExperimentError(
            f"chunksize must be >= 1 (or None for the automatic choice), got {chunksize}"
        )
    backend_name = resolve_backend(backend, workers=workers)
    stats = stats if stats is not None else RunStats()
    # Reset every counter: a reused RunStats instance must describe this
    # call only, not accumulate across calls.
    stats.total = len(config_list)
    stats.unique = 0
    stats.cache_hits = 0
    stats.executed = 0
    stats.duration_s = 0.0
    stats.backend = "serial"
    stats.pool_rebuilds = 0
    stats.chunks_resubmitted = 0
    stats.degraded_backend = ""
    started = time.perf_counter()

    resolved = resolve_cache(cache)
    resolved_activity = (
        resolve_activity_cache(activity_cache) if activity_cache is not None else None
    )
    results: list[ExperimentResult | None] = [None] * len(config_list)

    # Group indices by fingerprint (order-preserving).  Without deduplication
    # every index forms its own group, but fingerprints are still the cache
    # keys for the groups' representatives.
    groups: dict[str, list[int]] = {}
    if dedupe or resolved is not None:
        keys = [experiment_fingerprint(config) for config in config_list]
    else:
        keys = [str(index) for index in range(len(config_list))]
    if dedupe:
        for index, key in enumerate(keys):
            groups.setdefault(key, []).append(index)
    else:
        for index, key in enumerate(keys):
            groups.setdefault(f"{key}#{index}", []).append(index)
    stats.unique = len(groups)

    done = 0
    total = len(groups)

    def _complete(key: str, indices: list[int], result: ExperimentResult) -> None:
        nonlocal done
        for position, index in enumerate(indices):
            copied = result if position == 0 else copy.deepcopy(result)
            results[index] = _stamp_label(copied, config_list[index])
        done += 1
        if progress is not None:
            progress(done, total, config_list[indices[0]].describe()["label"])

    pending: list[tuple[str, list[int]]] = []
    for key, indices in groups.items():
        cached = resolved.get(key.split("#")[0]) if resolved is not None else None
        if cached is not None:
            stats.cache_hits += 1
            _complete(key, indices, cached)
        else:
            pending.append((key, indices))

    def _consume(computed: Iterable[ExperimentResult], span: int = 1) -> None:
        """Fold computed results into ``results``; on failure, re-raise with
        the failing config's label attached.  Results arrive in submission
        order, but a process-pool chunk fails as a unit (the worker loses
        the results of the chunk's earlier points too), so with ``span > 1``
        the raising point is only known to lie somewhere in its chunk —
        name the chunk's points, and only those (see :func:`_chunk_group`)."""
        iterator = iter(computed)
        for position, (key, indices) in enumerate(pending):
            try:
                result = next(iterator)
            except StopIteration:  # pragma: no cover - executor invariant
                raise ExperimentError(
                    "executor returned fewer results than submitted configs"
                ) from None
            except Exception as exc:
                group = _chunk_group(pending, position, span)
                labels = [
                    config_list[group_indices[0]].describe()["label"]
                    for _, group_indices in group
                ]
                if len(labels) == 1:
                    message = f"sweep point {labels[0]!r} failed: {exc}"
                else:
                    message = (
                        f"a sweep point in chunk {labels!r} failed: {exc}"
                    )
                raise ExperimentError(message) from exc
            if resolved is not None:
                resolved.put(key.split("#")[0], result)
            stats.executed += 1
            _complete(key, indices, result)

    if pending:
        pending_configs = [config_list[indices[0]] for _, indices in pending]
        if workers == 1 or len(pending_configs) == 1:
            # A pool cannot help a single point, and workers=1 means "run
            # inline" whatever the backend — both collapse to serial.
            backend_name = "serial"
        stats.backend = backend_name
        if backend_name == "processes":
            if chunksize is None:
                chunksize = max(1, len(pending_configs) // (workers * 4))
            chunksize = min(chunksize, len(pending_configs))
            # An explicit activity_cache=None is an instruction to really
            # recompute, so forward the disable into the workers; explicit
            # cache *instances* cannot cross the process boundary usefully
            # (state would not come back), so workers otherwise keep their
            # own process default.
            worker = (
                partial(_run_uncached, activity_cache=None)
                if activity_cache is None
                else _run_uncached
            )
            executor = get_executor("processes", workers, chunksize=chunksize)
        else:
            # serial and threads run in-process: an explicit activity cache
            # instance is honoured directly (threads share the parent's
            # memory, so warm entries flow both ways).
            worker = partial(_run_uncached, activity_cache=resolved_activity)
            executor = get_executor(backend_name, workers)
        try:
            _consume(executor.map(worker, pending_configs), span=executor.chunk_span)
        except BaseException:
            # Don't let queued sweep points keep computing (or leak worker
            # processes / shared-memory segments) after one point failed.
            executor.shutdown(cancel=True)
            raise
        # Surface what the executor had to absorb (process-pool rebuilds,
        # chunk resubmissions, a threads fallback) in this run's stats —
        # results are identical either way, but the events must be loud.
        resilience = getattr(executor, "resilience", None)
        if resilience is not None:
            stats.pool_rebuilds = resilience.pool_rebuilds
            stats.chunks_resubmitted = resilience.chunks_resubmitted
            stats.degraded_backend = resilience.fallback_backend
        executor.shutdown()

    stats.duration_s = time.perf_counter() - started
    return [result for result in results if result is not None]


def run_sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[Any],
    target: str = "pattern",
    label: str = "",
    workers: int = 1,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    progress: ProgressHook | None = None,
    stats: RunStats | None = None,
    backend: str = "auto",
) -> SweepResult:
    """Run a one-parameter sweep and collect it into a :class:`SweepResult`.

    ``plan_cache`` is deprecated and ignored."""
    ignore_plan_cache(plan_cache)
    configs = sweep_configs(base, parameter, values, target=target)
    results = run_configs(
        configs,
        workers=workers,
        cache=cache,
        activity_cache=activity_cache,
        progress=progress,
        stats=stats,
        backend=backend,
    )
    return SweepResult(
        parameter=parameter,
        values=list(values),
        results=results,
        label=label or f"{base.pattern_family}/{base.dtype}/{base.gpu}: {parameter} sweep",
    )
