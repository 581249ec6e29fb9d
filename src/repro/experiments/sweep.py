"""Parameter sweeps over experiment configurations.

Sweeps are the unit of work behind every figure panel: one configuration,
one parameter varied over a list of values.  The unit of *execution* is
finer: every seed of a configuration draws from its own derived RNG
streams, so each uncached configuration is split into seed chunks of
:func:`~repro.core.pipeline.seed_chunk` seeds — one seed per chunk at 256²
and larger, a whole small configuration in one chunk.  Configurations that
draw the same base operands (equal
:func:`~repro.core.pipeline.shared_base_key`: dtype, shapes, ``base_seed``
and base pattern — the paper's method varies one input property on top of
one Gaussian draw) have the same chunks, and chunk ``i`` of all of them
forms one *seed group*: one executor task, which draws each base once
(:func:`~repro.core.pipeline.run_seed_group`) and returns one partial
result per member.  The parent concatenates a configuration's
measurements in seed order once its last chunk lands.  A worker therefore
holds one seed chunk's base operands plus one configuration's working set
at a time, and the seeds of one slow configuration spread over every
worker.  Grouping never leaves a pool fewer tasks than
``min(ungrouped chunk count, 4 × workers)``: the largest groups are
halved until there are that many (see :func:`_seed_groups`).

``workers > 1`` distributes the tasks over a thread pool
(:mod:`repro.parallel`): the estimation kernels release the GIL inside
NumPy, so threads scale without pickling configs out or results back.
Results are bit-for-bit identical to the serial run at any worker count.

The runner is cache- and duplicate-aware: every configuration is
fingerprinted (:mod:`repro.cache.fingerprint`), physically identical points
are computed once, previously computed points are served from the
content-addressed result cache, and only the remainder is split into
tasks.  Beneath the result cache sits the per-seed activity tier: points
that differ only in GPU model, clocks or measurement procedure reuse one
switching-activity estimate per seed, so a warm cross-device sweep skips
estimation entirely, and a partly warm configuration computes only its
missing seeds.  A ``progress`` hook and a :class:`RunStats` out-parameter
expose what happened; a failing task cancels the rest of the backend's
queue and is re-raised with the failing configuration's label attached.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro._deprecated import ignore_chunksize, ignore_plan_cache
from repro.cache.fingerprint import experiment_fingerprint
from repro.cache.store import DEFAULT_CACHE, resolve_activity_cache, resolve_cache
from repro.core.pipeline import run_seed_group, seed_chunk, shared_base_key
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
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


#: One seed chunk of a configuration: the config and the seed range
#: ``[start, stop)`` it runs.
SeedTask = tuple[ExperimentConfig, int, int]


def _seed_tasks(config: ExperimentConfig) -> list[SeedTask]:
    """Split ``config`` into chunks of :func:`~repro.core.pipeline.seed_chunk`
    seeds each (the last may be shorter), in seed order."""
    chunk = seed_chunk(config)
    return [
        (config, start, min(start + chunk, config.seeds))
        for start in range(0, config.seeds, chunk)
    ]


def _seed_groups(
    configs: Sequence[ExperimentConfig], workers: int = 1
) -> list[list[tuple[int, int, int]]]:
    """Plan the executor tasks: seed groups of ``(position, start, stop)``
    chunks, ``position`` indexing ``configs``.

    Chunk ``i`` of every configuration with the same
    :func:`~repro.core.pipeline.shared_base_key` joins one group (equal
    keys mean equal shapes, hence equal chunks); a configuration without a
    key gets groups of its own.  Groups come in order of first appearance,
    so each configuration's chunks stay in seed order.  Balance rule: with
    ``workers > 1`` grouping never leaves fewer tasks than ``min(ungrouped
    chunk count, 4 × workers)`` — about four tasks per worker.  While
    there are fewer,
    the first of the largest groups is halved in place (members keep their
    order), so the split costs as little sharing as it can.
    """
    groups: dict[object, list[tuple[int, int, int]]] = {}
    for position, config in enumerate(configs):
        key = shared_base_key(config)
        owner = ("alone", position) if key is None else key
        for chunk, (_, start, stop) in enumerate(_seed_tasks(config)):
            groups.setdefault((owner, chunk), []).append((position, start, stop))
    planned = list(groups.values())
    target = min(sum(len(group) for group in planned), 4 * workers) if workers > 1 else 0
    while len(planned) < target:
        largest = max(range(len(planned)), key=lambda index: len(planned[index]))
        group = planned[largest]
        half = (len(group) + 1) // 2
        planned[largest : largest + 1] = [group[:half], group[half:]]
    return planned


class _PointFailure(Exception):
    """A seed-group member's failure, tagged with its configuration's label;
    ``args`` is ``(label, detail)``."""


def _run_group(
    group: "Sequence[SeedTask]",
    activity_cache: "object | None" = DEFAULT_CACHE,
) -> list[ExperimentResult]:
    """Executor worker for every backend: run one seed group.

    Returns one partial result per member, holding only that chunk's
    measurements.  A failing member raises :class:`_PointFailure` naming
    its own label.  Workers never see the result cache, but do consult the
    activity tier."""
    runs = run_seed_group(group, activity_cache=activity_cache)
    results = []
    for config, _, _ in group:
        try:
            results.append(next(runs))
        except Exception as exc:
            raise _PointFailure(config.describe()["label"], str(exc)) from exc
    return results


def _stamp_label(result: ExperimentResult, config: ExperimentConfig) -> ExperimentResult:
    """Stamp ``config``'s label onto ``result`` (labels are not fingerprinted)."""
    result.config["label"] = config.describe()["label"]
    return result


def run_configs(
    configs: Iterable[ExperimentConfig],
    workers: int = 1,
    cache: "object | None" = DEFAULT_CACHE,
    activity_cache: "object | None" = DEFAULT_CACHE,
    plan_cache: object = None,
    dedupe: bool = True,
    chunksize: object = None,
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
        Backend pool width.  ``1`` runs inline.  Tasks are seed groups
        (one seed chunk of each configuration sharing a base draw), so even
        a single configuration spreads over the pool.
    cache:
        An explicit :class:`~repro.cache.store.ExperimentCache`, ``None`` to
        disable caching, or the default sentinel for the process-wide cache.
    activity_cache:
        Per-seed activity tier (:class:`~repro.cache.store.ActivityCache`,
        ``None``, or the default sentinel).  Points that only differ in GPU
        model, clocks or measurement procedure share one activity estimate
        per seed through it.  ``None`` disables the tier; pool threads share
        the instance (or the default) with the caller.
    plan_cache:
        Deprecated and ignored (the plan tier was removed).
    dedupe:
        Compute physically identical configurations (same fingerprint,
        labels aside) only once and fan the result back out.
    chunksize:
        Deprecated and ignored (only the removed process pool submitted
        work in chunks).
    progress:
        Optional ``(done, total, label)`` hook invoked as distinct
        configurations complete (see :data:`ProgressHook`).
    stats:
        Optional :class:`RunStats` instance filled in place with what the
        call did (useful alongside the returned results).
    backend:
        ``"serial"``, ``"threads"``, or ``"auto"`` (see
        :func:`repro.parallel.resolve_backend`).  ``auto`` picks ``threads``
        for ``workers > 1`` — the estimation kernels release the GIL inside
        NumPy — and collapses to ``serial`` otherwise; set
        ``REPRO_PARALLEL_BACKEND`` to steer ``auto`` globally.  Results are
        bit-for-bit identical whatever the choice.  The deprecated
        ``"processes"`` warns and runs on threads.
    """
    ignore_plan_cache(plan_cache)
    ignore_chunksize(chunksize)
    config_list = list(configs)
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
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

    # Every uncached configuration becomes one seed chunk per task slot;
    # chunks that draw the same base operands share a seed-group task.  An
    # inline run has no pool to balance, so its groups stay whole.
    representatives = [config_list[indices[0]] for _, indices in pending]
    pooled = workers > 1 and backend_name != "serial"
    groups = _seed_groups(representatives, workers if pooled else 1)

    def _consume(computed: Iterable[list[ExperimentResult]]) -> None:
        """Fold computed groups into ``results``: a configuration completes
        (cache put, label stamp, progress) once its last chunk lands, with
        its measurements concatenated in seed order.  A member's failure
        names its own configuration."""
        iterator = iter(computed)
        parts: dict[int, list[ExperimentResult]] = {}
        for group in groups:
            try:
                partials = next(iterator)
            except StopIteration:  # pragma: no cover - executor invariant
                raise ExperimentError(
                    "executor returned fewer results than submitted tasks"
                ) from None
            except _PointFailure as exc:
                label, detail = exc.args
                raise ExperimentError(
                    f"sweep point {label!r} failed: {detail}"
                ) from (exc.__cause__ or exc)
            for (owner, _, stop), partial_result in zip(group, partials):
                parts.setdefault(owner, []).append(partial_result)
                if stop < representatives[owner].seeds:
                    continue
                chunks = parts.pop(owner)
                result = chunks[0]
                if len(chunks) > 1:
                    result = ExperimentResult(
                        config=result.config,
                        measurements=[m for chunk in chunks for m in chunk.measurements],
                    )
                key, indices = pending[owner]
                if resolved is not None:
                    resolved.put(key.split("#")[0], result)
                stats.executed += 1
                _complete(key, indices, result)

    if groups:
        if workers == 1 or len(groups) == 1:
            # A pool cannot help a single task, and workers=1 means "run
            # inline" whatever the backend — both collapse to serial.
            backend_name = "serial"
        stats.backend = backend_name
        # Threads share the parent's memory, so an explicit activity cache
        # instance is honoured directly and warm entries flow both ways.
        worker = partial(_run_group, activity_cache=resolved_activity)
        executor = get_executor(backend_name, workers)
        tasks = [
            [(representatives[owner], start, stop) for owner, start, stop in group]
            for group in groups
        ]
        try:
            _consume(executor.map(worker, tasks))
        except BaseException:
            # Don't let queued tasks keep computing after one task failed.
            executor.shutdown(cancel=True)
            raise
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
