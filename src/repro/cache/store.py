"""Content-addressed result stores: the experiment and activity cache tiers.

The caches map fingerprints (see :mod:`repro.cache.fingerprint`) to values
through two storage tiers:

* an in-memory LRU bounded by ``max_entries`` (the hot tier every lookup
  touches first), and
* an optional on-disk store that survives the process and feeds the LRU
  on a memory miss: one WAL-mode SQLite database per tier directory
  (:class:`~repro.cache.sqlite_store.SqliteStore`), safe under the serving
  layer's concurrent multi-process traffic.

Two cache classes share that machinery:

* :class:`ExperimentCache` stores whole
  :class:`~repro.experiments.results.ExperimentResult` objects keyed by
  :func:`~repro.cache.fingerprint.experiment_fingerprint` — one entry per
  (config, code version).
* :class:`ActivityCache` stores per-seed
  :class:`~repro.activity.report.ActivityReport` objects keyed by
  :func:`~repro.cache.fingerprint.activity_fingerprint` — the expensive
  bit-level estimate, reusable across every experiment that shares the
  workload (GPU model, clocks and telemetry knobs do not matter).

Cache-tier invariants
---------------------

Every tier upholds four invariants, in roughly priority order:

1. **Correct-by-key** — a key is a SHA-256 digest over *everything* that
   determines the value, including resolved dtype/GPU specs and the code
   version; two configs with equal fingerprints are guaranteed bit-identical
   results, so a hit can never change what a caller computes, only when.
2. **Isolation** — values are defensively deep-copied on both ``put`` and
   ``get``, so callers can mutate results (e.g. re-stamp labels) without
   corrupting the store or each other.
3. **Crash/concurrency safety** — disk writes are atomic under concurrent
   processes (SQLite's WAL journaling), so processes sharing a cache
   directory can never observe a torn entry; unreadable or incompatible
   entries are treated as misses and deleted.  In-memory LRU
   bookkeeping is guarded by a re-entrant lock (the ``threads`` backend
   hits one instance from many workers), while copies and disk I/O run
   outside it.
4. **Boundedness** — the in-memory tier is a strict LRU of ``max_entries``;
   the disk tier is pruned by size/age lifecycle GC
   (:mod:`repro.cache.lifecycle`), never trusted to grow without limit.

Process-wide default instances back :func:`repro.run_experiment`, the sweep
runner and the activity engine; they are created lazily, bounded, and
controlled by the ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` /
``REPRO_CACHE_MAX_ENTRIES`` / ``REPRO_ACTIVITY_CACHE_MAX_ENTRIES``
environment variables.  When ``REPRO_CACHE_MAX_BYTES`` or
``REPRO_CACHE_MAX_AGE_DAYS`` is set, the shared disk directory is pruned
(see :mod:`repro.cache.lifecycle`) the first time a default cache is built.
"""

from __future__ import annotations

import copy
import errno as errno_module
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import env
from repro.cache.resilience import ResilienceStats
from repro.errors import ExperimentError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only; imported lazily at runtime
    from repro.activity.report import ActivityReport
    from repro.cache.sqlite_store import SqliteStore
    from repro.experiments.results import ExperimentResult

__all__ = [
    "CacheStats",
    "JsonDiskCache",
    "ExperimentCache",
    "ActivityCache",
    "DEFAULT_CACHE",
    "ACTIVITY_SUBDIR",
    "get_default_cache",
    "set_default_cache",
    "resolve_cache",
    "get_default_activity_cache",
    "set_default_activity_cache",
    "resolve_activity_cache",
    "peek_default_caches",
]

#: Subdirectory of a shared cache root (``REPRO_CACHE_DIR``) that holds the
#: activity tier's database; experiment entries live at the root itself.
ACTIVITY_SUBDIR = "activity"

@dataclass
class CacheStats:
    """Counters describing how a cache instance has been used."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "hit_rate": self.hit_rate,
        }


@dataclass
class JsonDiskCache:
    """Bounded LRU of JSON-serializable values with an optional disk store.

    Subclasses define the value type by overriding :meth:`_check_value`,
    :meth:`_serialize` and :meth:`_deserialize`; everything else — LRU
    bookkeeping, defensive copying, disk writes and corrupt-entry recovery
    — is shared.  Each value is stored on disk as one JSON document in a
    :class:`~repro.cache.sqlite_store.SqliteStore` row.

    Instances are thread-safe: the sweep runner's ``threads`` backend has
    many workers consulting one cache concurrently, so the LRU bookkeeping
    and the usage counters are guarded by a re-entrant lock.  (Disk entries
    are additionally safe across *processes* through SQLite journaling.)
    """

    max_entries: int = 128
    disk_dir: "str | Path | None" = None
    stats: CacheStats = field(default_factory=CacheStats)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ExperimentError(f"max_entries must be >= 1, got {self.max_entries}")
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._store: "SqliteStore | None" = None
        if self.disk_dir is not None:
            # Imported here so ``import repro`` does not load the SQLite
            # layer until a disk-backed cache is actually built.
            from repro.cache.sqlite_store import SqliteStore

            self.disk_dir = Path(self.disk_dir)
            try:
                # Sharing the resilience counters means SQLite-level retries
                # and quarantines show up in this tier's stats directly.
                self._store = SqliteStore(self.disk_dir, counters=self.resilience)
            except OSError as exc:
                # An unusable disk tier at construction (read-only FS, full
                # disk, unrecoverable corruption) degrades the cache to
                # memory-only instead of failing every experiment run.
                self.stats.disk_errors += 1
                self.resilience.degrade(f"disk tier unusable at open: {exc}")

    # ----------------------------------------------------- value protocol

    def _check_value(self, value: Any) -> None:
        """Raise :class:`ExperimentError` unless ``value`` is storable."""
        raise NotImplementedError

    def _serialize(self, value: Any) -> dict[str, Any]:
        raise NotImplementedError

    def _deserialize(self, data: dict[str, Any]) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------ API

    def get(self, key: str) -> Any:
        """Return a copy of the stored value for ``key``, or ``None``.

        Only the LRU bookkeeping and counters run under the lock; the
        defensive deep copy and any disk read happen outside it, so
        concurrent hits do not serialize on copying (stored entries are
        never mutated in place — ``put`` inserts its own copy and ``get``
        hands out copies — so unlocked reads of one entry are safe).
        """
        value = self.get_memory(key)
        if value is not None:
            return value
        entry = self._load_from_disk(key)
        with self._lock:
            if entry is not None:
                self._insert(key, entry)
                self.stats.hits += 1
                self.stats.disk_hits += 1
            else:
                self.stats.misses += 1
        return copy.deepcopy(entry) if entry is not None else None

    def get_memory(self, key: str) -> Any:
        """:meth:`get` restricted to the in-memory LRU: never touches disk.

        A hit refreshes the LRU order, counts as a hit and returns a copy,
        exactly as in :meth:`get`.  A miss counts nothing and returns
        ``None``, so a caller that falls back to :meth:`get` counts one
        lookup, not two.  This is the lookup an event loop may make.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return copy.deepcopy(entry)

    def put(self, key: str, value: Any) -> None:
        """Store a copy of ``value`` under ``key`` (memory and disk).

        The deep copy and the (atomic) disk write run outside the lock for
        the same reason as in :meth:`get`.
        """
        self._check_value(value)
        stored = copy.deepcopy(value)
        with self._lock:
            self._insert(key, stored)
            self.stats.puts += 1
        if self._store is not None:
            self._write_to_disk(key, value)

    def clear(self, disk: bool = False) -> None:
        """Drop every in-memory entry (and the disk entries when ``disk``)."""
        with self._lock:
            self._entries.clear()
        if disk and self._store is not None:
            try:
                self._store.clear()
            except OSError:
                with self._lock:
                    self.stats.disk_errors += 1

    def describe_memory(self) -> dict[str, Any]:
        """In-memory LRU occupancy and usage counters, for live inspection
        (the ``python -m repro.cache stats`` CLI includes this when invoked
        from a process that has default caches instantiated)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "disk_dir": str(self.disk_dir) if self.disk_dir is not None else None,
                **self.stats.as_dict(),
                "resilience": self.resilience.as_dict(),
            }

    # ------------------------------------------------------------- dunders

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        store = self._store
        if store is None:
            return False
        # Disk probe outside the lock, like every other disk touch here.
        try:
            return store.contains(key)
        except OSError:
            return False

    # ------------------------------------------------------------ internals

    def _insert(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _write_to_disk(self, key: str, value: Any) -> None:
        """Publish one entry to the disk store (atomic under both concurrent
        threads and concurrent processes)."""
        store = self._store
        if store is None:  # degraded concurrently; memory tier already has it
            return
        try:
            store.put(key, json.dumps(self._serialize(value)))
        except OSError as exc:
            with self._lock:
                self.stats.disk_errors += 1
            self._maybe_degrade(exc)

    def _load_from_disk(self, key: str) -> Any:
        store = self._store
        if store is None:
            return None
        try:
            raw = store.get(key)
        except OSError as exc:
            with self._lock:
                self.stats.disk_errors += 1
            self._maybe_degrade(exc)
            return None
        if raw is None:
            return None
        try:
            return self._deserialize(json.loads(raw))
        except (ValueError, ReproError):  # bad JSON, or a row repro.wire rejects
            # A corrupt or incompatible entry is a miss; delete it so it
            # does not occupy space or trip every future lookup.
            with self._lock:
                self.stats.disk_errors += 1
            try:
                store.delete(key)
            except OSError:
                pass
            return None

    #: ``errno`` values meaning the disk tier is unusable as a whole (not
    #: just one entry): full disk, quota, read-only filesystem.
    _FATAL_DISK_ERRNOS = frozenset(
        {errno_module.ENOSPC, errno_module.EROFS, errno_module.EDQUOT}
    )

    def _maybe_degrade(self, exc: OSError) -> None:
        """Fall back to memory-only operation on whole-tier disk failures.

        Per-entry failures keep the store: the next key may well work.
        A full or read-only filesystem will fail every future touch, so
        the store is dropped and the sticky ``degraded`` flag raised —
        results stay identical, only persistence stops.
        """
        if exc.errno not in self._FATAL_DISK_ERRNOS:
            return
        self._store = None
        self.resilience.degrade(f"memory-only: {exc}")


@dataclass
class ExperimentCache(JsonDiskCache):
    """LRU + disk store of whole :class:`ExperimentResult` objects."""

    def _check_value(self, value: Any) -> None:
        from repro.experiments.results import ExperimentResult

        if not isinstance(value, ExperimentResult):
            raise ExperimentError(
                f"ExperimentCache stores ExperimentResult, got {type(value).__name__}"
            )

    def _serialize(self, value: "ExperimentResult") -> dict[str, Any]:
        return value.as_dict()

    def _deserialize(self, data: dict[str, Any]) -> "ExperimentResult":
        from repro.experiments.results import ExperimentResult

        return ExperimentResult.from_dict(data)


@dataclass
class ActivityCache(JsonDiskCache):
    """LRU + disk store of per-seed :class:`ActivityReport` objects.

    Reports are small (a couple dozen floats), so the default LRU is much
    wider than the experiment tier's.
    """

    max_entries: int = 1024

    def _check_value(self, value: Any) -> None:
        from repro.activity.report import ActivityReport

        if not isinstance(value, ActivityReport):
            raise ExperimentError(
                f"ActivityCache stores ActivityReport, got {type(value).__name__}"
            )

    def _serialize(self, value: "ActivityReport") -> dict[str, Any]:
        return value.as_dict()

    def _deserialize(self, data: dict[str, Any]) -> "ActivityReport":
        from repro.activity.report import ActivityReport

        return ActivityReport.from_dict(data)


# --------------------------------------------------------- default instances

#: Sentinel meaning "use the process-wide default cache" in APIs that accept
#: an optional cache (``None`` always means "no caching").
DEFAULT_CACHE = object()

_default_cache: ExperimentCache | None = None
_default_initialized = False
_default_activity_cache: ActivityCache | None = None
_default_activity_initialized = False
_auto_pruned = False


def _maybe_auto_prune(root: str) -> None:
    """Apply ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE_DAYS`` once
    per process, when the first disk-backed default cache is created."""
    global _auto_pruned
    if _auto_pruned:
        return
    _auto_pruned = True
    max_bytes = env.read("REPRO_CACHE_MAX_BYTES")
    max_age_days = env.read("REPRO_CACHE_MAX_AGE_DAYS")
    if max_bytes is None and max_age_days is None:
        return
    from repro.cache.lifecycle import prune_cache_dir

    max_age_s = None if max_age_days is None else max_age_days * 86400.0
    prune_cache_dir(root, max_bytes=max_bytes, max_age_s=max_age_s)


def get_default_cache() -> ExperimentCache | None:
    """Return the lazily created process-wide cache (``None`` if disabled)."""
    global _default_cache, _default_initialized
    if not _default_initialized:
        _default_initialized = True
        if env.read("REPRO_NO_CACHE"):
            _default_cache = None
        else:
            max_entries = env.read("REPRO_CACHE_MAX_ENTRIES")
            disk_dir = env.read("REPRO_CACHE_DIR")
            if disk_dir is not None:
                _maybe_auto_prune(disk_dir)
            _default_cache = ExperimentCache(max_entries=max_entries, disk_dir=disk_dir)
    return _default_cache


def set_default_cache(cache: ExperimentCache | None) -> None:
    """Replace the process-wide cache (``None`` disables default caching)."""
    global _default_cache, _default_initialized
    _default_cache = cache
    _default_initialized = True


def resolve_cache(cache: "ExperimentCache | None | object") -> ExperimentCache | None:
    """Resolve a ``cache`` argument: sentinel → default, ``None`` → disabled."""
    if cache is DEFAULT_CACHE:
        return get_default_cache()
    if cache is None or isinstance(cache, ExperimentCache):
        return cache
    raise ExperimentError(
        f"cache must be an ExperimentCache, None or DEFAULT_CACHE, got {type(cache).__name__}"
    )


def get_default_activity_cache() -> ActivityCache | None:
    """Return the lazily created process-wide activity cache.

    Shares ``REPRO_NO_CACHE`` and ``REPRO_CACHE_DIR`` with the experiment
    tier; its database lives under ``$REPRO_CACHE_DIR/activity/`` and its
    LRU width is ``REPRO_ACTIVITY_CACHE_MAX_ENTRIES`` (default 1024).
    """
    global _default_activity_cache, _default_activity_initialized
    if not _default_activity_initialized:
        _default_activity_initialized = True
        if env.read("REPRO_NO_CACHE"):
            _default_activity_cache = None
        else:
            max_entries = env.read("REPRO_ACTIVITY_CACHE_MAX_ENTRIES")
            root = env.read("REPRO_CACHE_DIR")
            disk_dir = None
            if root is not None:
                _maybe_auto_prune(root)
                disk_dir = os.path.join(root, ACTIVITY_SUBDIR)
            _default_activity_cache = ActivityCache(
                max_entries=max_entries, disk_dir=disk_dir
            )
    return _default_activity_cache


def set_default_activity_cache(cache: ActivityCache | None) -> None:
    """Replace the process-wide activity cache (``None`` disables it)."""
    global _default_activity_cache, _default_activity_initialized
    _default_activity_cache = cache
    _default_activity_initialized = True


def resolve_activity_cache(cache: "ActivityCache | None | object") -> ActivityCache | None:
    """Resolve an ``activity_cache`` argument (sentinel → process default)."""
    if cache is DEFAULT_CACHE:
        return get_default_activity_cache()
    if cache is None or isinstance(cache, ActivityCache):
        return cache
    raise ExperimentError(
        "activity_cache must be an ActivityCache, None or DEFAULT_CACHE, "
        f"got {type(cache).__name__}"
    )


def peek_default_caches() -> "dict[str, Any]":
    """The default cache instances this process has *already* created.

    Unlike the ``get_default_*`` accessors this never instantiates anything:
    it is how the ``python -m repro.cache stats`` CLI reports live in-memory
    counters when invoked from a running process, without a fresh subprocess
    invocation fabricating empty caches just to describe them.  Every value
    answers ``describe_memory()``.
    """
    live: dict[str, Any] = {}
    if _default_initialized and _default_cache is not None:
        live["experiment"] = _default_cache
    if _default_activity_initialized and _default_activity_cache is not None:
        live["activity"] = _default_activity_cache
    return live
