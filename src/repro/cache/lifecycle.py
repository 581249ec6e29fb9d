"""Disk-cache lifecycle management: inspection and garbage collection.

The on-disk cache (``REPRO_CACHE_DIR``) holds two tiers side by side, each
one SQLite database of :mod:`repro.cache.sqlite_store`:

* experiment entries — rows of ``<root>/entries.sqlite``
* activity entries — rows of ``<root>/activity/entries.sqlite``

Nothing ever deletes these entries during normal operation, so long-lived
directories grow without bound.  This module provides the shared scanning,
size/age accounting and pruning used by the ``python -m repro.cache`` CLI
and by the env-driven auto-GC hook in :mod:`repro.cache.store`
(``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE_DAYS``).  Scanning is
read-only (a ``stats`` or ``--dry-run`` pass never mutates the directory);
removal deletes database rows.  Any other file in a tier directory —
including the ``*.json`` and ``.*.tmp`` files of the one-file-per-entry
layout of 1.1.0 and earlier — is ignored.

Pruning is safe to run concurrently with readers and writers: SQLite
journaling keeps every row whole, deletions of entries that vanished
underneath us are ignored, and a reader that loses the race simply
recomputes — the cache is a pure performance layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro import env
from repro.cache.store import ACTIVITY_SUBDIR
from repro.env import parse_size
from repro.errors import ExperimentError

__all__ = [
    "TIERS",
    "DEFAULT_COST_WEIGHTS",
    "ENV_EXPERIMENT_COST",
    "CacheEntry",
    "PruneReport",
    "tier_dir",
    "scan_cache_dir",
    "cache_dir_stats",
    "resolve_cost_weights",
    "prune_cache_dir",
    "clear_cache_dir",
    "parse_size",
    "format_size",
]

#: Known cache tiers, in the order the CLI reports them.
TIERS = ("experiment", "activity")

#: Environment override for the experiment tier's cost multiplier (a float;
#: consulted when no explicit ``cost_weights`` mapping is passed).
ENV_EXPERIMENT_COST = "REPRO_CACHE_EXPERIMENT_COST"

#: Relative recomputation cost per tier, used to weight the size-based
#: eviction order.  An experiment entry re-runs the full measurement
#: pipeline for every seed (~100x the work of the single per-seed activity
#: estimate an activity entry stores, at paper scale), so it survives size
#: pressure ~100x longer than an activity entry of the same age: GC evicts
#: cheap-to-rebuild entries first.
DEFAULT_COST_WEIGHTS: "Mapping[str, float]" = {
    "experiment": env.KNOBS[ENV_EXPERIMENT_COST].default,
    "activity": 1.0,
}


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry: a database row (``path`` names the database
    holding it)."""

    path: Path
    tier: str
    key: str
    size_bytes: int
    mtime: float

    def age_s(self, now: float | None = None) -> float:
        return (now if now is not None else time.time()) - self.mtime


@dataclass
class PruneReport:
    """What one :func:`prune_cache_dir` pass did."""

    examined: int = 0
    removed: list[CacheEntry] = field(default_factory=list)
    remaining: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False

    @property
    def removed_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.removed)

    def as_dict(self) -> dict[str, object]:
        return {
            "examined": self.examined,
            "removed": len(self.removed),
            "removed_bytes": self.removed_bytes,
            "remaining": self.remaining,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
        }


def tier_dir(root: "str | Path", tier: str) -> Path:
    """Directory holding one tier's database under a cache root."""
    root = Path(root)
    if tier == "experiment":
        return root
    if tier == "activity":
        return root / ACTIVITY_SUBDIR
    raise ExperimentError(f"unknown cache tier {tier!r}; expected one of {TIERS}")


def _scan_tier(root: Path, tier: str) -> list[CacheEntry]:
    from repro.cache.sqlite_store import DB_FILENAME, read_entries

    db_path = tier_dir(root, tier) / DB_FILENAME
    return [
        CacheEntry(path=db_path, tier=tier, key=key, size_bytes=size_bytes, mtime=mtime)
        for key, size_bytes, mtime in read_entries(db_path)
    ]


def scan_cache_dir(
    root: "str | Path", tiers: Iterable[str] = TIERS
) -> list[CacheEntry]:
    """Every entry under ``root`` for the given tiers, oldest first."""
    root = Path(root)
    entries: list[CacheEntry] = []
    for tier in tiers:
        entries.extend(_scan_tier(root, tier))
    entries.sort(key=lambda entry: (entry.mtime, str(entry.path)))
    return entries


def cache_dir_stats(root: "str | Path", now: float | None = None) -> dict[str, object]:
    """Per-tier entry counts, byte totals and age extremes for ``root``."""
    now = now if now is not None else time.time()
    stats: dict[str, object] = {"root": str(root), "tiers": {}}
    total_entries = 0
    total_bytes = 0
    for tier in TIERS:
        entries = _scan_tier(Path(root), tier)
        tier_bytes = sum(entry.size_bytes for entry in entries)
        total_entries += len(entries)
        total_bytes += tier_bytes
        stats["tiers"][tier] = {
            "entries": len(entries),
            "bytes": tier_bytes,
            "oldest_age_s": max((entry.age_s(now) for entry in entries), default=0.0),
            "newest_age_s": min((entry.age_s(now) for entry in entries), default=0.0),
        }
    stats["entries"] = total_entries
    stats["bytes"] = total_bytes
    return stats


def _remove(entry: CacheEntry, report: PruneReport) -> bool:
    """Delete one entry (or pretend to, under ``dry_run``).  Returns whether
    the entry is gone — callers must keep failed deletions in their survivor
    accounting, or the report would claim space that is still occupied."""
    if not report.dry_run:
        from repro.cache.sqlite_store import delete_entries

        try:
            # 0 rows deleted means another process pruned it first; the
            # entry is gone either way.
            delete_entries(entry.path, [entry.key])
        except OSError:
            return False
    report.removed.append(entry)
    return True


def resolve_cost_weights(
    cost_weights: "Mapping[str, float] | None" = None,
) -> "dict[str, float]":
    """Resolve the per-tier recomputation-cost multipliers for pruning.

    An explicit mapping overrides individual tiers (missing tiers keep their
    defaults); with no mapping, ``REPRO_CACHE_EXPERIMENT_COST`` can scale
    the experiment tier from the environment.  Weights must be finite and
    positive.
    """
    weights = dict(DEFAULT_COST_WEIGHTS)
    if cost_weights is None:
        weights["experiment"] = env.read(ENV_EXPERIMENT_COST)
    else:
        for tier, weight in cost_weights.items():
            if tier not in TIERS:
                raise ExperimentError(
                    f"unknown cache tier {tier!r} in cost_weights; expected one of {TIERS}"
                )
            weights[tier] = float(weight)
    for tier, weight in weights.items():
        if not 0 < weight < math.inf:
            raise ExperimentError(
                f"cost weight for tier {tier!r} must be finite and > 0, got {weight}"
            )
    return weights


def prune_cache_dir(
    root: "str | Path",
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    tiers: Iterable[str] = TIERS,
    dry_run: bool = False,
    now: float | None = None,
    cost_weights: "Mapping[str, float] | None" = None,
) -> PruneReport:
    """Garbage-collect a cache directory by age and/or total size.

    Entries older than ``max_age_s`` are removed first (staleness is
    absolute, so age pruning ignores cost).  If the surviving entries still
    exceed ``max_bytes`` in total, entries are removed in order of
    *cost-weighted* age — each entry's age divided by its tier's
    recomputation-cost multiplier (``cost_weights``,
    :data:`DEFAULT_COST_WEIGHTS`, or ``REPRO_CACHE_EXPERIMENT_COST``) —
    until the directory fits.  With the default ~100x experiment weight, an
    hour-old activity entry is evicted before a two-day-old experiment
    entry: GC sheds the entries that are cheapest to rebuild first.
    ``dry_run`` reports what would be deleted without touching anything.
    """
    # ``not 0 <= x < inf`` also rejects NaN, which no comparison satisfies
    # and which would otherwise prune nothing (age) or everything (size).
    if max_bytes is not None and not 0 <= max_bytes < math.inf:
        raise ExperimentError(f"max_bytes must be finite and >= 0, got {max_bytes}")
    if max_age_s is not None and not 0 <= max_age_s < math.inf:
        raise ExperimentError(f"max_age_s must be finite and >= 0, got {max_age_s}")
    weights = resolve_cost_weights(cost_weights)
    now = now if now is not None else time.time()
    report = PruneReport(dry_run=dry_run)
    entries = scan_cache_dir(root, tiers=tiers)
    report.examined = len(entries)

    survivors: list[CacheEntry] = []
    for entry in entries:
        if not (
            max_age_s is not None
            and entry.age_s(now) > max_age_s
            and _remove(entry, report)
        ):
            survivors.append(entry)

    if max_bytes is not None:
        total = sum(entry.size_bytes for entry in survivors)
        # Eviction order: largest effective age first, where effective age
        # discounts an entry by how expensive it is to recompute.  Ties
        # (same mtime and tier) keep the scan's stable path order.
        order = sorted(
            survivors,
            key=lambda entry: entry.age_s(now) / weights[entry.tier],
            reverse=True,
        )
        kept: list[CacheEntry] = []
        for index, entry in enumerate(order):
            if total <= max_bytes:
                kept.extend(order[index:])
                break
            if _remove(entry, report):
                total -= entry.size_bytes
            else:
                kept.append(entry)
        survivors = kept

    report.remaining = len(survivors)
    report.remaining_bytes = sum(entry.size_bytes for entry in survivors)
    return report


def clear_cache_dir(
    root: "str | Path", tiers: Iterable[str] = TIERS, dry_run: bool = False
) -> PruneReport:
    """Remove every entry of the given tiers (unconditionally — unlike a
    ``max_bytes=0`` prune, this also removes zero-byte entries, which
    trivially fit any size budget)."""
    report = PruneReport(dry_run=dry_run)
    entries = scan_cache_dir(root, tiers=tiers)
    report.examined = len(entries)
    for entry in entries:
        _remove(entry, report)
    report.remaining = report.examined - len(report.removed)
    report.remaining_bytes = (
        sum(entry.size_bytes for entry in entries) - report.removed_bytes
    )
    return report


# ------------------------------------------------------------- size helpers


def format_size(size_bytes: float) -> str:
    """Render a byte count for humans (``"1.5 MiB"``)."""
    size = float(size_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{size:.1f} GiB"  # pragma: no cover - unreachable
