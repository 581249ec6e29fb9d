"""``python -m repro.cache`` — inspect and prune the on-disk result cache.

Subcommands operate on a cache root directory (``--dir`` or the
``REPRO_CACHE_DIR`` environment variable) holding the two tiers written by
:mod:`repro.cache.store`:

* ``stats`` — entry counts, byte totals and age range per tier.  When
  :func:`main` is invoked from a process that already holds default cache
  instances (rather than via a fresh subprocess), the report also includes
  each live cache's in-memory LRU occupancy and hit/miss counters.
* ``ls``    — list entries (key, tier, size, age), oldest first.
* ``prune`` — garbage-collect by total size and/or age.  Size pruning
  evicts by cost-weighted age (cheap-to-rebuild activity entries first; see
  ``--experiment-cost``).
* ``clear`` — remove every entry of one or both tiers.

Examples::

    python -m repro.cache stats
    python -m repro.cache ls --tier activity
    python -m repro.cache prune --max-bytes 500M --max-age-days 30
    python -m repro.cache prune --max-bytes 1G --experiment-cost 250 --dry-run
    python -m repro.cache clear --tier experiment
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import env
from repro.cache.lifecycle import (
    TIERS,
    cache_dir_stats,
    clear_cache_dir,
    format_size,
    parse_size,
    prune_cache_dir,
    scan_cache_dir,
)
from repro.cache.store import peek_default_caches
from repro.errors import ReproError

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir",
        dest="cache_dir",
        default=None,
        help="cache root directory (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of a table",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and prune the repro on-disk result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("stats", help="summarize both cache tiers"))

    ls = sub.add_parser("ls", help="list cache entries, oldest first")
    _add_common(ls)
    ls.add_argument("--tier", choices=(*TIERS, "all"), default="all")

    prune = sub.add_parser("prune", help="garbage-collect by size and/or age")
    _add_common(prune)
    prune.add_argument(
        "--max-bytes",
        default=None,
        help="keep the directory under this total size (accepts K/M/G suffixes)",
    )
    prune.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="remove entries older than this many days",
    )
    prune.add_argument(
        "--experiment-cost",
        type=float,
        default=None,
        help=(
            "recomputation-cost multiplier of experiment entries relative to "
            "activity entries for size pruning (default ~100; also "
            "settable via REPRO_CACHE_EXPERIMENT_COST)"
        ),
    )
    prune.add_argument("--tier", choices=(*TIERS, "all"), default="all")
    prune.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )

    clear = sub.add_parser("clear", help="remove every entry of the given tiers")
    _add_common(clear)
    clear.add_argument("--tier", choices=(*TIERS, "all"), default="all")
    clear.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )
    return parser


def _resolve_dir(args: argparse.Namespace) -> str:
    cache_dir = args.cache_dir or env.read("REPRO_CACHE_DIR") or ""
    if not cache_dir:
        raise SystemExit(
            "no cache directory: pass --dir or set REPRO_CACHE_DIR"
        )
    return cache_dir


def _tiers(args: argparse.Namespace) -> tuple[str, ...]:
    tier = getattr(args, "tier", "all")
    return TIERS if tier == "all" else (tier,)


def _age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_stats(args: argparse.Namespace) -> int:
    root = _resolve_dir(args)
    stats = cache_dir_stats(root)
    # Disk stats describe the directory; the in-memory LRU tiers only exist
    # inside a running process.  When main() is called from such a process
    # (not a fresh `python -m` subprocess) report its live caches too — but
    # only when no explicit --dir was given: the live caches belong to the
    # process's own $REPRO_CACHE_DIR root, and attaching their counters to
    # a stats report about some *other* directory would misattribute them.
    live = peek_default_caches() if args.cache_dir is None else {}
    if live:
        stats["memory"] = {tier: cache.describe_memory() for tier, cache in live.items()}
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    print(f"cache root: {root}")
    tiers: dict = stats["tiers"]  # type: ignore[assignment]
    for tier in TIERS:
        info = tiers[tier]
        line = (
            f"  {tier:<10} {info['entries']:>6} entries  "
            f"{format_size(info['bytes']):>10}"
        )
        if info["entries"]:
            line += (
                f"  oldest {_age(info['oldest_age_s'])}, "
                f"newest {_age(info['newest_age_s'])}"
            )
        print(line)
    print(f"  {'total':<10} {stats['entries']:>6} entries  {format_size(stats['bytes']):>10}")
    for tier, info in stats.get("memory", {}).items():  # type: ignore[union-attr]
        print(
            f"  [live] {tier:<10} {info['entries']}/{info['max_entries']} in memory  "
            f"{info['hits']} hits / {info['misses']} misses "
            f"({info['hit_rate']:.0%} hit rate), {info['puts']} puts, "
            f"{info['evictions']} evictions"
        )
        resilience = info["resilience"]
        line = (
            f"         {'':<10} {resilience['retries']} retries "
            f"({resilience['backoff_s']:.3f}s backoff), "
            f"{resilience['quarantines']} quarantines"
        )
        if resilience["degraded"]:
            line += f", DEGRADED: {resilience['degraded_reason']}"
        print(line)
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    root = _resolve_dir(args)
    entries = scan_cache_dir(root, tiers=_tiers(args))
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "key": entry.key,
                        "tier": entry.tier,
                        "bytes": entry.size_bytes,
                        "age_s": entry.age_s(),
                        "path": str(entry.path),
                    }
                    for entry in entries
                ],
                indent=2,
            )
        )
        return 0
    if not entries:
        print("cache is empty")
        return 0
    for entry in entries:
        print(
            f"{entry.key[:16]:<16}  {entry.tier:<10}  "
            f"{format_size(entry.size_bytes):>10}  {_age(entry.age_s()):>6}"
        )
    print(f"{len(entries)} entries")
    return 0


def _report(report, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    verb = "would remove" if report.dry_run else "removed"
    print(
        f"{verb} {len(report.removed)} of {report.examined} entries "
        f"({format_size(report.removed_bytes)}); "
        f"{report.remaining} remain ({format_size(report.remaining_bytes)})"
    )
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    root = _resolve_dir(args)
    if args.max_bytes is None and args.max_age_days is None:
        raise SystemExit("prune needs --max-bytes and/or --max-age-days")
    max_bytes = parse_size(args.max_bytes) if args.max_bytes is not None else None
    max_age_s = args.max_age_days * 86400.0 if args.max_age_days is not None else None
    cost_weights = (
        {"experiment": args.experiment_cost}
        if args.experiment_cost is not None
        else None
    )
    report = prune_cache_dir(
        root,
        max_bytes=max_bytes,
        max_age_s=max_age_s,
        tiers=_tiers(args),
        dry_run=args.dry_run,
        cost_weights=cost_weights,
    )
    return _report(report, args)


def _cmd_clear(args: argparse.Namespace) -> int:
    root = _resolve_dir(args)
    report = clear_cache_dir(root, tiers=_tiers(args), dry_run=args.dry_run)
    return _report(report, args)


_COMMANDS = {
    "stats": _cmd_stats,
    "ls": _cmd_ls,
    "prune": _cmd_prune,
    "clear": _cmd_clear,
}


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
