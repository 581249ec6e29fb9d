#!/usr/bin/env python3
"""Compare two pytest-benchmark JSON files and flag regressions, noise-aware.

Used by CI to diff the current run's tiny-size timings against the previous
successful run's uploaded artifact (or, when none is available, against the
seeded ``benchmarks/BENCH_sweep_backends.json`` baseline).  Regressions are
*warnings*, never failures: CI machines differ in speed, so a timing delta
annotates the run for a human to look at instead of gating the build.

A benchmark "regressed" only when its mean grew by more than the *larger* of

* ``--threshold`` percent of the baseline mean (the floor for benchmarks
  whose measured noise is negligible), and
* ``--zscore`` standard errors of the difference of the two means
  (``sqrt(sb²/rb + sc²/rc)`` from each file's recorded stddev and rounds).

so a noisy benchmark needs a proportionally larger delta before it warns —
the flat-percentage gate used to fire on pure jitter.  Regressions are
reported with the benchmark's *axes* (subsystem / backend / cache
temperature, parsed from its name) so the annotation says which dimension
of the matrix moved.

Usage::

    python scripts/bench_compare.py CURRENT.json BASELINE.json \
        [--threshold 25] [--zscore 3] [--github]

``--github`` emits ``::warning::`` workflow commands so regressions surface
as annotations on the run.  Exit status is always 0 unless the inputs are
unreadable; pass ``--fail-on-regression`` to gate locally.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple


class BenchStats(NamedTuple):
    """The subset of pytest-benchmark stats the gate needs."""

    mean: float
    stddev: float
    rounds: int


#: Name-token vocabularies for axis attribution.  A benchmark named
#: ``bench_sweep_cold`` reports as ``subsystem=sweep, temperature=cold``.
AXES = {
    "subsystem": (
        "sweep",
        "kernel",
        "fleet",
        "popcount",
        "optimize",
        "serve",
        "cache",
        "figure",
        "activity",
    ),
    "backend": ("serial", "threads", "nogil"),
    "temperature": ("cold", "warm"),
}


def load_stats(path: Path) -> "dict[str, BenchStats]":
    """Map benchmark name -> (mean, stddev, rounds) from a pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    stats: "dict[str, BenchStats]" = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name")
        entry = bench.get("stats", {})
        mean = entry.get("mean")
        if not name or not isinstance(mean, (int, float)) or mean <= 0:
            continue
        stddev = entry.get("stddev")
        rounds = entry.get("rounds")
        stats[name] = BenchStats(
            mean=float(mean),
            stddev=float(stddev) if isinstance(stddev, (int, float)) and stddev > 0 else 0.0,
            rounds=int(rounds) if isinstance(rounds, int) and rounds > 0 else 1,
        )
    return stats


def axes_of(name: str) -> str:
    """Attribute a benchmark name to the matrix axes its tokens match."""
    tokens = set(name.lower().replace("-", "_").split("_"))
    parts = []
    for axis, vocabulary in AXES.items():
        hits = [token for token in vocabulary if token in tokens]
        if hits:
            parts.append(f"{axis}={'/'.join(hits)}")
    return ", ".join(parts) if parts else "axis=unclassified"


def noise_threshold(base: BenchStats, cur: BenchStats, pct: float, zscore: float) -> float:
    """Allowed mean growth in seconds: the percent floor or the noise band."""
    floor = base.mean * pct / 100.0
    sem_delta = math.sqrt(
        base.stddev**2 / base.rounds + cur.stddev**2 / cur.rounds
    )
    return max(floor, zscore * sem_delta)


def compare(
    current: "dict[str, BenchStats]",
    baseline: "dict[str, BenchStats]",
    threshold_pct: float,
    zscore: float,
) -> "tuple[list[tuple[str, BenchStats, BenchStats, float, float]], list[str]]":
    """Pair up benchmarks; return (rows, regressed names).

    Each row is ``(name, baseline, current, delta_pct, allowed_pct)`` for
    benchmarks present in both files; benchmarks only on one side are
    reported but cannot regress.
    """
    rows = []
    regressed = []
    for name in sorted(set(current) & set(baseline)):
        base, cur = baseline[name], current[name]
        delta_pct = (cur.mean / base.mean - 1.0) * 100.0
        allowed = noise_threshold(base, cur, threshold_pct, zscore)
        allowed_pct = allowed / base.mean * 100.0
        rows.append((name, base, cur, delta_pct, allowed_pct))
        if cur.mean - base.mean > allowed:
            regressed.append(name)
    return rows, regressed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="this run's benchmark JSON")
    parser.add_argument("baseline", type=Path, help="previous/baseline benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="minimum percent growth to warn about (floor under the noise band)",
    )
    parser.add_argument(
        "--zscore",
        type=float,
        default=3.0,
        help="standard errors of the mean-difference the noise band allows",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="emit ::warning:: workflow commands for regressions",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any benchmark regressed (off in CI: warn only)",
    )
    args = parser.parse_args(argv)

    try:
        current = load_stats(args.current)
        baseline = load_stats(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    if not current or not baseline:
        print("bench-compare: nothing to compare (empty benchmark set)")
        return 0

    rows, regressed = compare(current, baseline, args.threshold, args.zscore)
    width = max((len(name) for name, *_ in rows), default=10)
    print(
        f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
        f"{'delta':>8}  {'allowed':>8}"
    )
    for name, base, cur, delta, allowed_pct in rows:
        marker = "  <-- regression" if name in regressed else ""
        print(
            f"{name:<{width}}  {base.mean * 1e3:>10.3f}ms  {cur.mean * 1e3:>10.3f}ms  "
            f"{delta:>+7.1f}%  {allowed_pct:>7.1f}%{marker}"
        )
    only_current = sorted(set(current) - set(baseline))
    if only_current:
        print(f"new benchmarks (no baseline): {', '.join(only_current)}")
    only_baseline = sorted(set(baseline) - set(current))
    if only_baseline:
        print(f"dropped benchmarks (baseline only): {', '.join(only_baseline)}")

    if regressed:
        failing_axes = "; ".join(f"{name} [{axes_of(name)}]" for name in regressed)
        summary = (
            f"{len(regressed)} benchmark(s) regressed beyond the noise band "
            f"(threshold {args.threshold:g}%, z={args.zscore:g}): {failing_axes}"
        )
        if args.github:
            print(f"::warning title=Benchmark regression::{summary}")
        else:
            print(f"WARNING: {summary}")
        if args.fail_on_regression:
            return 1
    else:
        print(
            f"no regressions beyond the noise band "
            f"(threshold {args.threshold:g}%, z={args.zscore:g})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
