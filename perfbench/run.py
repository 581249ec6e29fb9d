"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off.  ``--trace 1`` reports the per-layer metrics instead: it runs
the workload's timed loop untraced and then traced (the gap is the tracing
overhead), then every group of ``layers.py`` in a fresh child process.

The last line of standard output is the result object; the lines before it
are a human-readable report in the workload's own metric names and the run
metadata.  Outside a full checkout the script exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from support import (
    ROOT,
    WORKLOAD_NAMES,
    Spans,
    median,
    pin_environment,
    require_checkout,
    run_metadata,
    scratch_dir,
    write_spans,
)

#: Fresh processes timed from spawn to "ready"; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Hard cap on one setup probe or layer group child process.
CHILD_TIMEOUT_S = 150


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe_setup(argv_tail: "list[str]", env: "dict[str, str]") -> float:
    """Seconds from spawning a fresh process to its workload being set up."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv_tail, "--setup-probe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return elapsed


def run_layer_group(group: str, seed: int, scale: str, env: "dict[str, str]") -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"),
         "--group", group, "--seed", str(seed), "--scale", scale],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"layer group {group} failed (exit {completed.returncode})")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input (the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_checkout()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]

    with scratch_dir() as scratch:
        env = pin_environment(scratch / "cache")
        if args.setup_probe:
            from workloads import SCALES, open_workload

            workload = open_workload(args.workload, args.seed, SCALES[args.scale], scratch, env)
            print("ready", flush=True)
            workload.close()
            return 0

        setups = []
        if not args.trace:
            setups = [probe_setup(common, env) for _ in range(SETUP_PROBES)]

        from workloads import SCALES, open_workload, workload_peak_rss_mb

        scale = SCALES[args.scale]
        meta = run_metadata(args.workload, args.seed, scratch / "cache")
        workload = open_workload(args.workload, args.seed, scale, scratch, env)
        try:
            workload.prepare()
            if args.trace:
                untraced = workload.measure(args.seconds / 2)
                spans = Spans()
                traced = workload.measure(args.seconds / 2, spans)
            else:
                measured = workload.measure(args.seconds)
                rss = workload_peak_rss_mb(workload)
        finally:
            workload.close()

        if args.trace:
            overhead = 1.0 - traced.throughput_per_s / untraced.throughput_per_s
            metrics = {
                "trace.throughput_per_s": _metric(traced.throughput_per_s, "1/s"),
                "trace.overhead_pct": _metric(100.0 * overhead, "%"),
            }
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            all_spans = {"workload": spans.as_list()}
            for group in ("estimation", "figures", "serve", "fleet"):
                outcome = run_layer_group(group, args.seed, args.scale, env)
                for name, (value, unit) in outcome["metrics"].items():
                    metrics[name] = _metric(value, unit)
                attempted += outcome["attempted"]
                failed += outcome["failed"]
                all_spans[group] = outcome["spans"]
            path = write_spans(f"{args.workload}-seed{args.seed}", all_spans)
            meta["spans_file"] = str(path.relative_to(ROOT))
            report = {f"traced.{k}": v for k, v in traced.report.items()}
        else:
            metrics = {
                "setup_s": _metric(median(setups), "s"),
                "throughput_per_s": _metric(measured.throughput_per_s, "1/s"),
                "latency_p50_ms": _metric(measured.latency_p50_ms, "ms"),
                "peak_rss_mb": _metric(rss, "MB"),
            }
            attempted, failed = measured.attempted, measured.failed
            report = dict(measured.report)
            meta["samples"] = {
                "setup_s": len(setups),
                "latency_p50_ms": len(measured.calls),
            }

    for name, (value, unit) in report.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
