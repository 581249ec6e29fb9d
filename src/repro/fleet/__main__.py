"""``python -m repro.fleet`` — generate, simulate and summarize fleet traces.

Subcommands:

* ``generate-trace`` — write a seeded synthetic trace (``--kind
  diurnal|training|mixed``) as JSON.  The seed defaults to
  ``REPRO_FLEET_SEED``; the same kind + parameters + seed always writes
  the identical file.
* ``simulate``       — replay a trace JSON against a fleet (``--gpus
  a100:192,h100:64``), optionally under per-GPU power caps and cap
  events, and print/save the :class:`~repro.fleet.simulator.FleetResult`.
  ``--expect SUMMARY.json`` turns the run into a replay check: the
  freshly computed summary must equal the golden file exactly (exit 1
  otherwise) — this is what CI's fleet job runs.
* ``summarize``      — print the tables of a saved result (or the shape
  of a saved trace) without re-simulating.

Examples::

    python -m repro.fleet generate-trace --kind diurnal --seed 7 --out trace.json
    python -m repro.fleet simulate trace.json --gpus a100:256 --cap-at 100:180 --out result.json
    python -m repro.fleet simulate trace.json --gpus a100:2 --expect golden_summary.json
    python -m repro.fleet summarize result.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro import wire
from repro.errors import ReproError
from repro.fleet.scheduler import CapEvent, FleetSpec
from repro.fleet.simulator import FleetResult, simulate
from repro.fleet.trace import GENERATORS, Trace, generate_trace
from repro.parallel import executor_defaults

__all__ = ["main"]


def _parse_gpus(text: str) -> "dict[str, int]":
    """``a100:192,h100:64`` -> ``{"a100": 192, "h100": 64}``."""
    counts: "dict[str, int]" = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        model, _, count_text = part.partition(":")
        model = model.strip()
        if not model:
            raise ReproError(f"invalid --gpus entry {part!r}; expected MODEL[:COUNT]")
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ReproError(
                f"invalid GPU count {count_text!r} in --gpus entry {part!r}"
            ) from None
        counts[model] = counts.get(model, 0) + count
    if not counts:
        raise ReproError(f"--gpus {text!r} names no GPUs")
    return counts


def _parse_cap_event(text: str) -> CapEvent:
    """``TICK:WATTS`` (or ``TICK:off``) -> a fleet-wide :class:`CapEvent`."""
    tick_text, sep, watts_text = text.partition(":")
    if not sep:
        raise ReproError(f"invalid --cap-at {text!r}; expected TICK:WATTS or TICK:off")
    try:
        tick = int(tick_text)
    except ValueError:
        raise ReproError(f"invalid --cap-at tick {tick_text!r}") from None
    watts_text = watts_text.strip().lower()
    if watts_text in ("off", "none", ""):
        return CapEvent(tick=tick, cap_watts=None)
    try:
        watts = float(watts_text)
    except ValueError:
        raise ReproError(f"invalid --cap-at watts {watts_text!r}") from None
    return CapEvent(tick=tick, cap_watts=watts)


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs: "dict[str, Any]" = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.ticks is not None:
        kwargs["ticks"] = args.ticks
    if args.tick_s is not None:
        kwargs["tick_s"] = args.tick_s
    trace = generate_trace(args.kind, **kwargs)
    target = trace.save_json(args.out)
    print(
        f"wrote {trace.name!r}: {len(trace.jobs)} jobs / {trace.total_kernels} kernels "
        f"across {len(trace.workloads)} workloads -> {target}"
    )
    return 0


def _build_fleet(args: argparse.Namespace) -> FleetSpec:
    return FleetSpec.from_counts(
        _parse_gpus(args.gpus),
        cap_watts=args.cap,
        cap_events=[_parse_cap_event(text) for text in args.cap_at],
        include_idle_power=not args.no_idle_power,
    )


def _check_expected(result: FleetResult, expect_path: Path) -> int:
    expected = wire.load_json(expect_path, "expected summary", ReproError)
    actual = result.summary()
    if actual == expected:
        print(f"replay OK: summary matches {expect_path}")
        return 0
    print(f"replay MISMATCH against {expect_path}:", file=sys.stderr)
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        want, got = expected.get(key), actual.get(key)
        if want != got:
            print(f"  {key}: expected {want!r}, got {got!r}", file=sys.stderr)
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    fleet = _build_fleet(args)
    backend, workers = executor_defaults(args.backend, args.workers)
    result = simulate(trace, fleet, workers=workers, backend=backend)
    if args.out:
        result.save_json(args.out)
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if args.expect is not None:
        return _check_expected(result, Path(args.expect))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = Path(args.path)
    payload = wire.load_json(path, "fleet document", ReproError)
    fmt = payload.get("format", "") if isinstance(payload, dict) else ""
    if fmt.startswith("repro.fleet.trace"):
        trace = Trace.from_dict(payload)
        print(
            f"trace {trace.name!r}: {len(trace.jobs)} jobs / {trace.total_kernels} "
            f"kernels, {len(trace.workloads)} workloads, tick_s={trace.tick_s}, "
            f"tenants: {', '.join(trace.tenants) or '(none)'}"
        )
        return 0
    result = FleetResult.load(path)
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Datacenter-scale trace simulation over the estimation engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate-trace", help="write a seeded synthetic trace as JSON"
    )
    generate.add_argument("--kind", choices=sorted(GENERATORS), default="diurnal")
    generate.add_argument(
        "--seed", type=int, default=None,
        help="generator seed (default: REPRO_FLEET_SEED, default 0)",
    )
    generate.add_argument("--ticks", type=int, default=None, help="trace length in ticks")
    generate.add_argument("--tick-s", type=float, default=None, help="seconds per tick")
    generate.add_argument("--out", required=True, help="output JSON path")
    generate.set_defaults(func=_cmd_generate)

    simulate_parser = sub.add_parser("simulate", help="replay a trace against a fleet")
    simulate_parser.add_argument("trace", help="trace JSON (see generate-trace)")
    simulate_parser.add_argument(
        "--gpus", default="a100:8",
        help="fleet shape, MODEL[:COUNT] comma-separated (default: a100:8)",
    )
    simulate_parser.add_argument(
        "--cap", type=float, default=None, help="uniform per-GPU power cap, watts"
    )
    simulate_parser.add_argument(
        "--cap-at", action="append", default=[], metavar="TICK:WATTS",
        help="fleet-wide cap event (repeatable; TICK:off clears the cap)",
    )
    simulate_parser.add_argument(
        "--no-idle-power", action="store_true",
        help="do not account idle-GPU power to the '(idle)' pseudo-tenant",
    )
    simulate_parser.add_argument(
        "--workers", type=int, default=None,
        help="estimation worker-pool width (default: REPRO_PARALLEL_WORKERS or 1)",
    )
    simulate_parser.add_argument(
        "--backend", default=None,
        help="estimation execution backend (default: auto, which REPRO_PARALLEL_BACKEND steers)",
    )
    simulate_parser.add_argument("--out", default=None, help="save the full result JSON here")
    simulate_parser.add_argument(
        "--json", action="store_true", help="print the rounded summary JSON instead of tables"
    )
    simulate_parser.add_argument(
        "--expect", default=None, metavar="SUMMARY.json",
        help="replay check: fail (exit 1) unless the summary equals this file",
    )
    simulate_parser.set_defaults(func=_cmd_simulate)

    summarize = sub.add_parser(
        "summarize", help="print a saved result (or trace) without re-simulating"
    )
    summarize.add_argument("path", help="result or trace JSON")
    summarize.add_argument("--json", action="store_true", help="summary JSON output")
    summarize.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
