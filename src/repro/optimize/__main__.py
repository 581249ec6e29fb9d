"""``python -m repro.optimize`` — run, resume and inspect optimization studies.

Subcommands:

* ``run STUDY.json``       — drive the study's engine to convergence
  through the cached sweep machinery and print/save the
  :class:`~repro.optimize.engines.OptimizationResult`.  ``--expect
  SUMMARY.json`` turns the run into a replay check: the freshly computed
  summary must equal the golden file exactly (exit 1 otherwise) — this
  is what CI's optimize job runs.
* ``resume CHECKPOINT.json`` — continue a checkpointed run bit-for-bit
  (the finished history is identical to an uninterrupted run's).
* ``history RESULT.json``  — print the trajectory of a saved result
  without re-running anything.

Examples::

    python -m repro.optimize run study.json --out result.json --checkpoint ckpt.json
    python -m repro.optimize run study.json --expect golden_summary.json
    python -m repro.optimize resume ckpt.json --json
    python -m repro.optimize history result.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import wire
from repro.errors import ReproError
from repro.optimize.engines.result import OptimizationResult
from repro.optimize.engines.runner import OptimizationRunner, build_runner
from repro.parallel import executor_defaults

__all__ = ["main"]


def _check_expected(result: OptimizationResult, expect_path: Path) -> int:
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


def _execution_kwargs(args: argparse.Namespace) -> "dict[str, object]":
    backend, workers = executor_defaults(args.backend, args.workers)
    kwargs: "dict[str, object]" = {"backend": backend, "workers": workers}
    if args.no_cache:
        kwargs.update(cache=None, activity_cache=None)
    return kwargs


def _finish(result: OptimizationResult, args: argparse.Namespace) -> int:
    if args.out:
        result.save_json(args.out)
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if args.expect is not None:
        return _check_expected(result, Path(args.expect))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runner = build_runner(
        args.study,
        checkpoint_path=args.checkpoint,
        **_execution_kwargs(args),
    )
    result = runner.run(max_evaluations=args.max_evaluations)
    return _finish(result, args)


def _cmd_resume(args: argparse.Namespace) -> int:
    runner = OptimizationRunner.from_checkpoint(
        args.checkpoint,
        checkpoint_path=args.checkpoint if args.update_checkpoint else None,
        **_execution_kwargs(args),
    )
    result = runner.run(max_evaluations=args.max_evaluations)
    return _finish(result, args)


def _cmd_history(args: argparse.Namespace) -> int:
    result = OptimizationResult.load(args.result)
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="evaluation worker-pool width (default: REPRO_PARALLEL_WORKERS or 1)",
    )
    parser.add_argument(
        "--backend", default=None,
        help="evaluation execution backend (default: auto, which REPRO_PARALLEL_BACKEND steers)",
    )
    parser.add_argument(
        "--max-evaluations", type=int, default=None,
        help="stop after this many evaluations even if not converged",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass all cache tiers (every evaluation runs the engine)",
    )
    parser.add_argument("--out", default=None, help="save the full result JSON here")
    parser.add_argument(
        "--json", action="store_true", help="print the rounded summary JSON instead of tables"
    )
    parser.add_argument(
        "--expect", default=None, metavar="SUMMARY.json",
        help="replay check: fail (exit 1) unless the summary equals this file",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.optimize",
        description="Optimization studies over the input-dependent power model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a study file to convergence")
    run.add_argument("study", help="study JSON (repro.optimize.study/v1)")
    run.add_argument(
        "--checkpoint", default=None, metavar="CKPT.json",
        help="write a resumable checkpoint here after every iteration",
    )
    _add_execution_arguments(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser("resume", help="continue a checkpointed run")
    resume.add_argument("checkpoint", help="checkpoint JSON written by run --checkpoint")
    resume.add_argument(
        "--update-checkpoint", action="store_true",
        help="keep rewriting the checkpoint file while resuming",
    )
    _add_execution_arguments(resume)
    resume.set_defaults(func=_cmd_resume)

    history = sub.add_parser("history", help="print a saved result without re-running")
    history.add_argument("result", help="result JSON written by run --out")
    history.add_argument(
        "--json", action="store_true", help="summary JSON output"
    )
    history.set_defaults(func=_cmd_history)
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
