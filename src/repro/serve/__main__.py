"""``python -m repro.serve`` — run the estimation server.

Flags beat the environment (``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT``),
which beats the built-in defaults, matching the library-wide precedence
rules in ``docs/configuration.md``.  The remaining service knobs
(``REPRO_SERVE_MAX_PENDING``, ``REPRO_SERVE_MAX_BATCH``,
``REPRO_SERVE_TIMEOUT_S``) and the batches' executor
(``REPRO_PARALLEL_WORKERS``, ``REPRO_PARALLEL_BACKEND``) are
environment-only.  A malformed value, a ``--port`` outside 0..65535
included, is reported as ``error: ...`` with exit status 1.
"""

from __future__ import annotations

import argparse
import sys

from repro import env
from repro.errors import ReproError
from repro.serve.server import serve


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve GEMM power estimates over JSON/HTTP.",
    )
    parser.add_argument(
        "--host", default=None, help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        default=None,
        help="bind port; 0 picks a free one (default: $REPRO_SERVE_PORT or 8035)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the listening banner"
    )
    args = parser.parse_args(argv)
    try:
        # The flag stands in for REPRO_SERVE_PORT and takes the same check.
        port = None if args.port is None else env.parse("REPRO_SERVE_PORT", args.port, "--port")
        serve(host=args.host, port=port, announce=not args.quiet)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
