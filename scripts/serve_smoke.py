#!/usr/bin/env python
"""CI smoke test for the estimation server (stdlib only).

Runs the serving contract end to end, twice:

**Healthy phase** — boots ``python -m repro.serve`` on a free port, then:

1. ``GET /healthz`` answers ``ok`` once the banner is printed;
2. ``POST /estimate`` returns a result document for one configuration;
3. a slow "blocker" configuration is posted, and once ``/stats`` shows
   it in flight, a concurrent burst follows: a duplicate pair of one
   configuration plus two distinct ones, none computed yet in this
   phase.  The service has no batch timer, so the burst queues behind
   the blocker's computation and drains as one batch: the duplicate
   coalesces (a hit must show on ``/stats``), its two responses must be
   identical, and they must equal a later single request for the same
   configuration;
4. ``POST /shutdown`` stops the server, which must exit 0.

**Fault-injected phase** — the same flow under a deterministic
``REPRO_FAULTS`` schedule with a disk cache and a two-thread pool
(``REPRO_PARALLEL_WORKERS=2``): the first sqlite cache write comes back
busy (absorbed by a retry), and a later write finds the disk full, which
drops that cache tier to memory-only.  The burst's queued batch must run
on the ``threads`` backend.  Every response must be **bit-for-bit
identical** to the healthy phase's, the cache retry must be visible on
``/stats``, and ``/healthz`` must flip to ``degraded`` with a ``cache.``
reason — the resilience layer's whole contract: absorb the fault, keep
the answer, raise a flag.

Usage::

    python scripts/serve_smoke.py
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Hard cap on one smoke phase.  A server that never prints its banner
#: would otherwise park ``readline()`` forever and hang CI until the job
#: timeout; the watchdog kills the process instead, which unblocks every
#: pipe read, and the failure path prints the captured server log.
WATCHDOG_SECONDS = 300

#: Small enough to finish in well under a second.
SMOKE_CONFIG = {
    "pattern_family": "gaussian",
    "dtype": "fp16_t",
    "matrix_size": 96,
    "seeds": 2,
    "iterations": 50,
    "sampling": {"output_samples": 32},
}

#: Computes for about half a second, far longer than the client needs to
#: post a burst, so the whole burst queues behind it.
BLOCKER_CONFIG = dict(SMOKE_CONFIG, matrix_size=1024, seeds=4)

#: The fault-phase schedule: the first sqlite cache write comes back
#: busy (absorbed by retry), and the fourth finds the disk full (that
#: tier drops to memory-only → a degraded /healthz).  The single request
#: makes three writes (two activity seeds, then its result) plus the
#: retry, so the full disk lands within it.
FAULT_SCHEDULE = "cache.sqlite.write:busy@1;cache.sqlite.write:full@4"


def _variant(iterations: int) -> dict:
    config = dict(SMOKE_CONFIG)
    config["iterations"] = iterations
    return config


#: A duplicate pair of one configuration, then two distinct ones.
BURST = [_variant(60), _variant(60), _variant(61), _variant(62)]


def post(base: str, path: str, body: dict, timeout: float = 120.0) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def get(base: str, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.loads(response.read())


def _dump_server_log(log_path: Path) -> None:
    try:
        log = log_path.read_text(errors="replace").strip()
    except OSError:
        log = ""
    print("---- captured server log ----", file=sys.stderr)
    print(log or "(empty)", file=sys.stderr)
    print("---- end server log ----", file=sys.stderr)


class SmokeFailure(Exception):
    """A phase failed; the message is already printed."""


def run_phase(
    phase: str,
    extra_env: "dict[str, str]",
    reference: "dict[str, dict] | None" = None,
) -> "dict[str, dict]":
    """Boot one server, run the smoke flow, return its estimate documents.

    With ``reference`` (the healthy phase's documents), the phase runs
    fault-injected: every response is asserted bit-for-bit identical to
    its healthy counterpart, and the resilience counters and the degraded
    health roll-up must become visible.
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        PYTHONUNBUFFERED="1",
        **extra_env,
    )
    log_file = tempfile.NamedTemporaryFile(
        prefix=f"serve-smoke-{phase}-", suffix=".log", delete=False
    )
    log_path = Path(log_file.name)
    timed_out = threading.Event()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=log_file,
        env=env,
        text=True,
    )

    def _watchdog_fire() -> None:
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(WATCHDOG_SECONDS, _watchdog_fire)
    watchdog.daemon = True
    watchdog.start()
    try:
        assert proc.stdout is not None
        banner_line = proc.stdout.readline()
        if not banner_line:
            reason = (
                f"watchdog killed the server after {WATCHDOG_SECONDS}s"
                if timed_out.is_set()
                else (
                    "server exited (code "
                    f"{proc.wait(timeout=10)}) before printing its banner"
                )
            )
            print(f"error [{phase}]: {reason}", file=sys.stderr)
            _dump_server_log(log_path)
            raise SmokeFailure(phase)
        banner = json.loads(banner_line)
        base = banner["listening"]
        print(f"[{phase}] server up at {base} (pid {banner['pid']})")

        deadline = time.monotonic() + 30
        while True:
            try:
                health = get(base, "/healthz")
                assert health == {"status": "ok", "reasons": []}, health
                break
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)

        documents: "dict[str, dict]" = {}

        def record(key: str, document: dict) -> dict:
            assert "result" in document and "fingerprint" in document, sorted(document)
            if reference is not None:
                assert document == reference[key], (
                    f"response {key!r} differs from the healthy phase"
                )
            documents[key] = document
            return document

        single = record("single", post(base, "/estimate", SMOKE_CONFIG))
        watts = single["result"]["mean_power_watts"]
        print(
            f"[{phase}] single request OK: {watts:.2f} W, "
            f"fingerprint {single['fingerprint'][:12]}"
        )

        with concurrent.futures.ThreadPoolExecutor(max_workers=1 + len(BURST)) as pool:
            blocker = pool.submit(post, base, "/estimate", BLOCKER_CONFIG)
            deadline = time.monotonic() + 30
            while get(base, "/stats")["pending"] < 1:
                assert time.monotonic() < deadline, "the blocker never went in flight"
                time.sleep(0.01)
            docs = list(pool.map(lambda cfg: post(base, "/estimate", cfg), BURST))
            record("blocker", blocker.result())
        if reference is not None:
            # The burst was the last batch to compute; it ran on the pool.
            ran_on = get(base, "/stats")["service"]["run"]["backend"]
            assert ran_on == "threads", f"the burst batch ran on {ran_on!r}"
        assert docs[0] == docs[1], "duplicate responses must be bit-for-bit identical"
        later = post(base, "/estimate", BURST[0])
        assert later == docs[0], "coalesced responses must match a later single request"
        for config, doc in zip(BURST[1:], docs[1:]):
            record(f"burst-{config['iterations']}", doc)
        stats = get(base, "/stats")
        if stats["service"]["coalesced"] < 1:
            print(f"error [{phase}]: the duplicate pair did not coalesce", file=sys.stderr)
            print(json.dumps(stats, indent=2), file=sys.stderr)
            _dump_server_log(log_path)
            raise SmokeFailure(phase)
        print(f"[{phase}] stats:", json.dumps(stats["service"]))

        if reference is not None:
            retries = sum(
                tier.get("resilience", {}).get("retries", 0)
                for tier in stats["caches"].values()
            )
            assert retries >= 1, stats["caches"]
            health = get(base, "/healthz")
            assert health["status"] == "degraded", health
            assert any(reason.startswith("cache.") for reason in health["reasons"]), health
            print(f"[{phase}] absorbed faults: cache_retries={retries}")
            print(f"[{phase}] degraded as expected: {health['reasons']}")

        assert post(base, "/shutdown", {}) == {"status": "stopping"}
        code = proc.wait(timeout=30)
        if code != 0:
            print(f"error [{phase}]: server exited {code} after shutdown", file=sys.stderr)
            _dump_server_log(log_path)
            raise SmokeFailure(phase)
        print(f"[{phase}] clean shutdown OK")
        return documents
    except SmokeFailure:
        raise
    except Exception as exc:  # noqa: BLE001  (any failure must surface the log)
        reason = (
            f"watchdog killed the server after {WATCHDOG_SECONDS}s"
            if timed_out.is_set()
            else f"smoke test failed: {exc!r}"
        )
        print(f"error [{phase}]: {reason}", file=sys.stderr)
        _dump_server_log(log_path)
        raise SmokeFailure(phase) from exc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        log_file.close()
        log_path.unlink(missing_ok=True)


def main() -> int:
    try:
        healthy = run_phase("healthy", {})
        with tempfile.TemporaryDirectory(prefix="serve-smoke-cache-") as cache_dir:
            run_phase(
                "faults",
                {
                    "REPRO_FAULTS": FAULT_SCHEDULE,
                    "REPRO_FAULTS_SEED": "0",
                    "REPRO_CACHE_DIR": cache_dir,
                    "REPRO_PARALLEL_WORKERS": "2",
                },
                reference=healthy,
            )
    except SmokeFailure:
        return 1
    print("fault-injected responses are bit-for-bit identical to the healthy ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
