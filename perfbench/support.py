"""Shared plumbing for the benchmark: environment pinning, spans, digests,
percentiles, HTTP helpers and the estimation-server child process.

Nothing here imports ``repro``; the modules that drive the library import it
after :func:`pin_environment` has fixed the environment it reads.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache directories; removed when a run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where traced runs write their spans.
OUT_ROOT = ROOT / ".perfbench_out"

#: Load width: the benchmark drives at most this many threads or connections.
NPROC = 2

#: Every workload ``run.py`` can measure.  BENCHMARK.json lists the ones
#: steady enough to gate on; README.md says why the others are left out.
WORKLOAD_NAMES = ("paper_cold", "figures_replay", "serve_mixed", "fleet_day")

#: Pinned per-chunk working-set budget (the library's fallback default,
#: 1 MiB).  Fixing it keeps the machine probe in
#: ``repro.parallel.calibrate`` out of every run: that probe picked budgets
#: from 256 KiB to 8 MiB in fresh processes on one machine.
CHUNK_BUDGET = str(1 << 20)


def require_checkout() -> None:
    """Exit with status 2 (printing no result) outside a full checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def pin_environment(cache_dir: Path) -> dict[str, str]:
    """Fix the environment this process and its children run with.

    Every inherited ``REPRO_*`` variable is dropped, the chunk budget is
    pinned, and ``REPRO_CACHE_DIR`` points at a fresh, empty directory.
    Returns the environment for child processes.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_BATCH_CHUNK_BUDGET"] = CHUNK_BUDGET
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    # Temporary files stay inside the checkout too.
    tmp = cache_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def scratch_dir():
    """A fresh directory under the checkout, removed on exit."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# ----------------------------------------------------------------- spans


class Spans:
    """In-memory span log: ``(name, start, end, parent)`` per timed call.

    Times are ``perf_counter`` seconds relative to the log's creation.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: list[tuple[str, float, float, "str | None"]] = []

    @contextmanager
    def span(self, name: str, parent: "str | None" = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.records.append((name, start - self.origin, end - self.origin, parent))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for record, start, end, _ in self.records if record == name)

    def as_list(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.records
        ]


def write_spans(label: str, spans: "list[dict]") -> Path:
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"spans-{label}.json"
    path.write_text(json.dumps(spans))
    return path


# ------------------------------------------------------- digests and stats


def digest(payload: object) -> str:
    """Short content digest of a JSON-serializable value.

    ``json.dumps`` writes floats with ``repr``, which round-trips exactly,
    so equal digests mean bit-for-bit equal numbers.
    """
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of one ExperimentResult's per-seed power and energy."""
    return digest(
        [[m.power_watts, m.iteration_energy_j] for m in result.measurements]
    )


def load_digests() -> dict:
    return json.loads((Path(__file__).with_name("digests.json")).read_text())


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def tail_percentile(values: "list[float]", q: float) -> "float | None":
    """The ``q`` quantile (0..1, nearest rank), or ``None`` unless at least
    ten samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    rank = min(rank, len(ordered))
    if len(ordered) - rank < 10:
        return None
    return float(ordered[rank - 1])


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    target = "self" if pid is None else str(pid)
    for line in Path(f"/proc/{target}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{target}/status")


# ------------------------------------------------------------- metadata


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, fields[2]
    except (OSError, IndexError):
        pass
    return fstype


def _source_revision() -> dict[str, str]:
    """The git commit when the checkout is a repository, and always a
    digest of the library sources (an exported source tree has no ``.git``)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return {"git_commit": commit, "source_digest": sha.hexdigest()[:16]}


def run_metadata(workload: str, seed: int, cache_dir: Path) -> dict:
    import numpy

    from repro.parallel.calibrate import chunk_budget_bytes

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "load_width": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_source_revision(),
        "chunk_budget_bytes": chunk_budget_bytes(),
        "cache_dir_fs": _filesystem(cache_dir),
    }


# ------------------------------------------------------------------ HTTP


def http_call(
    port: int, method: str, path: str, body: "bytes | None" = None, timeout: float = 60.0
) -> "tuple[int, bytes]":
    """One request on its own connection (the server closes after each)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServerProcess:
    """``python -m repro.serve --port 0`` as a child process.

    Starting blocks until the listening banner; :meth:`stop` asks for a
    graceful shutdown, then waits, killing the child if it does not exit.
    """

    def __init__(self, env: "dict[str, str]", start_timeout: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        timer = threading.Timer(start_timeout, self.process.kill)
        timer.start()
        try:
            banner = self.process.stdout.readline()
        finally:
            timer.cancel()
        try:
            self.port = int(json.loads(banner)["listening"].rsplit(":", 1)[1])
        except (ValueError, KeyError, IndexError):
            self.stop()
            raise RuntimeError(f"estimation server did not start: {banner!r}") from None
        # The server prints nothing after its banner; draining anyway keeps
        # a chatty build from filling the pipe and stalling the child.
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()

    def stats(self) -> dict:
        status, body = http_call(self.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                http_call(self.port, "POST", "/shutdown", b"{}", timeout=10)
            except (OSError, AttributeError, http.client.HTTPException):
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=10)
        self.process.stdout.close()
