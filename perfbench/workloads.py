"""The four benchmark workloads, driven through the library's public API.

Each workload is a class with three phases:

* ``__init__`` — set-up: build the inputs from the workload seed (and, for
  ``serve_mixed``, start the server).  This is what ``setup_s`` times.
* ``prepare()`` — the untimed part of the load that the measurement needs
  first: the cold figure pass, the cold fleet simulation, the serve warm-up.
* ``measure(seconds, spans)`` — the timed loop.  It returns a
  :class:`Measurement`; with ``spans`` it also records one span per public
  call (the traced run).

Every workload checks the program's outputs as it goes and counts each
mismatch as a failed operation.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from support import (
    NPROC,
    ServerProcess,
    Spans,
    digest,
    http_call,
    load_digests,
    median,
    peak_rss_mb,
    result_digest,
    tail_percentile,
)

from repro import api
from repro.experiments.config import ExperimentConfig


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` keeps the
    benchmark's own tests fast."""

    name: str
    paper_size: int
    paper_seeds: int
    figure_overrides: "dict"
    fleet_ticks: int
    serve_size: int


FULL = Scale("full", 2048, 10, {}, 288, 128)
SMOKE = Scale("smoke", 128, 2, {"matrix_size": 32, "seeds": 1, "sweep_points": 2}, 48, 32)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}

#: One paper config per input-variation kind: value distribution, bit
#: similarity, placement and sparsity.
PAPER_KINDS = (
    ("gaussian", {}),
    ("zero_lsb", {"fraction": 0.5}),
    ("sorted_rows", {}),
    ("sparsity", {"sparsity": 0.5}),
)
#: Workload seeds map onto this many paper base seeds, whose digests are
#: stored with the benchmark.
PAPER_VARIANTS = 4
#: Trace seeds for ``fleet_day`` (workload seed modulo their count).
FLEET_TRACE_SEEDS = (7, 8, 9, 10, 11, 12, 13, 14)
#: Mid-day power cap on every GPU.  The small diurnal kernels draw 54-89 W
#: unconstrained, so 80 W throttles some jobs; 250 W throttled none.
FLEET_CAP_WATTS = 80.0
FLEET_GPUS = {"a100": 160, "h100": 96}


@dataclass
class Measurement:
    """What one timed loop did."""

    #: ``(units of work, seconds)`` per pass; the work is seeds, configs,
    #: responses or kernels, and a pass is a cold pass, a warm suite
    #: replay, one second of serving, or one re-simulation
    passes: "list[tuple[int, float]]"
    #: wall time of each timed call, seconds
    calls: "list[float]"
    attempted: int
    failed: int
    #: the workload's own metric names, for the human-readable report
    report: "dict[str, tuple[float, str]]" = field(default_factory=dict)

    @property
    def throughput_per_s(self) -> float:
        """Median throughput over the passes: a slow stretch of the
        machine moves it less than a mean over the whole window."""
        return median([work / seconds for work, seconds in self.passes])

    @property
    def latency_p50_ms(self) -> float:
        return median(self.calls) * 1000.0


def paper_configs(seed: int, scale: Scale) -> "list[ExperimentConfig]":
    """The paper's method (fp16_t, paper seed count), one config per kind."""
    base_seed = 2024 + seed % PAPER_VARIANTS
    return [
        ExperimentConfig.paper_defaults(
            "fp16_t",
            pattern_family=family,
            pattern_params=dict(params),
            matrix_size=scale.paper_size,
            seeds=scale.paper_seeds,
            base_seed=base_seed,
            label=family,
        )
        for family, params in PAPER_KINDS
    ]


def fleet_inputs(seed: int, scale: Scale):
    """The seeded diurnal day, round-tripped through its wire format, and
    the capped mixed fleet it runs on."""
    trace = api.generate_trace(
        "diurnal", seed=FLEET_TRACE_SEEDS[seed % len(FLEET_TRACE_SEEDS)],
        ticks=scale.fleet_ticks,
    )
    trace = api.Trace.from_dict(json.loads(json.dumps(trace.as_dict())))
    fleet = api.FleetSpec.from_counts(
        FLEET_GPUS,
        cap_events=[api.CapEvent(tick=scale.fleet_ticks // 2, cap_watts=FLEET_CAP_WATTS)],
    )
    return trace, fleet


# ------------------------------------------------------------ paper_cold


class PaperCold:
    """Cold passes of the four paper configs through ``run_configs``."""

    def __init__(self, seed: int, scale: Scale, scratch: Path, env: "dict[str, str]") -> None:
        self.scratch = scratch
        self.configs = paper_configs(seed, scale)
        self.expected = load_digests()["paper_cold"][scale.name][str(seed % PAPER_VARIANTS)]
        self.pass_count = 0

    def prepare(self) -> None:
        pass

    def measure(self, seconds: float, spans: "Spans | None" = None) -> Measurement:
        calls: list[float] = []
        attempted = failed = 0
        # A pass takes tens of seconds, so stop before one that would
        # overrun the window rather than after it.
        while not calls or sum(calls) + median(calls) <= seconds:
            # Fresh tiers per pass: every pass is as cold as a new process
            # with an empty cache directory.
            root = self.scratch / f"paper-pass{self.pass_count}"
            self.pass_count += 1
            kwargs = {}
            if spans is not None:
                kwargs = {"stats": api.RunStats(), "progress": _progress_spans(spans)}
            started = time.perf_counter()
            results = api.run_configs(
                self.configs,
                workers=NPROC,
                cache=api.ExperimentCache(disk_dir=root),
                activity_cache=api.ActivityCache(disk_dir=root / "activity"),
                plan_cache=None,
                **kwargs,
            )
            elapsed = time.perf_counter() - started
            calls.append(elapsed)
            if spans is not None:
                spans.records.append(
                    ("paper_cold.run_configs", started - spans.origin,
                     started + elapsed - spans.origin, None)
                )
            for config, result in zip(self.configs, results):
                attempted += 1
                failed += result_digest(result) != self.expected[config.label]
        seeds = len(self.configs) * self.configs[0].seeds
        measured = Measurement([(seeds, call) for call in calls], calls, attempted, failed)
        measured.report["cold_seeds_per_s"] = (measured.throughput_per_s, "seeds/s")
        return measured

    def close(self) -> None:
        pass


def _progress_spans(spans: Spans):
    """A ``run_configs`` progress hook that logs each completion as a
    zero-length span."""

    def hook(done: int, total: int, label: str) -> None:
        now = time.perf_counter() - spans.origin
        spans.records.append((f"run_configs.done:{label}", now, now, "run_configs"))

    return hook


# -------------------------------------------------------- figures_replay


def figure_configs(figures) -> list:
    """``(config, result)`` for every request the figures made, with the
    config rebuilt from the description stored in its result."""
    pairs = []
    for figure in figures:
        for panel in figure.panels.values():
            for result in panel.results:
                config = dict(result.config)
                config.pop("device", None)
                pairs.append((ExperimentConfig.from_dict(config), result))
    return pairs


class FiguresReplay:
    """Every figure driver at quick settings: one cold pass, then warm
    replays in a seeded order."""

    def __init__(self, seed: int, scale: Scale, scratch: Path, env: "dict[str, str]") -> None:
        from repro.experiments.figures import FIGURES, FigureSettings, run_figure

        self.run_figure = run_figure
        self.settings = FigureSettings.quick(workers=NPROC, **scale.figure_overrides)
        self.names = sorted(FIGURES)
        self.rng = random.Random(seed)
        self.expected = load_digests()["figures_replay"][scale.name]
        self.report: dict = {}

    def _order(self) -> "list[str]":
        names = list(self.names)
        self.rng.shuffle(names)
        return names

    def _check(self, name: str, figure) -> "tuple[int, int]":
        got = [
            result_digest(result)
            for panel in figure.panels.values()
            for result in panel.results
        ]
        want = self.expected[name]
        mismatched = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        return len(want), mismatched

    def prepare(self) -> None:
        """The cold pass: every cache tier starts empty."""
        from repro.cache.fingerprint import experiment_fingerprint

        started = time.perf_counter()
        figures = {name: self.run_figure(name, self.settings) for name in self._order()}
        elapsed = time.perf_counter() - started
        self.cold_attempted = self.cold_failed = 0
        for name, figure in figures.items():
            attempted, failed = self._check(name, figure)
            self.cold_attempted += attempted
            self.cold_failed += failed
        # Repeated requests are served from the result cache: count each
        # distinct config's seeds once.
        seeds = {
            experiment_fingerprint(config): config.seeds
            for config, _ in figure_configs(figures.values())
        }
        self.report["cold_seeds_per_s"] = (sum(seeds.values()) / elapsed, "seeds/s")

    def measure(self, seconds: float, spans: "Spans | None" = None) -> Measurement:
        passes: list[tuple[int, float]] = []
        attempted, failed = self.cold_attempted, self.cold_failed
        self.cold_attempted = self.cold_failed = 0
        while not passes or sum(took for _, took in passes) < seconds:
            figures = []
            started = time.perf_counter()
            for name in self._order():
                figure_started = time.perf_counter()
                figures.append((name, self.run_figure(name, self.settings)))
                if spans is not None:
                    spans.records.append(
                        (f"run_figure:{name}", figure_started - spans.origin,
                         time.perf_counter() - spans.origin, "replay")
                    )
            elapsed = time.perf_counter() - started
            work = 0
            for name, figure in figures:
                configs, mismatched = self._check(name, figure)
                work += configs
                attempted += configs
                failed += mismatched
            passes.append((work, elapsed))
        calls = [took for _, took in passes]
        measured = Measurement(passes, calls, attempted, failed, dict(self.report))
        measured.report["warm_configs_per_s"] = (measured.throughput_per_s, "configs/s")
        return measured

    def close(self) -> None:
        pass


# ----------------------------------------------------------- serve_mixed

#: Families and dtypes the serve request pool draws from.
SERVE_FAMILIES = (
    ("gaussian", {}),
    ("uniform", {}),
    ("sparsity", {"sparsity": 0.5}),
    ("zero_lsb", {"fraction": 0.5}),
    ("sorted_rows", {}),
    ("bit_flip", {}),
)
SERVE_DTYPES = ("fp16_t", "fp32", "int8")
#: Hot-set size, well under the experiment tier's 128-entry memory LRU.
SERVE_HOT = 24
#: Share of requests that are a burst of ``NPROC`` identical requests.
SERVE_BURST_SHARE = 0.10
#: Share of requests for a distinct, never-seen (cold) config.
SERVE_COLD_SHARE = 0.02
#: Completions per throughput sample of the closed loop.
SERVE_PASS_RESPONSES = 50


def serve_requests(seed: int, scale: Scale, count: int = 40_000) -> "list[dict]":
    """The seeded request list: hot repeats, coalescing bursts, cold configs."""
    rng = random.Random(seed)
    base = {"matrix_size": scale.serve_size, "seeds": 2}

    def config(family_index: int, dtype: str, base_seed: int) -> dict:
        family, params = SERVE_FAMILIES[family_index]
        return {**base, "pattern_family": family, "pattern_params": dict(params),
                "dtype": dtype, "base_seed": base_seed}

    hot = [
        config(index % len(SERVE_FAMILIES), SERVE_DTYPES[index % len(SERVE_DTYPES)],
               1000 + index)
        for index in range(SERVE_HOT)
    ]
    requests: list[dict] = []
    cold = 0
    while len(requests) < count:
        draw = rng.random()
        if draw < SERVE_COLD_SHARE:
            cold += 1
            requests.append(config(rng.randrange(len(SERVE_FAMILIES)),
                                   rng.choice(SERVE_DTYPES), 100_000 + seed * 10_000 + cold))
        elif draw < SERVE_COLD_SHARE + SERVE_BURST_SHARE:
            requests.extend([rng.choice(hot)] * NPROC)
        else:
            requests.append(rng.choice(hot))
    return requests[:count]


def serve_hot_set(requests: "list[dict]") -> "list[dict]":
    seen: dict[str, dict] = {}
    for request in requests:
        if request["base_seed"] < 100_000:
            seen.setdefault(json.dumps(request, sort_keys=True), request)
    return list(seen.values())


class Response(NamedTuple):
    index: int
    status: int
    #: seconds from sending the request to reading the whole response
    latency: float
    body: bytes
    #: ``perf_counter`` time the response was read
    finished: float


def drive_http(port: int, bodies: "list[bytes]", seconds: "float | None",
               spans: "Spans | None" = None) -> "list[Response]":
    """Closed loop with ``NPROC`` client threads over one shared request
    list; stops after ``seconds`` (or when the list runs out)."""
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    done: list[Response] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    errors: list[BaseException] = []

    def client() -> None:
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    status, body = http_call(port, "POST", "/estimate", bodies[index])
                except OSError:
                    status, body = 0, b""
                finished = time.perf_counter()
                elapsed = finished - started
                with lock:
                    done.append(Response(index, status, elapsed, body, finished))
                    if spans is not None:
                        spans.records.append(("http.estimate", started - spans.origin,
                                              started + elapsed - spans.origin, None))
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return done


def expected_measurements(requests: "list[dict]", indices) -> "dict[str, str]":
    """Digest of ``api.estimate_experiment``'s measurements per distinct
    request document, computed in-process."""
    expected: dict[str, str] = {}
    for index in indices:
        key = json.dumps(requests[index], sort_keys=True)
        if key not in expected:
            result = api.estimate_experiment(
                ExperimentConfig.from_dict(requests[index]),
                activity_cache=None, plan_cache=None,
            )
            expected[key] = digest(json.loads(json.dumps(result.as_dict()["measurements"])))
    return expected


def check_responses(requests: "list[dict]", done) -> int:
    """Failed responses: non-200, or measurements that differ from
    ``api.estimate_experiment`` for the same config."""
    expected = expected_measurements(requests, (response.index for response in done))
    failed = 0
    for response in done:
        if response.status != 200:
            failed += 1
            continue
        got = digest(json.loads(response.body)["result"]["measurements"])
        failed += got != expected[json.dumps(requests[response.index], sort_keys=True)]
    return failed


class ServeMixed:
    """The estimation server as a child process, driven closed loop by
    ``NPROC`` HTTP clients."""

    def __init__(self, seed: int, scale: Scale, scratch: Path, env: "dict[str, str]") -> None:
        self.requests = serve_requests(seed, scale)
        self.bodies = [json.dumps(request).encode() for request in self.requests]
        self.server = ServerProcess(env)
        self.cursor = 0

    def prepare(self) -> None:
        """Warm-up: request each hot config once, so the timed loop starts
        from filled caches."""
        hot = serve_hot_set(self.requests)
        for request in hot:
            status, _ = http_call(self.server.port, "POST", "/estimate",
                                  json.dumps(request).encode())
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")

    def measure(self, seconds: float, spans: "Spans | None" = None) -> Measurement:
        started = time.perf_counter()
        done = drive_http(self.server.port, self.bodies[self.cursor:], seconds, spans)
        wall = time.perf_counter() - started
        done = [response._replace(index=self.cursor + response.index) for response in done]
        self.cursor += len(done)
        failed = check_responses(self.requests, done)
        ok = [response for response in done if response.status == 200]
        # One pass per SERVE_PASS_RESPONSES consecutive completions (the
        # whole window when it holds fewer).
        marks = [started] + sorted(response.finished for response in ok)
        step = SERVE_PASS_RESPONSES
        passes = [(step, marks[end] - marks[end - step])
                  for end in range(step, len(marks), step)] or [(len(ok), wall)]
        latencies = [response.latency for response in ok]
        measured = Measurement(passes, latencies, len(done), failed)
        measured.report = {
            "requests_per_s": (measured.throughput_per_s, "req/s"),
            "request_p50_ms": (measured.latency_p50_ms, "ms"),
            "request_samples": (len(latencies), "count"),
        }
        p99 = tail_percentile(latencies, 0.99)
        if p99 is not None:
            measured.report["request_p99_ms"] = (p99 * 1000.0, "ms")
        return measured

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        self.server.stop()


# -------------------------------------------------------------- fleet_day


class FleetDay:
    """One seeded diurnal day on a capped mixed fleet: a cold simulation,
    then warm re-simulations."""

    def __init__(self, seed: int, scale: Scale, scratch: Path, env: "dict[str, str]") -> None:
        self.trace, self.fleet = fleet_inputs(seed, scale)
        self.expected = load_digests()["fleet_day"][scale.name][
            str(seed % len(FLEET_TRACE_SEEDS))
        ]

    def _simulate(self) -> "tuple[dict, int]":
        stats = api.RunStats()
        result = api.simulate_fleet(self.trace, self.fleet, workers=NPROC, stats=stats)
        return result.summary(), stats.executed

    def prepare(self) -> None:
        self.cold_summary, _ = self._simulate()
        self.cold_failed = int(digest(self.cold_summary) != self.expected)

    def measure(self, seconds: float, spans: "Spans | None" = None) -> Measurement:
        calls: list[float] = []
        attempted = 0
        failed = self.cold_failed
        self.cold_failed = 0
        while not calls or sum(calls) < seconds:
            started = time.perf_counter()
            summary, executed = self._simulate()
            elapsed = time.perf_counter() - started
            calls.append(elapsed)
            if spans is not None:
                spans.records.append(("simulate_fleet", started - spans.origin,
                                      started + elapsed - spans.origin, None))
            attempted += 1
            # A warm re-simulation must match the cold one and run no engine.
            failed += summary != self.cold_summary or executed != 0
        kernels = self.trace.total_kernels
        measured = Measurement([(kernels, call) for call in calls], calls, attempted, failed)
        measured.report["fleet_kernels_per_s"] = (measured.throughput_per_s, "kernels/s")
        return measured

    def close(self) -> None:
        pass


WORKLOADS = {
    "paper_cold": PaperCold,
    "figures_replay": FiguresReplay,
    "serve_mixed": ServeMixed,
    "fleet_day": FleetDay,
}


def open_workload(name: str, seed: int, scale: Scale, scratch: Path, env: "dict[str, str]"):
    """Set up one workload (the part ``setup_s`` times)."""
    return WORKLOADS[name](seed, scale, scratch, env)


def workload_peak_rss_mb(workload) -> float:
    """Peak memory of the process doing the work: the server for
    ``serve_mixed``, this process otherwise."""
    if isinstance(workload, ServeMixed):
        return workload.peak_rss_mb()
    return peak_rss_mb()
