"""Per-layer trace: times each layer's public calls from outside.

Each group measures the layers one workload exercises, on that workload's
inputs (see README.md for the layer -> metric -> workload map):

* ``estimation`` (paper_cold): replays one paper config stage by stage at
  the chunk size ``recommended_chunk`` returns and checks that the replayed
  reports equal ``EstimationPipeline.run``'s;
* ``figures`` (figures_replay): plan, parallel, cache and sweep layers;
* ``serve`` (serve_mixed): the HTTP server's counters plus an in-process
  ``EstimationService`` with a timed compute function;
* ``fleet`` (fleet_day): trace generation, wire round trip, estimates,
  scheduling and attribution.

``run.py --trace 1`` runs every group in a fresh child process::

    python3 perfbench/layers.py --group figures --seed 3

which prints one JSON line: ``metrics`` (name -> [value, unit]),
``attempted``, ``failed`` and ``spans``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time

from support import (
    NPROC,
    ServerProcess,
    Spans,
    digest,
    http_call,
    load_digests,
    median,
    pin_environment,
    require_checkout,
    result_digest,
    scratch_dir,
)

GROUPS = ("estimation", "figures", "serve", "fleet")
#: Distinct figure configs the figures group times one by one.
FIGURE_SUBSET = 48
#: Requests the serve group sends, over HTTP and in-process alike.
SERVE_TRACE_REQUESTS = 600
#: Bursts of ``NPROC`` identical concurrent submits in the fixed burst.
SERVE_BURSTS = 8


class Group:
    """Metrics, spans and checks of one group."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.metrics: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = [value, unit]

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def timed(self, name: str, call, repeats: int = 1):
        """Run ``call`` ``repeats`` times under span ``name``; return the
        last result and the median duration."""
        durations = []
        for _ in range(repeats):
            started = time.perf_counter()
            with self.spans.span(name):
                value = call()
            durations.append(time.perf_counter() - started)
        return value, median(durations)


# ------------------------------------------------------------ estimation


def trace_estimation(group: Group, seed: int, scale) -> None:
    from workloads import paper_configs

    from repro.activity.accumulator import estimate_datapath_activity_batch
    from repro.activity.engine import recommended_chunk
    from repro.activity.memory_traffic import estimate_memory_activity_batch
    from repro.activity.multiplier import estimate_multiplier_activity_batch
    from repro.activity.operand_bus import estimate_operand_activity_batch
    from repro.activity.report import ActivityReport
    from repro.core import EstimationPipeline
    from repro.kernels.schedule import build_streams_stacked

    config = paper_configs(seed, scale)[0]
    pipeline = EstimationPipeline(config, activity_cache=None, plan_cache=None)
    plan = pipeline.plan
    problem = plan.problem
    per_seed_values = problem.n * problem.k + problem.m * problem.k
    chunk = recommended_chunk(per_seed_values)
    span = group.spans.span
    replayed = []
    for start in range(0, config.seeds, chunk):
        seeds = list(range(start, min(start + chunk, config.seeds)))
        with span("patterns.generate"):
            operands = [
                pipeline.generate_operands(problem, index, pattern=plan.pattern)
                for index in seeds
            ]
        with span("kernels.build_streams"):
            stacked = build_streams_stacked(operands)
            # The words are encoded lazily; encoding is this stage's work.
            stacked.a_words, stacked.b_words, stacked.b_stored_words
        del operands
        with span("activity.operand_bus"):
            operand = estimate_operand_activity_batch(stacked)
        with span("activity.multiplier"):
            multiplier = estimate_multiplier_activity_batch(stacked)
        with span("activity.datapath"):
            datapath = estimate_datapath_activity_batch(stacked, config.sampling, seeds=seeds)
        with span("activity.memory"):
            memory = estimate_memory_activity_batch(stacked)
        shape = (stacked.n, stacked.m, stacked.k)
        dtype = stacked.dtype.name
        del stacked
        for index, op, mu, dp, me in zip(seeds, operand, multiplier, datapath, memory):
            report = ActivityReport(
                operand_activity=op.activity,
                multiplier_activity=mu.activity,
                datapath_activity=dp.activity,
                memory_activity=me.activity,
                operand_toggle_a=op.toggle_a,
                operand_toggle_b=op.toggle_b,
                multiplier_hw_product=mu.hw_product,
                zero_mac_fraction=mu.zero_mac_fraction,
                product_toggle=dp.product_toggle,
                accumulator_toggle=dp.accumulator_toggle,
                memory_toggle=me.toggle,
                a_hamming_fraction=mu.a_hamming_fraction,
                b_hamming_fraction=mu.b_hamming_fraction,
                bit_alignment=dp.bit_alignment,
                dtype=dtype,
                shape=shape,
                output_samples=dp.output_samples,
            )
            with span("core.measure_seed"):
                replayed.append(
                    pipeline.measure_seed(index, plan.launch, report, plan.monitor)
                )

    result, pipeline_s = group.timed("core.pipeline", pipeline.run)
    group.check([m.as_dict() for m in replayed] == [m.as_dict() for m in result.measurements])
    expected = load_digests()["paper_cold"][scale.name]
    group.check(result_digest(result) == expected[str(seed % len(expected))][config.label])

    stages = {
        "patterns.generate_s": "patterns.generate",
        "kernels.build_streams_s": "kernels.build_streams",
        "activity.operand_bus_s": "activity.operand_bus",
        "activity.multiplier_s": "activity.multiplier",
        "activity.datapath_s": "activity.datapath",
        "activity.memory_s": "activity.memory",
    }
    for metric, name in stages.items():
        group.put(metric, group.spans.total(name), "s")
    accounted = sum(group.spans.total(name) for name in stages.values())
    accounted += group.spans.total("core.measure_seed")
    group.put("kernels.operand_bytes_per_seed", per_seed_values * 8, "bytes")
    group.put("activity.chunk_seeds", chunk, "count")
    group.put("core.pipeline_s", pipeline_s, "s")
    group.put("core.unaccounted_s", pipeline_s - accounted, "s")


# --------------------------------------------------------------- figures


def trace_figures(group: Group, seed: int, scale, scratch) -> None:
    from workloads import figure_configs

    from repro import api
    from repro.cache.fingerprint import experiment_fingerprint
    from repro.core import EstimationPipeline
    from repro.experiments.figures import FIGURES, FigureSettings, run_figure
    from repro.experiments.plan import build_plan
    from repro.parallel.calibrate import chunk_budget_bytes

    settings = FigureSettings.quick(workers=NPROC, **scale.figure_overrides)
    expected = load_digests()["figures_replay"][scale.name]
    names = sorted(FIGURES)
    random.Random(seed).shuffle(names)
    cold_figures = []
    for phase in ("cold", "warm"):
        for name in names:
            with group.spans.span(f"figures.{phase}.{name}"):
                figure = run_figure(name, settings)
            got = [result_digest(r) for p in figure.panels.values() for r in p.results]
            group.check(got == expected[name])
            if phase == "cold":
                cold_figures.append(figure)
    pairs = figure_configs(cold_figures)

    tiers = api.default_caches()
    experiment = tiers["experiment"].describe_memory()
    lookups = experiment["hits"] + experiment["misses"]
    memory_hits = experiment["hits"] - experiment["disk_hits"]
    group.put("cache.experiment.lookups", lookups, "count")
    group.put("cache.experiment.memory_hit_ratio", memory_hits / lookups, "ratio")
    group.put("cache.experiment.disk_hit_ratio", experiment["disk_hits"] / lookups, "ratio")
    group.put("cache.experiment.evictions", experiment["evictions"], "count")
    activity = tiers["activity"].describe_memory()
    activity_lookups = activity["hits"] + activity["misses"]
    group.put("cache.activity.lookups", activity_lookups, "count")
    group.put("cache.activity.hit_ratio", activity["hits"] / max(activity_lookups, 1), "ratio")
    # The plan tier is slated for removal; without it, report zero hits.
    plan_tier = tiers.get("plan")
    plan_stats = plan_tier.describe_memory() if plan_tier is not None else {"hits": 0, "misses": 0}
    plan_lookups = plan_stats["hits"] + plan_stats["misses"]
    group.put("plan.hits", plan_stats["hits"], "count")
    group.put("plan.lookups", plan_lookups, "count")
    group.put("plan.hit_ratio", plan_stats["hits"] / max(plan_lookups, 1), "ratio")

    configs = [config for config, _ in pairs]
    stats = api.RunStats()
    group.timed("sweep.run_configs_warm", lambda: api.run_configs(
        configs, workers=NPROC, stats=stats))
    group.put("sweep.unique", stats.unique, "count")
    group.put("sweep.executed", stats.executed, "count")
    group.put("sweep.cache_hits", stats.cache_hits, "count")

    started = time.perf_counter()
    keys = [experiment_fingerprint(config) for config in configs]
    group.put("cache.fingerprint_us", (time.perf_counter() - started) / len(configs) * 1e6, "us")
    cache = tiers["experiment"]
    started = time.perf_counter()
    for key in keys:
        cache.get(key)
    group.put("cache.experiment.get_us", (time.perf_counter() - started) / len(keys) * 1e6, "us")

    distinct = {}
    for key, (config, result) in zip(keys, pairs):
        distinct.setdefault(key, (config, result))
    subset = random.Random(seed).sample(sorted(distinct), min(FIGURE_SUBSET, len(distinct)))
    subset_pairs = [distinct[key] for key in subset]
    subset_configs = [config for config, _ in subset_pairs]

    fresh = api.ExperimentCache(disk_dir=scratch / "put")
    started = time.perf_counter()
    for key, (_, result) in zip(subset, subset_pairs):
        fresh.put(key, result)
    group.put("cache.experiment.put_ms", (time.perf_counter() - started) / len(subset) * 1e3, "ms")

    started = time.perf_counter()
    for config in subset_configs:
        build_plan(config, cache=None)
    group.put("plan.build_ms", (time.perf_counter() - started) / len(subset) * 1e3, "ms")

    serial = []
    measure_seed = []
    for config, cached in subset_pairs:
        started = time.perf_counter()
        with group.spans.span("core.estimate_experiment"):
            result = api.estimate_experiment(config, activity_cache=None, plan_cache=None)
        serial.append(time.perf_counter() - started)
        group.check(result_digest(result) == result_digest(cached))
        pipeline = EstimationPipeline(config, activity_cache=None, plan_cache=None)
        for measurement in result.measurements:
            started = time.perf_counter()
            again = pipeline.measure_seed(
                measurement.seed, pipeline.plan.launch, measurement.activity,
                pipeline.plan.monitor,
            )
            measure_seed.append(time.perf_counter() - started)
            group.check(again.as_dict() == measurement.as_dict())
    pipeline_total = sum(serial)
    group.put("core.measure_seed_s", sum(measure_seed) / len(measure_seed), "s")

    def sweep(workers, cache):
        return api.run_configs(subset_configs, workers=workers, cache=cache,
                               activity_cache=None, plan_cache=None)

    serial_results, serial_wall = group.timed(
        "sweep.run_configs_serial",
        lambda: sweep(1, api.ExperimentCache(disk_dir=scratch / "sweep")),
    )
    parallel_results, parallel_wall = group.timed(
        "parallel.run_configs", lambda: sweep(NPROC, None)
    )
    for results in (serial_results, parallel_results):
        group.check([result_digest(r) for r in results]
                    == [result_digest(cached) for _, cached in subset_pairs])
    group.put("sweep.overhead_s", serial_wall - pipeline_total, "s")
    group.put("parallel.speedup", pipeline_total / parallel_wall, "x")
    group.put("parallel.subset_configs", len(subset_configs), "count")
    group.put("parallel.chunk_budget_bytes", chunk_budget_bytes(), "bytes")


# ----------------------------------------------------------------- serve


async def _inprocess_replay(service, configs, hot, key_of):
    """Closed loop of ``NPROC`` submitters over ``configs``; returns each
    request's latency and its key."""
    for config in hot:
        await service.submit(config)
    cursor = iter(range(len(configs)))
    latencies = []

    async def client():
        for index in cursor:
            started = time.perf_counter()
            await service.submit(configs[index])
            latencies.append((time.perf_counter() - started, key_of[index]))

    await asyncio.gather(*(client() for _ in range(NPROC)))
    return latencies


async def _burst(service, configs) -> None:
    for config in configs:
        await asyncio.gather(*(service.submit(config) for _ in range(NPROC)))


def trace_serve(group: Group, seed: int, scale, scratch, env) -> None:
    from workloads import check_responses, drive_http, serve_hot_set, serve_requests

    from repro import api
    from repro.cache.fingerprint import experiment_fingerprint
    from repro.experiments.config import ExperimentConfig
    from repro.serve.service import EstimationService

    requests = serve_requests(seed, scale, count=SERVE_TRACE_REQUESTS)
    hot = serve_hot_set(requests)
    bodies = [json.dumps(request).encode() for request in requests]

    server = ServerProcess(env)
    try:
        for request in hot:
            status, _ = http_call(server.port, "POST", "/estimate", json.dumps(request).encode())
            group.check(status == 200)
        done = drive_http(server.port, bodies, None, group.spans)
        stats = server.stats()["service"]
    finally:
        server.stop()
    failed = check_responses(requests, done)
    group.attempted += len(done)
    group.failed += failed
    http_latencies = [response.latency for response in done if response.status == 200]

    requests_total = stats["requests"]
    group.put("serve.requests", requests_total, "count")
    group.put("serve.batches", stats["batches"], "count")
    group.put("serve.coalesced_ratio", stats["coalesced"] / requests_total, "ratio")
    group.put("serve.batch_size_mean", stats["run"]["total"] / stats["batches"], "count")
    group.put("serve.cache_hit_ratio",
              stats["run"]["cache_hits"] / max(stats["run"]["unique"], 1), "ratio")
    group.put("serve.rejected", stats["rejected"], "count")
    group.put("serve.timeouts", stats["timeouts"], "count")

    batch_seconds: dict[str, float] = {}
    batches: list[float] = []

    def timed_compute(configs, **kwargs):
        started = time.perf_counter()
        results = api.run_configs(configs, **kwargs)
        elapsed = time.perf_counter() - started
        batches.append(elapsed)
        for config in configs:
            batch_seconds[experiment_fingerprint(config)] = elapsed
        return results

    configs = [ExperimentConfig.from_dict(request) for request in requests]
    key_of = [experiment_fingerprint(config) for config in configs]
    hot_configs = [ExperimentConfig.from_dict(request) for request in hot]

    def service(name):
        root = scratch / name
        return EstimationService(
            cache=api.ExperimentCache(disk_dir=root),
            activity_cache=api.ActivityCache(disk_dir=root / "activity"),
            compute=timed_compute,
        )

    async def replay():
        inprocess = service("inprocess")
        try:
            return await _inprocess_replay(inprocess, configs, hot_configs, key_of)
        finally:
            await inprocess.close()

    with group.spans.span("serve.inprocess_replay"):
        latencies = asyncio.run(replay())
    # Waiting is the submit latency not spent computing the request's batch.
    waits = [latency - batch_seconds[key] for latency, key in latencies]
    group.put("serve.queue_wait_ms", median(waits) * 1e3, "ms")
    group.put("serve.compute_ms", median(batches) * 1e3, "ms")
    group.put("serve.http_ms",
              (median(http_latencies) - median([lat for lat, _ in latencies])) * 1e3, "ms")

    burst_configs = [
        ExperimentConfig.from_dict({**hot[0], "base_seed": 500_000 + index})
        for index in range(SERVE_BURSTS)
    ]

    async def burst():
        fixed = service("burst")
        try:
            await _burst(fixed, burst_configs)
            return fixed.stats
        finally:
            await fixed.close()

    burst_stats = asyncio.run(burst())
    group.put("serve.burst_coalesced_ratio", burst_stats.coalesced / burst_stats.requests,
              "ratio")


# ----------------------------------------------------------------- fleet


def trace_fleet(group: Group, seed: int, scale) -> None:
    from workloads import FLEET_TRACE_SEEDS, fleet_inputs

    from repro import api
    from repro.fleet.attribution import attribute_energy
    from repro.fleet.scheduler import DiscreteTimeScheduler
    from repro.fleet.simulator import build_estimates

    trace_seed = FLEET_TRACE_SEEDS[seed % len(FLEET_TRACE_SEEDS)]
    trace, generate_s = group.timed("fleet.generate", lambda: api.generate_trace(
        "diurnal", seed=trace_seed, ticks=scale.fleet_ticks), repeats=3)
    _, roundtrip_s = group.timed("fleet.trace_roundtrip", lambda: api.Trace.from_dict(
        json.loads(json.dumps(trace.as_dict()))), repeats=3)
    group.put("fleet.generate_s", generate_s, "s")
    group.put("fleet.trace_roundtrip_s", roundtrip_s, "s")

    trace, fleet = fleet_inputs(seed, scale)
    cold = api.simulate_fleet(trace, fleet, workers=NPROC)
    expected = load_digests()["fleet_day"][scale.name][str(seed % len(FLEET_TRACE_SEEDS))]
    group.check(digest(cold.summary()) == expected)

    estimates, build_s = group.timed("fleet.build_estimates", lambda: build_estimates(
        trace, fleet, workers=NPROC), repeats=5)
    schedule, schedule_s = group.timed("fleet.schedule", lambda: DiscreteTimeScheduler(
        fleet).schedule(trace, estimates), repeats=5)
    _, attribute_s = group.timed("fleet.attribute", lambda: attribute_energy(
        schedule, fleet, trace.tick_s), repeats=5)
    group.put("fleet.build_estimates_s", build_s, "s")
    group.put("fleet.schedule_s", schedule_s, "s")
    group.put("fleet.attribute_s", attribute_s, "s")

    stats = api.RunStats()
    warm = api.simulate_fleet(trace, fleet, workers=NPROC, stats=stats)
    group.check(warm.summary() == cold.summary())
    group.put("fleet.engine_runs_warm", stats.executed, "count")


def run_group(name: str, seed: int, scale, scratch, env) -> Group:
    group = Group()
    if name == "estimation":
        trace_estimation(group, seed, scale)
    elif name == "figures":
        trace_figures(group, seed, scale, scratch)
    elif name == "serve":
        trace_serve(group, seed, scale, scratch, env)
    else:
        trace_fleet(group, seed, scale)
    return group


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=GROUPS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)
    require_checkout()
    with scratch_dir() as scratch:
        env = pin_environment(scratch / "cache")
        from workloads import SCALES

        group = run_group(args.group, args.seed, SCALES[args.scale], scratch, env)
    print(json.dumps({
        "metrics": group.metrics,
        "attempted": group.attempted,
        "failed": group.failed,
        "spans": group.spans.as_list(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
