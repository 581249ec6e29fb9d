"""Tests for the serving layer: service semantics, HTTP parsing, server loop.

The HTTP client calls in the server tests run in an executor thread —
blocking ``urlopen`` on the event-loop thread would deadlock against a
server running on the same loop.  Tests that need work held in flight
gate their ``compute`` on a :class:`threading.Event` instead of racing a
timer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import threading
import urllib.error
import urllib.request
import warnings

import pytest

from repro.errors import ExperimentError, ReproError, ServiceOverloadedError, ServingError
from repro.experiments.harness import run_experiment
from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)
from repro.serve.server import EstimationServer
from repro.serve.service import EstimationService, ServiceConfig


class CountingCompute:
    """``run_configs`` stand-in that records every batch it is handed.

    With ``gated=True`` each batch blocks on a :class:`threading.Event`
    until the test calls :meth:`release`, so "a batch is computing" is a
    state the test holds deterministically; :meth:`started` waits for it.
    """

    def __init__(self, fn=None, gated=False):
        from repro.experiments.sweep import run_configs

        self.fn = fn if fn is not None else run_configs
        #: configurations of each call, in call order
        self.batches: "list[list]" = []
        self._entered = threading.Event()
        self._gate = threading.Event()
        if not gated:
            self._gate.set()

    @property
    def calls(self) -> int:
        return len(self.batches)

    @property
    def configs_seen(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def __call__(self, configs, **kwargs):
        self.batches.append(list(configs))
        self._entered.set()
        # The timeout only keeps a failing test from hanging the suite.
        self._gate.wait(timeout=60)
        return self.fn(configs, **kwargs)

    async def started(self) -> None:
        """Return once a batch is blocked in (or past) this compute."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self._entered.wait, 60)

    def release(self) -> None:
        self._gate.set()


def nocache_service(compute=None, config=None) -> EstimationService:
    """A service with every cache tier disabled, so compute counts are real."""
    return EstimationService(
        config,
        cache=None,
        activity_cache=None,
        compute=compute,
    )


class TestSingleFlight:
    def test_concurrent_duplicates_compute_once(self, quiet_config):
        config = quiet_config()
        compute = CountingCompute()
        service = nocache_service(compute)

        async def scenario():
            try:
                return await asyncio.gather(
                    *(service.submit(config) for _ in range(5))
                )
            finally:
                await service.close()

        results = asyncio.run(scenario())
        assert compute.calls == 1
        assert compute.configs_seen == 1
        assert service.stats.requests == 5
        assert service.stats.coalesced == 4
        # Every waiter shares the one result object.
        assert all(result is results[0] for result in results)
        # ...and it is bit-for-bit what an uncached direct run produces.
        direct = run_experiment(config, cache=None)
        assert results[0].as_dict() == direct.as_dict()

    def test_label_only_variants_coalesce_with_restamped_labels(self, quiet_config):
        config_a = quiet_config(label="panel-a")
        config_b = quiet_config(label="panel-b")
        compute = CountingCompute()
        service = nocache_service(compute)

        async def scenario():
            try:
                return await asyncio.gather(
                    service.submit(config_a), service.submit(config_b)
                )
            finally:
                await service.close()

        result_a, result_b = asyncio.run(scenario())
        assert compute.calls == 1 and compute.configs_seen == 1
        assert result_a is result_b  # labels are not part of the flight key
        doc_a = EstimationService.render_result(config_a, result_a)
        doc_b = EstimationService.render_result(config_b, result_b)
        assert doc_a["config"]["label"] == "panel-a"
        assert doc_b["config"]["label"] == "panel-b"
        # Rendering b's document never relabeled the shared object, which
        # still carries the label of the request that computed it.
        assert result_a.as_dict()["config"]["label"] == "panel-a"

    def test_sequential_requests_do_not_coalesce(self, quiet_config):
        config = quiet_config()
        compute = CountingCompute()
        service = nocache_service(compute)

        async def scenario():
            try:
                first = await service.submit(config)
                second = await service.submit(config)
                return first, second
            finally:
                await service.close()

        first, second = asyncio.run(scenario())
        # The flight finished before the second submit: two computations
        # (caches are off), zero coalesced hits — but still equal results.
        assert compute.calls == 2
        assert service.stats.coalesced == 0
        assert first.as_dict() == second.as_dict()


class TestAdmission:
    def test_second_distinct_request_is_rejected(self, quiet_config):
        compute = CountingCompute(gated=True)
        service = nocache_service(compute, config=ServiceConfig(max_pending=1))

        async def scenario():
            try:
                first = asyncio.ensure_future(service.submit(quiet_config()))
                await compute.started()  # in flight, held at the gate
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(quiet_config(matrix_size=160))
                # A duplicate of the in-flight request still coalesces:
                # joining an existing future consumes no admission capacity.
                duplicate = asyncio.ensure_future(service.submit(quiet_config()))
                await asyncio.sleep(0)  # let it join the flight
            finally:
                compute.release()
            results = await asyncio.gather(first, duplicate)
            await service.close()
            return results

        first, duplicate = asyncio.run(scenario())
        assert first is duplicate
        assert service.stats.rejected == 1
        assert service.stats.coalesced == 1

    def test_rejection_is_reported_in_stats_only(self, quiet_config):
        compute = CountingCompute(gated=True)
        service = nocache_service(compute, config=ServiceConfig(max_pending=1))

        async def scenario():
            try:
                first = asyncio.ensure_future(service.submit(quiet_config()))
                await compute.started()
                for size in (160, 192):
                    with pytest.raises(ServiceOverloadedError):
                        await service.submit(quiet_config(matrix_size=size))
            finally:
                compute.release()
            await first
            await service.close()

        asyncio.run(scenario())
        assert service.stats.requests == 3
        assert service.stats.rejected == 2
        assert service.stats.errors == 0


class TestNaturalBatching:
    """No batch timer: an idle service dispatches at once, and whatever
    queues while a batch computes drains together as the next batch."""

    def test_lone_request_dispatches_without_a_timer(self, quiet_config, monkeypatch):
        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)
        config = quiet_config()
        compute = CountingCompute()
        service = nocache_service(compute)

        async def scenario():
            try:
                return await service.submit(config)
            finally:
                await service.close()

        result = asyncio.run(scenario())
        assert sleeps == []
        assert compute.batches == [[config]]
        assert result.as_dict() == run_experiment(config, cache=None).as_dict()

    def test_work_queued_behind_a_batch_drains_as_the_next_batch(self, quiet_config):
        a, b, c = (quiet_config(matrix_size=size) for size in (128, 160, 192))
        compute = CountingCompute(gated=True)
        service = nocache_service(compute)

        async def scenario():
            try:
                first = asyncio.ensure_future(service.submit(a))
                await compute.started()
                rest = [asyncio.ensure_future(service.submit(cfg)) for cfg in (b, c, b)]
                await asyncio.sleep(0)  # b and c queue, the second b coalesces
                assert compute.calls == 1
            finally:
                compute.release()
            results = await asyncio.gather(first, *rest)
            await service.close()
            return results

        _, result_b, result_c, result_b_again = asyncio.run(scenario())
        assert compute.batches == [[a], [b, c]]
        assert service.stats.batches == 2
        assert service.stats.coalesced == 1
        assert result_b_again is result_b
        assert result_c.as_dict() == run_experiment(c, cache=None).as_dict()

    def test_queue_drains_in_max_batch_slices(self, quiet_config):
        configs = [quiet_config(base_seed=2024 + offset) for offset in range(4)]
        compute = CountingCompute()
        service = nocache_service(compute, config=ServiceConfig(max_batch=2))

        async def scenario():
            try:
                return await asyncio.gather(*(service.submit(c) for c in configs))
            finally:
                await service.close()

        asyncio.run(scenario())
        assert compute.batches == [configs[:2], configs[2:]]
        assert service.stats.batches == 2

    def test_poisoned_config_in_queued_work_fails_alone(self, quiet_config):
        from repro.cache.fingerprint import experiment_fingerprint
        from repro.experiments.sweep import run_configs

        head = quiet_config(label="head")
        good = quiet_config(matrix_size=160, label="good")
        poison = quiet_config(matrix_size=192, label="poison")
        poison_key = experiment_fingerprint(poison)

        def poisoned(configs, **kwargs):
            if any(experiment_fingerprint(c) == poison_key for c in configs):
                raise RuntimeError("poisoned configuration")
            return run_configs(configs, **kwargs)

        compute = CountingCompute(poisoned, gated=True)
        service = nocache_service(compute)

        async def scenario():
            try:
                first = asyncio.ensure_future(service.submit(head))
                await compute.started()
                queued = [asyncio.ensure_future(service.submit(c)) for c in (good, poison)]
                await asyncio.sleep(0)
            finally:
                compute.release()
            results = await asyncio.gather(first, *queued, return_exceptions=True)
            await service.close()
            return results

        head_result, good_result, poison_result = asyncio.run(scenario())
        assert compute.batches[:2] == [[head], [good, poison]]
        assert isinstance(poison_result, RuntimeError)
        assert head_result.as_dict() == run_experiment(head, cache=None).as_dict()
        assert good_result.as_dict() == run_experiment(good, cache=None).as_dict()
        assert service.stats.errors == 1
        assert service.stats.isolated_retries == 2
        assert not service._inflight


class TestFailurePaths:
    def test_compute_error_reaches_every_waiter(self, quiet_config):
        def explode(configs, **kwargs):
            raise RuntimeError("estimator fell over")

        config = quiet_config()
        service = nocache_service(compute=explode)

        async def scenario():
            results = await asyncio.gather(
                *(service.submit(config) for _ in range(3)),
                return_exceptions=True,
            )
            await service.close()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(exc, RuntimeError) for exc in results)
        assert service.stats.errors == 1  # one flight failed, not three
        assert len(service._inflight) == 0  # failed key fully retired

    def test_batch_failure_is_isolated_per_config(self, quiet_config):
        """One poisoned config in a drained batch fails only its own future."""
        from repro.cache.fingerprint import experiment_fingerprint
        from repro.experiments.sweep import run_configs

        good = quiet_config(label="good")
        poison = quiet_config(matrix_size=160, label="poison")
        poison_key = experiment_fingerprint(poison)

        def compute(configs, **kwargs):
            if any(experiment_fingerprint(c) == poison_key for c in configs):
                raise RuntimeError("poisoned configuration")
            return run_configs(configs, **kwargs)

        service = nocache_service(compute)

        async def scenario():
            results = await asyncio.gather(
                service.submit(good),
                service.submit(poison),
                return_exceptions=True,
            )
            await service.close()
            return results

        good_result, poison_result = asyncio.run(scenario())
        # The survivor completed with a real result, bit-for-bit the direct
        # computation; only the poisoned config sees the exception.
        assert isinstance(poison_result, RuntimeError)
        direct = run_experiment(good, cache=None)
        assert good_result.as_dict() == direct.as_dict()
        assert service.stats.errors == 1
        assert service.stats.isolated_retries == 2  # both re-ran individually
        assert len(service._inflight) == 0

    def test_single_config_batch_failure_needs_no_retry(self, quiet_config):
        def explode(configs, **kwargs):
            raise RuntimeError("estimator fell over")

        service = nocache_service(compute=explode)

        async def scenario():
            with pytest.raises(RuntimeError):
                await service.submit(quiet_config())
            await service.close()

        asyncio.run(scenario())
        assert service.stats.errors == 1
        assert service.stats.isolated_retries == 0

    def test_closed_service_rejects_submissions(self, quiet_config):
        service = nocache_service()

        async def scenario():
            await service.close()
            with pytest.raises(ServingError):
                await service.submit(quiet_config())

        asyncio.run(scenario())

    def test_close_fails_pending_futures(self, quiet_config):
        compute = CountingCompute(gated=True)
        service = nocache_service(compute)

        async def scenario():
            computing = asyncio.ensure_future(service.submit(quiet_config()))
            await compute.started()
            queued = asyncio.ensure_future(
                service.submit(quiet_config(matrix_size=160))
            )
            await asyncio.sleep(0)
            # Released before close() so its executor shutdown can join the
            # compute thread; close() cancels the batch before the loop
            # sees that batch's result, so both futures are still pending.
            compute.release()
            await service.close()
            for pending in (computing, queued):
                with pytest.raises(ServingError):
                    await pending

        asyncio.run(scenario())
        assert compute.calls == 1  # the queued config never reached compute


class TestDescribe:
    def test_shape_and_counters(self, quiet_config):
        from repro.cache.store import ActivityCache, ExperimentCache

        cache = ExperimentCache()
        activity_cache = ActivityCache()
        service = EstimationService(
            ServiceConfig(),
            cache=cache,
            activity_cache=activity_cache,
        )

        async def scenario():
            try:
                await service.submit(quiet_config())
                await service.submit(quiet_config())
            finally:
                await service.close()

        asyncio.run(scenario())
        doc = service.describe()
        assert set(doc) == {"service", "pending", "config", "caches", "health"}
        assert doc["health"] == {"status": "ok", "reasons": []}
        assert doc["pending"] == 0
        assert doc["service"]["requests"] == 2
        assert doc["service"]["batches"] >= 1
        assert doc["config"]["max_pending"] == 64
        assert "batch_window_s" not in doc["config"]
        # Explicit (non-default) tiers are reported with live counters.
        assert doc["caches"]["experiment"]["disk_dir"] is None
        assert doc["caches"]["experiment"]["hits"] == 1  # second submit hit
        assert "hit_rate" in doc["caches"]["activity"]
        assert json.dumps(doc)  # the /stats body must be JSON-serializable


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ServingError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ServingError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ServingError):
            ServiceConfig(workers=0)

    def test_from_env_defaults_and_overrides(self):
        config = ServiceConfig.from_env({})
        assert (config.max_pending, config.max_batch) == (64, 16)
        assert (config.workers, config.backend) == (1, "auto")

        config = ServiceConfig.from_env(
            {
                "REPRO_SERVE_MAX_PENDING": "8",
                "REPRO_SERVE_MAX_BATCH": "4",
                "REPRO_PARALLEL_WORKERS": "2",
            }
        )
        assert config.max_pending == 8
        assert (config.max_batch, config.workers, config.backend) == (4, 2, "auto")

        with pytest.raises(ServingError):
            ServiceConfig.from_env({"REPRO_SERVE_MAX_PENDING": "many"})

    def test_invalid_backend_fails_at_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        with pytest.raises(ExperimentError, match="bogus"):
            ServiceConfig(backend="bogus")
        with pytest.warns(DeprecationWarning) as record:
            with pytest.raises(ExperimentError, match="bogus"):
                ServiceConfig.from_env(
                    {"REPRO_SERVE_BACKEND": "bogus", "REPRO_SERVE_WORKERS": "2"}
                )
        assert "REPRO_SERVE_BACKEND is deprecated" in str(record[0].message)
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "bogus")
        with pytest.raises(ExperimentError, match="REPRO_PARALLEL_BACKEND"):
            ServiceConfig()
        with pytest.raises(ExperimentError, match="REPRO_PARALLEL_BACKEND"):
            ServiceConfig.from_env({})

    def test_from_env_reads_the_backend_from_its_mapping(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        with pytest.raises(ExperimentError, match="REPRO_PARALLEL_BACKEND"):
            ServiceConfig.from_env({"REPRO_PARALLEL_BACKEND": "bogus"})
        config = ServiceConfig.from_env(
            {"REPRO_PARALLEL_BACKEND": "Threads", "REPRO_PARALLEL_WORKERS": "2"}
        )
        assert (config.backend, config.workers) == ("threads", 2)
        assert ServiceConfig.from_env({"REPRO_PARALLEL_BACKEND": " "}).backend == "auto"
        assert "REPRO_PARALLEL_BACKEND" not in os.environ

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_timeout_must_be_finite(self, raw):
        with pytest.raises(ServingError, match="timeout_s must be finite"):
            ServiceConfig(timeout_s=float(raw))
        with pytest.raises(ServingError, match="timeout_s must be finite"):
            ServiceConfig.from_env({"REPRO_SERVE_TIMEOUT_S": raw})
        assert ServiceConfig(timeout_s=0).timeout_s == 0  # 0 still disables

    def test_from_env_ignores_the_removed_batch_window(self):
        for raw in ("250", "-5", "soon"):
            assert ServiceConfig.from_env(
                {"REPRO_SERVE_BATCH_WINDOW_MS": raw}
            ) == ServiceConfig()

    def test_batch_window_keyword_warns_and_is_ignored(self):
        with pytest.warns(DeprecationWarning, match="batch_window_s") as record:
            config = ServiceConfig(batch_window_s=0.5)
        assert record[0].filename == __file__  # points at the caller's line
        assert config == ServiceConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ServiceConfig(batch_window_s=None) == ServiceConfig()


# --------------------------------------------------------------------- HTTP


def _parse(payload: bytes) -> HttpRequest:
    async def go() -> HttpRequest:
        reader = asyncio.StreamReader()  # needs the running loop
        reader.feed_data(payload)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHttpParsing:
    def test_request_with_body(self):
        body = b'{"gpu": "a100"}'
        request = _parse(
            b"POST /estimate HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
        )
        assert request.method == "POST"
        assert request.path == "/estimate"
        assert request.headers["content-type"] == "application/json"
        assert request.json() == {"gpu": "a100"}

    def test_request_without_body(self):
        request = _parse(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert (request.method, request.path, request.body) == ("GET", "/healthz", b"")

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_truncated_request(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET /healthz HTT")
        assert excinfo.value.status == 400

    def test_body_shorter_than_content_length(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"POST /estimate HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}")
        assert excinfo.value.status == 400

    def test_oversized_content_length(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(
                b"POST /estimate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            )
        assert excinfo.value.status == 413

    def test_chunked_bodies_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(
                b"POST /estimate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 400

    def test_json_helper_errors(self):
        with pytest.raises(HttpError) as excinfo:
            HttpRequest("POST", "/estimate").json()
        assert excinfo.value.status == 400
        with pytest.raises(HttpError) as excinfo:
            HttpRequest("POST", "/estimate", body=b"{nope").json()
        assert excinfo.value.status == 400
        assert HttpRequest("POST", "/x", body=b'{"a": 1}').json() == {"a": 1}

    def test_render_response(self):
        raw = render_response(200, {"b": 1, "a": 2})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: close" in lines
        assert body == b'{"a": 2, "b": 1}'  # sorted keys
        assert render_response(429, {}).startswith(b"HTTP/1.1 429 Too Many Requests")


# ------------------------------------------------------------------- server


def _http_get(base: str, path: str) -> "tuple[int, dict]":
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _http_post_raw(base: str, path: str, body: dict) -> "tuple[int, bytes]":
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _http_post(base: str, path: str, body: dict) -> "tuple[int, dict]":
    status, raw = _http_post_raw(base, path, body)
    return status, json.loads(raw)


async def _client(call, *args):
    """Run a blocking HTTP helper off the event-loop thread.

    Calling urlopen directly on the loop thread would deadlock: the server
    handling the request runs on this very loop.
    """
    return await asyncio.get_running_loop().run_in_executor(None, call, *args)


def run_with_server(scenario, service=None):
    """Boot a server on a free port, run ``scenario(base, server)``, shut down."""

    async def main():
        server = EstimationServer(service, port=0)
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_stopped())
        base = f"http://127.0.0.1:{server.port}"
        try:
            return await scenario(base, server)
        finally:
            server.stop()
            await serve_task

    return asyncio.run(main())


class TestEstimationServer:
    def test_routes_and_errors(self):
        async def scenario(base, server):
            assert await _client(_http_get, base, "/healthz") == (
                200,
                {"status": "ok", "reasons": []},
            )
            status, payload = await _client(_http_get, base, "/nowhere")
            assert status == 404 and "error" in payload
            status, payload = await _client(_http_get, base, "/estimate")
            assert status == 405  # known path, wrong method
            status, payload = await _client(_http_post, base, "/estimate", {"gpu": 42})
            assert status == 400
            status, payload = await _client(
                _http_post, base, "/estimate", {"no_such_field": 1}
            )
            assert status == 400 and "no_such_field" in payload["error"]

        run_with_server(scenario)

    def test_non_finite_config_rejected(self):
        # json.dumps writes NaN/Infinity literals, which json.loads accepts.
        bodies = [
            {"matrix_size": 64, "pattern_params": {"std": float("nan")}},
            {"matrix_size": 64, "pattern_params": {"std": float("inf")}},
            {"matrix_size": 64, "warmup_trim_s": float("nan")},
        ]

        async def scenario(base, server):
            for body in bodies:
                status, payload = await _client(_http_post, base, "/estimate", body)
                assert status == 400 and "finite" in payload["error"], body

        run_with_server(scenario)

    def test_estimate_and_stats_roundtrip(self, quiet_config):
        service = nocache_service(CountingCompute())
        # The wire document carries the estimator/telemetry knobs as nested
        # mappings — describe() alone is the display subset and would let
        # them fall back to server-side defaults.
        config_doc = {
            **quiet_config().describe(),
            "include_process_variation": False,
            "sampling": {"output_samples": 64},
            "telemetry": {"noise_std_watts": 0.0, "drift_watts": 0.0},
        }

        async def scenario(base, server):
            # Bare config document and {"config": ...} wrapper both work
            # and produce the identical response.
            status, bare = await _client(_http_post, base, "/estimate", config_doc)
            assert status == 200
            assert set(bare) == {"fingerprint", "result"}
            status, wrapped = await _client(
                _http_post, base, "/estimate", {"config": config_doc}
            )
            assert status == 200 and wrapped == bare

            status, stats = await _client(_http_get, base, "/stats")
            assert status == 200
            assert stats["service"]["requests"] == 2
            return bare

        response = run_with_server(scenario, service)
        direct = run_experiment(quiet_config(), cache=None)
        assert response["result"]["mean_power_watts"] == pytest.approx(
            direct.as_dict()["mean_power_watts"]
        )

    def test_http_429_when_overloaded(self, quiet_config):
        compute = CountingCompute(gated=True)
        service = nocache_service(compute, config=ServiceConfig(max_pending=1))
        first_doc = quiet_config().describe()
        second_doc = quiet_config(matrix_size=160).describe()

        async def scenario(base, server):
            first = asyncio.ensure_future(
                _client(_http_post, base, "/estimate", first_doc)
            )
            try:
                await compute.started()  # the first request holds the slot
                status, payload = await _client(
                    _http_post, base, "/estimate", second_doc
                )
                assert status == 429 and "error" in payload
            finally:
                compute.release()
            status, _ = await first
            assert status == 200

        run_with_server(scenario, service)
        assert service.stats.rejected == 1

    def test_invalid_pattern_params_rejected_before_admission(self):
        service = nocache_service(CountingCompute())
        body = {
            "matrix_size": 64,
            "pattern_family": "sparsity",
            "pattern_params": {"sparsity": 1.5},
        }

        async def scenario(base, server):
            status, payload = await _client(_http_post, base, "/estimate", body)
            assert status == 400 and "sparsity" in payload["error"]

        run_with_server(scenario, service)
        assert service.stats.requests == 0
        assert service.stats.batches == 0

    def test_warmup_trim_past_shortest_trace_rejected_before_admission(self):
        service = nocache_service(CountingCompute())
        body = {"matrix_size": 64, "seeds": 1, "warmup_trim_s": 3.0}

        async def scenario(base, server):
            status, payload = await _client(_http_post, base, "/estimate", body)
            assert status == 400 and "warmup_trim_s" in payload["error"]

        run_with_server(scenario, service)
        assert service.stats.requests == 0
        assert service.stats.batches == 0

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"seeds": 2.5}, "seeds must be an integer"),
            ({"telemetry": 5}, "telemetry must be an object"),
            ({"sampling": 5}, "sampling must be an object"),
            ({"transpose_b": "no"}, "transpose_b must be true or false"),
            ({"include_process_variation": "false"}, "include_process_variation must be true"),
            ({"config": {}, "seeds": 1}, "unknown key(s) beside the config wrapper: seeds"),
        ],
    )
    def test_non_integer_seeds_rejected_before_admission(self, body, message):
        service = nocache_service(CountingCompute())

        async def scenario(base, server):
            status, payload = await _client(_http_post, base, "/estimate", body)
            assert status == 400 and message in payload["error"]

        run_with_server(scenario, service)
        assert service.stats.requests == 0
        assert service.stats.batches == 0

    def test_shutdown_endpoint_stops_server(self):
        async def scenario(base, server):
            status, payload = await _client(_http_post, base, "/shutdown", {})
            assert (status, payload) == (200, {"status": "stopping"})
            # The serve loop observes the stop event without outside help.
            await asyncio.wait_for(server._stopping.wait(), timeout=5)

        run_with_server(scenario)


class TestChaosBatches:
    """Chaos parametrization: injected batch faults never leak a wrong or
    stuck response to any waiter, coalesced or not (full fault matrix in
    tests/test_faults.py)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_coalesced_waiters_survive_injected_batch_fault(self, quiet_config, seed):
        import repro.faults as faults

        faults.install_schedule(
            faults.FaultSchedule(
                faults.parse_schedule("serve.batch:error@0.5"), seed=seed
            )
        )
        try:
            config = quiet_config()
            compute = CountingCompute()
            service = nocache_service(compute)

            async def scenario():
                try:
                    return await asyncio.gather(
                        *(service.submit(config) for _ in range(4)),
                        return_exceptions=True,
                    )
                finally:
                    await service.close()

            outcomes = asyncio.run(scenario())
        finally:
            faults.reset()
        direct = run_experiment(config, cache=None)
        for outcome in outcomes:
            # Every waiter resolved: the correct result or a typed error.
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, ReproError)
            else:
                assert outcome.as_dict() == direct.as_dict()


def _wire_doc(config) -> dict:
    """``config`` as an ``/estimate`` body, estimator and telemetry knobs
    included (``describe()`` alone would leave them at server defaults)."""
    return {
        **config.describe(),
        "include_process_variation": config.include_process_variation,
        "sampling": dataclasses.asdict(config.sampling),
        "telemetry": dataclasses.asdict(config.telemetry),
    }


class TestWarmHits:
    """A key already in the experiment tier's memory LRU is answered on the
    event loop: no admission slot, no batch, no compute-thread hop."""

    def test_warm_estimate_fingerprints_once_and_skips_compute_and_disk(
        self, quiet_config, tmp_path, monkeypatch
    ):
        import repro.experiments.sweep as sweep
        import repro.serve.server as server_module
        import repro.serve.service as service_module
        from repro.cache.fingerprint import experiment_fingerprint
        from repro.cache.sqlite_store import SqliteStore
        from repro.cache.store import ExperimentCache

        compute = CountingCompute()
        service = EstimationService(
            cache=ExperimentCache(disk_dir=tmp_path / "experiment"),
            activity_cache=None,
            compute=compute,
        )
        body = _wire_doc(quiet_config())
        fingerprints: "list" = []
        disk_reads: "list[str]" = []

        def counting_fingerprint(config, *args, **kwargs):
            fingerprints.append(config)
            return experiment_fingerprint(config, *args, **kwargs)

        real_get = SqliteStore.get

        def counting_get(store, key):
            disk_reads.append(key)
            return real_get(store, key)

        async def scenario(base, server):
            status, cold = await _client(_http_post_raw, base, "/estimate", body)
            assert status == 200 and compute.calls == 1
            for module in (server_module, service_module, sweep):
                monkeypatch.setattr(module, "experiment_fingerprint", counting_fingerprint)
            monkeypatch.setattr(SqliteStore, "get", counting_get)
            status, warm = await _client(_http_post_raw, base, "/estimate", body)
            assert status == 200
            return cold, warm

        cold, warm = run_with_server(scenario, service)
        assert len(fingerprints) == 1
        assert disk_reads == []
        assert compute.calls == 1 and service.stats.batches == 1
        assert warm == cold
        run = service.stats.run
        assert (run.total, run.unique, run.cache_hits, run.executed) == (2, 2, 1, 1)

    def test_lookup_never_creates_the_default_cache(self, quiet_config, monkeypatch):
        import repro.cache.store as store

        for name in ("REPRO_NO_CACHE", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(store, "_default_cache", None)
        monkeypatch.setattr(store, "_default_initialized", False)
        tiers_seen_by_compute: "list[set[str]]" = []

        def spy(configs, **kwargs):
            from repro.experiments.sweep import run_configs

            tiers_seen_by_compute.append(set(store.peek_default_caches()))
            return run_configs(configs, **kwargs)

        compute = CountingCompute(spy)
        service = EstimationService(activity_cache=None, compute=compute)
        config = quiet_config()

        async def scenario():
            try:
                first = await service.submit(config)
                second = await service.submit(config)
            finally:
                await service.close()
            return first, second

        first, second = asyncio.run(scenario())
        # The first request found no default cache and went to the batch
        # path, which created it on the compute thread; the second was a
        # warm hit on it.
        assert "experiment" not in tiers_seen_by_compute[0]
        assert compute.calls == 1 and service.stats.batches == 1
        assert second.as_dict() == first.as_dict()

    def test_warm_hit_answered_while_compute_and_admission_are_full(self, quiet_config):
        from repro.cache.fingerprint import experiment_fingerprint
        from repro.cache.store import ExperimentCache

        warm = quiet_config()
        cache = ExperimentCache()
        cache.put(experiment_fingerprint(warm), run_experiment(warm, cache=None))
        compute = CountingCompute(gated=True)
        service = EstimationService(
            ServiceConfig(max_pending=1), cache=cache, activity_cache=None, compute=compute
        )

        async def scenario(base, server):
            cold = asyncio.ensure_future(
                _client(_http_post, base, "/estimate", _wire_doc(quiet_config(matrix_size=160)))
            )
            try:
                await compute.started()  # the cold request holds the only slot
                other = _wire_doc(quiet_config(matrix_size=192))
                assert (await _client(_http_post, base, "/estimate", other))[0] == 429
                status, payload = await _client(_http_post, base, "/estimate", _wire_doc(warm))
                assert status == 200
                assert payload["fingerprint"] == experiment_fingerprint(warm)
            finally:
                compute.release()
            assert (await cold)[0] == 200

        run_with_server(scenario, service)
        assert compute.calls == 1
        assert service.stats.rejected == 1

    def test_hit_body_is_byte_identical_to_the_batch_body(self, quiet_config):
        from repro.cache.store import ExperimentCache

        computed = _wire_doc(quiet_config(label="panel-a"))
        relabelled = _wire_doc(quiet_config(label="panel-b"))

        async def post(base, body):
            status, raw = await _client(_http_post_raw, base, "/estimate", body)
            assert status == 200
            return raw

        async def through_hits(base, server):
            await post(base, computed)
            return await post(base, relabelled)

        async def through_batches(base, server):
            return await post(base, relabelled)

        hit_service = EstimationService(cache=ExperimentCache(), activity_cache=None)
        hit_body = run_with_server(through_hits, hit_service)
        batch_service = nocache_service()
        batch_body = run_with_server(through_batches, batch_service)
        assert hit_service.stats.batches == 1  # panel-b never reached a batch
        assert batch_service.stats.batches == 1
        assert hit_body == batch_body
        assert json.loads(hit_body)["result"]["config"]["label"] == "panel-b"

    def test_cacheless_service_batches_every_request(self, quiet_config):
        compute = CountingCompute()
        service = nocache_service(compute)
        config = quiet_config()

        async def scenario():
            try:
                for _ in range(3):
                    await service.submit(config)
            finally:
                await service.close()

        asyncio.run(scenario())
        assert compute.calls == 3 and service.stats.batches == 3
        assert service.stats.run.cache_hits == 0
