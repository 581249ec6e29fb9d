"""Asyncio HTTP server for estimation-as-a-service.

Routes (all responses JSON; one request per connection):

``POST /estimate``
    Body: an experiment configuration —
    :meth:`~repro.experiments.config.ExperimentConfig.from_dict` fields,
    either bare or wrapped as ``{"config": {...}}`` (a wrapper holds no
    other key).  Response 200:
    ``{"fingerprint": ..., "result": {...}}`` where ``result`` is the
    :meth:`~repro.experiments.results.ExperimentResult.as_dict` document.
    Response 429 (with a ``Retry-After`` header) when admission control
    rejects, 504 when the request exceeds its ``REPRO_SERVE_TIMEOUT_S``
    deadline, 400 on bad configs.

``GET /stats``
    Live counters: service (requests/coalesced/rejected/batches/timeouts),
    the cumulative sweep-runner accounting, per-tier cache counters with
    hit rates and resilience state, and the health roll-up (see
    :meth:`EstimationService.describe`).

``GET /healthz``
    ``{"status": "ok", "reasons": []}`` while fully healthy;
    ``{"status": "degraded", "reasons": [...]}`` once any resilience
    fallback engaged (a cache tier fallen back to memory-only).  Degraded
    answers are still bit-for-bit correct — the status flags lost
    persistence, never wrong results.

``POST /shutdown``
    Acknowledges, then stops the server (used by scripted deployments and
    the CI smoke test; the server also stops cleanly on SIGINT/SIGTERM).

The server binds one :class:`~repro.serve.service.EstimationService`; see
that module for coalescing/batching/backpressure semantics and
``docs/serving.md`` for the operational story.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from typing import Any

from repro import env
from repro.cache.fingerprint import experiment_fingerprint
from repro.errors import ReproError, ServiceOverloadedError, ServiceTimeoutError, ServingError
from repro.experiments.config import ExperimentConfig
from repro.serve.http import HttpError, HttpRequest, read_request, render_response
from repro.serve.service import EstimationService, ServiceConfig

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "EstimationServer", "serve"]

DEFAULT_HOST = env.KNOBS["REPRO_SERVE_HOST"].default
DEFAULT_PORT = env.KNOBS["REPRO_SERVE_PORT"].default

#: ``Retry-After`` seconds suggested on 429 — long enough for the batches
#: in flight to drain whatever is wedging admission, short enough that
#: well-behaved clients retry before giving up.
RETRY_AFTER_S = 1


class EstimationServer:
    """One listening socket bound to one :class:`EstimationService`."""

    def __init__(
        self,
        service: "EstimationService | None" = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service if service is not None else EstimationService()
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and listen; ``port=0`` resolves to the assigned port.  An
        address that cannot be bound raises :class:`ServingError`."""
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        except (OSError, OverflowError) as exc:  # OverflowError: a port beyond 65535
            raise ServingError(f"cannot listen on {self.host}:{self.port}: {exc}") from exc
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or ``POST /shutdown``) fires, then close."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.close()

    def stop(self) -> None:
        """Request a clean shutdown (idempotent, callable from handlers)."""
        self._stopping.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # ------------------------------------------------------------- handlers

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            headers: "dict[str, str]" = {}
            try:
                request = await read_request(reader)
                status, payload = await self._dispatch(request)
            except HttpError as exc:
                status, payload, headers = exc.status, {"error": exc.message}, exc.headers
            except Exception as exc:  # noqa: BLE001 - must answer, not crash
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            writer.write(render_response(status, payload, headers))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away (or shutdown); nothing to answer
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest) -> "tuple[int, Any]":
        route = (request.method, request.path)
        if route == ("POST", "/estimate"):
            return await self._estimate(request)
        if route == ("GET", "/stats"):
            return 200, self.service.describe()
        if route == ("GET", "/healthz"):
            return 200, self.service.health()
        if route == ("POST", "/shutdown"):
            # Answer first (the caller deserves an ack), then stop: the
            # event fires after this response is written because the
            # serve loop only observes it between scheduler turns.
            asyncio.get_running_loop().call_soon(self.stop)
            return 200, {"status": "stopping"}
        known_paths = {"/estimate", "/stats", "/healthz", "/shutdown"}
        if request.path in known_paths:
            raise HttpError(405, f"method {request.method} not allowed for {request.path}")
        raise HttpError(404, f"no route for {request.path}")

    async def _estimate(self, request: HttpRequest) -> "tuple[int, Any]":
        document = request.json()
        if isinstance(document, dict) and "config" in document:
            extra = sorted(map(str, set(document) - {"config"}))
            if extra:
                raise HttpError(
                    400,
                    f"unknown key(s) beside the config wrapper: {', '.join(extra)}; "
                    'put config fields inside "config"',
                )
            document = document["config"]
        try:
            config = ExperimentConfig.from_dict(document)
        except ReproError as exc:
            raise HttpError(400, str(exc)) from exc
        key = experiment_fingerprint(config)
        try:
            result = await self.service._submit_keyed(config, key)
        except ServiceOverloadedError as exc:
            raise HttpError(
                429, str(exc), headers={"Retry-After": str(RETRY_AFTER_S)}
            ) from exc
        except ServiceTimeoutError as exc:
            raise HttpError(504, str(exc)) from exc
        return 200, {
            "fingerprint": key,
            "result": self.service.render_result(config, result),
        }


async def _serve_async(server: EstimationServer, announce: bool) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, server.stop)
    await server.start()
    if announce:
        print(
            json.dumps(
                {"listening": f"http://{server.host}:{server.port}", "pid": os.getpid()},
                sort_keys=True,
            ),
            flush=True,
        )
    await server.serve_until_stopped()


def serve(
    host: "str | None" = None,
    port: "int | None" = None,
    *,
    config: "ServiceConfig | None" = None,
    announce: bool = True,
) -> None:
    """Run the estimation server until SIGINT/SIGTERM or ``POST /shutdown``.

    ``host``/``port`` default to ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT``
    (``port=0`` picks a free port and announces it); the service knobs come
    from ``config`` or the ``REPRO_SERVE_*`` environment family.  With
    ``announce``, a one-line JSON banner with the bound address is printed
    once the listener is up, so wrappers can scrape the chosen port.
    """
    service = EstimationService(config if config is not None else ServiceConfig.from_env())
    server = EstimationServer(
        service,
        host=host if host is not None else env.read("REPRO_SERVE_HOST"),
        port=port if port is not None else env.read("REPRO_SERVE_PORT"),
    )
    asyncio.run(_serve_async(server, announce))
