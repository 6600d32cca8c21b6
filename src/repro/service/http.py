"""A thin asyncio HTTP/1.1 transport over :class:`~repro.service.ServiceCore`.

Stdlib only (no third-party HTTP stack in the pinned environment): a small
``asyncio.start_server`` loop that speaks enough HTTP/1.1 for JSON request /
response bodies with keep-alive.  All sampling semantics - coalescing,
admission, determinism - live in the transport-free core; this module only
maps:

* routes to core methods (the table below),
* library exceptions to status codes (the mapping documented in
  :mod:`repro.errors`),
* results to JSON.

=======================  ====================================================
``POST /v1/draw``        ``{"t": 100, "seed": 7, "tenant": ..?}`` ->
                         sampled pairs (coalesced with concurrent requests)
``POST /v1/draw_distinct``  same body -> distinct pairs
``POST /v1/update``      ``{"side": "r", "insert": [[x, y], ...],
                         "delete": [id, ...]}`` -> maintenance report
``POST /v1/plan``        ``{"half_extent": ..?}`` -> planner decision
``GET /v1/stats``        service + manager metrics (``?format=prometheus``
                         for the text exposition format)
``GET /healthz``         liveness (``503`` while draining)
=======================  ====================================================

Graceful shutdown: SIGTERM/SIGINT stop the listener, drain the core (stop
admitting, flush pending coalesce groups, wait for in-flight work up to the
configured timeout), then close lingering connections.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.api.planner import PlanReport
from repro.core.base import JoinSampleResult
from repro.errors import (
    BudgetExceededError,
    InvalidSpecError,
    ServiceOverloadedError,
    SessionClosedError,
    StaleInputError,
)
from repro.service.core import ServiceCore
from repro.service.metrics import render_prometheus

__all__ = ["ServiceServer", "run_server", "http_request"]

#: Request bodies larger than this are rejected with 413 (JSON draw/update
#: requests are tiny; this only bounds hostile or broken clients).
_MAX_BODY = 8 * 1024 * 1024

#: Header-section cap (start line + headers), same spirit as ``_MAX_BODY``.
_MAX_HEADER = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    507: "Insufficient Storage",
}


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays so ``json.dumps`` accepts them."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def result_to_json(result: JoinSampleResult) -> dict[str, Any]:
    """The wire form of one draw reply (pairs by dataset identifiers).

    The ``[r_id, s_id]`` rows are encoded straight from the id columns.
    """
    pairs = result.pairs
    return {
        "sampler": result.sampler_name,
        "requested": result.requested,
        "returned": len(pairs),
        "pairs": np.column_stack((pairs.r_ids, pairs.s_ids)).tolist(),
        "iterations": result.iterations,
        "acceptance_rate": result.acceptance_rate,
        "timings": result.timings.as_dict(),
        "metadata": _jsonable(result.metadata),
    }


def plan_to_json(report: PlanReport) -> dict[str, Any]:
    """The wire form of a planner decision (stats flattened, explain inline)."""
    return {
        "algorithm": report.algorithm,
        "rule": report.rule,
        "reason": report.reason,
        "jobs": report.jobs,
        "candidates": list(report.candidates),
        "stats": _jsonable(asdict(report.stats)),
        "explain": report.explain(),
    }


class _HttpError(Exception):
    """Internal: a fully-formed HTTP error reply (status + message)."""

    def __init__(self, status: int, message: str, headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _map_exception(exc: BaseException) -> _HttpError:
    """Library exception -> HTTP status, per the errors-module contract."""
    if isinstance(exc, ServiceOverloadedError):
        return _HttpError(
            503, str(exc), {"Retry-After": f"{max(exc.retry_after, 0.0):.3f}"}
        )
    if isinstance(exc, StaleInputError):
        return _HttpError(409, str(exc))
    if isinstance(exc, SessionClosedError):
        return _HttpError(410, str(exc))
    if isinstance(exc, BudgetExceededError):
        return _HttpError(507, str(exc))
    if isinstance(exc, (InvalidSpecError, KeyError, TypeError, ValueError)):
        return _HttpError(400, str(exc) or exc.__class__.__name__)
    return _HttpError(500, f"{exc.__class__.__name__}: {exc}")


class ServiceServer:
    """One listening endpoint bound to one :class:`ServiceCore`.

    ``async with ServiceServer(core) as server`` starts listening (port 0
    picks a free port, reported by :attr:`port`); :meth:`shutdown` performs
    the SIGTERM sequence explicitly.  The server never owns the core's
    manager - lifetime composition stays with the caller (the CLI).
    """

    def __init__(self, core: ServiceCore, host: str = "127.0.0.1", port: int = 0):
        self.core = core
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def __aenter__(self) -> "ServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.shutdown()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Stop listening, drain the core, then close lingering connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self.core.drain(drain_timeout)
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        return drained

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._send_json(
                writer, 400, {"error": "malformed request line"}, keep_alive=False
            )
            return False
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER:
                await self._send_json(
                    writer, 400, {"error": "headers too large"}, keep_alive=False
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        # 1*DIGIT only: int() would also take signs, spaces and underscores.
        if not (declared.isascii() and declared.isdigit()):
            await self._send_json(
                writer,
                400,
                {"error": f"invalid Content-Length {declared!r}"},
                keep_alive=False,
            )
            return False
        length = int(declared)
        if length > _MAX_BODY:
            await self._send_json(
                writer, 413, {"error": "request body too large"}, keep_alive=False
            )
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() != "close"
        try:
            status, payload, extra = await self._dispatch(method.upper(), target, body)
        except _HttpError as exc:
            status, payload, extra = exc.status, {"error": str(exc)}, exc.headers
        except BaseException as exc:  # noqa: BLE001 - one reply per request
            mapped = _map_exception(exc)
            status, payload, extra = mapped.status, {"error": str(mapped)}, mapped.headers
        await self._send_json(writer, status, payload, extra, keep_alive=keep_alive)
        return keep_alive

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        path, _, query = target.partition("?")
        core = self.core
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET")
            if core.draining:
                return 503, {"status": "draining"}, {}
            return 200, {"status": "ok", "tenants": core.tenants}, {}
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "use GET")
            stats = core.stats()
            if "format=prometheus" in query:
                return 200, render_prometheus(stats), {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
                }
            return 200, _jsonable(stats), {}
        if method != "POST":
            raise _HttpError(405 if path.startswith("/v1/") else 404, "use POST")
        try:
            request = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        if path in ("/v1/draw", "/v1/draw_distinct"):
            if "t" not in request:
                raise _HttpError(400, "missing required field 't'")
            result = await core.draw(
                request["t"],
                tenant=request.get("tenant"),
                seed=request.get("seed"),
                algorithm=request.get("algorithm"),
                half_extent=request.get("half_extent"),
                jobs=request.get("jobs"),
                distinct=path.endswith("_distinct"),
            )
            return 200, result_to_json(result), {}
        if path == "/v1/update":
            if "side" not in request:
                raise _HttpError(400, "missing required field 'side'")
            insert = request.get("insert")
            if insert is not None:
                insert = np.asarray(insert, dtype=np.float64)
                if insert.ndim != 2 or insert.shape[1] != 2:
                    raise _HttpError(400, "'insert' must be a list of [x, y] pairs")
                insert = (insert[:, 0].copy(), insert[:, 1].copy())
            delete = request.get("delete")
            if delete is not None:
                delete = np.asarray(delete, dtype=np.int64)
            report = await core.update(
                request["side"],
                tenant=request.get("tenant"),
                insert=insert,
                delete=delete,
            )
            return 200, _jsonable(report), {}
        if path == "/v1/plan":
            report = await core.plan(
                tenant=request.get("tenant"),
                half_extent=request.get("half_extent"),
            )
            return 200, plan_to_json(report), {}
        raise _HttpError(404, f"unknown path {path!r}")

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> None:
        headers = dict(extra_headers or {})
        if isinstance(payload, str) and "Content-Type" in headers:
            body = payload.encode("utf-8")  # pre-rendered (prometheus text)
        else:
            body = json.dumps(payload).encode("utf-8")
            headers.setdefault("Content-Type", "application/json")
        lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass


# ----------------------------------------------------------------------
# Minimal async client (tests, the load bench and the example reuse it).
# ----------------------------------------------------------------------
async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, Any] | None = None,
    *,
    connection: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None,
) -> tuple[int, Any]:
    """One JSON request; returns ``(status, decoded_body)``.

    Pass ``connection=(reader, writer)`` (from ``asyncio.open_connection``)
    to reuse a persistent keep-alive connection - what the load generator
    does; without it a fresh connection is opened and closed per call.
    """
    if connection is None:
        reader, writer = await asyncio.open_connection(host, port)
        own = True
    else:
        reader, writer = connection
        own = False
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            + ("Connection: close\r\n" if own else "")
            + "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""
        if headers.get("content-type", "").startswith("application/json"):
            decoded: Any = json.loads(raw) if raw else None
        else:
            decoded = raw.decode("utf-8")
        return status, decoded
    finally:
        if own:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


async def run_server(
    core: ServiceCore,
    host: str = "127.0.0.1",
    port: int = 8723,
    *,
    exit_after: float | None = None,
    on_ready: Any = None,
) -> None:
    """Serve until SIGTERM/SIGINT (or ``exit_after`` seconds), then drain.

    ``exit_after`` gives smoke tests and the CLI's ``--exit-after`` flag a
    deterministic way to exercise the full graceful-shutdown path without
    sending signals; ``on_ready(server)`` is called once the socket listens
    (the CLI prints the bound address from it - relevant with ``port=0``).
    """
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            break
    server = ServiceServer(core, host, port)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    try:
        if exit_after is not None:
            try:
                await asyncio.wait_for(stop.wait(), timeout=exit_after)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        await server.shutdown()
