"""The closed-loop HTTP load generator of ``bulk``.

The server runs in its own process (:mod:`stackbench.server`); this process
holds the connections, timestamps every request from send to full reply,
and keeps the raw reply bodies.  Decoding and checking happen after the
measured window, so the client spends no think time between requests.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from stackbench import ROOT, SRC
from stackbench.benchstats import min_samples
from stackbench.checker import (
    JoinCopy,
    SideCopy,
    fresh_twin,
    replay_mismatches,
    reply_pairs,
    strided,
)
from stackbench.workloads import (
    CYCLES,
    MIN_UPDATES,
    UPDATE_SHARE,
    WARMUP_SECONDS,
    HttpWorkload,
    RequestSeeds,
    join_inputs,
    setup_due,
    update_rng,
)

#: Seconds to wait for a set-up (the ready line, or a ``setup`` command).
_READY_TIMEOUT = 120.0
_COMMAND_TIMEOUT = 30.0

#: Updates prepared per run; far more than an update phase can send.
_MAX_UPDATES = 2_000


@dataclass
class Reply:
    """One request as the client saw it."""

    seed: int
    start: float
    end: float
    status: int
    body: bytes


class ServerProcess:
    """The serving process, driven over its stdin/stdout command channel."""

    def __init__(self, workload: str, seed: int, trace: bool, spans: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "stackbench.server", "--workload", workload,
             "--seed", str(seed), "--trace", str(int(trace)), "--spans", str(spans)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.ready = self._next(_READY_TIMEOUT)

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self, timeout: float) -> dict[str, Any]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("the server did not answer in time") from None
        if line is None:
            raise RuntimeError(f"the server exited (code {self._proc.poll()})")
        return json.loads(line)

    def command(self, text: str, timeout: float = _COMMAND_TIMEOUT) -> dict[str, Any]:
        assert self._proc.stdin is not None
        self._proc.stdin.write(text + "\n")
        self._proc.stdin.flush()
        return self._next(timeout)

    def quit(self) -> None:
        """Stop the server and wait for it to exit."""
        self.command("quit", timeout=60.0)
        self._proc.wait(timeout=30.0)

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait(timeout=30.0)
        self._reader.join(timeout=5.0)


async def _request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, path: str, body: bytes
) -> tuple[int, bytes]:
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("the server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _draw_loop(
    port: int, t: int, seeds: RequestSeeds, deadline: float, out: list[Reply]
) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while time.perf_counter() < deadline:
            seed = seeds.take()
            body = json.dumps({"t": t, "seed": seed}).encode()
            start = time.perf_counter()
            status, reply = await _request(reader, writer, "/v1/draw", body)
            out.append(Reply(seed, start, time.perf_counter(), status, reply))
    finally:
        writer.close()
        await writer.wait_closed()


async def draw_window(
    port: int, workload: HttpWorkload, seeds: RequestSeeds, seconds: float
) -> list[Reply]:
    """Closed-loop draws on every connection until ``seconds`` have passed."""
    out: list[Reply] = []
    deadline = time.perf_counter() + seconds
    await asyncio.gather(
        *(
            _draw_loop(port, workload.t, seeds, deadline, out)
            for _ in range(workload.connections)
        )
    )
    return out


async def update_window(
    port: int, payloads: Iterator[tuple[int, bytes]], seconds: float, at_least: int
) -> list[Reply]:
    """Closed-loop insert/delete updates on one connection.

    Runs for ``seconds`` and at least ``at_least`` updates, so the update
    median never rests on a handful of samples.
    """
    out: list[Reply] = []
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(out) < at_least:
            index, payload = next(payloads)
            start = time.perf_counter()
            status, reply = await _request(reader, writer, "/v1/update", payload)
            out.append(Reply(index, start, time.perf_counter(), status, reply))
    finally:
        writer.close()
        await writer.wait_closed()
    return out


@dataclass(frozen=True)
class Update:
    """One update a run may send: ``S`` ids it deletes, points it inserts."""

    delete: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    body: bytes


def update_payloads(workload: HttpWorkload, s_points: Any, seed: int) -> list[Update]:
    """Every update a run may send.

    Each update deletes ``k`` original ``S`` ids (a permutation, so none
    twice) and inserts ``k`` points drawn uniformly over the bounding box
    of ``S``, so draws return inserted points too.  The server numbers them
    itself; :func:`check_http` works their ids out.
    """
    rng = update_rng(seed)
    k = workload.update_points
    order = rng.permutation(s_points.ids)
    low = (float(s_points.xs.min()), float(s_points.ys.min()))
    high = (float(s_points.xs.max()), float(s_points.ys.max()))
    payloads = []
    for start in range(0, min(len(order) - k + 1, _MAX_UPDATES * k), k):
        delete = order[start : start + k]
        inserts = rng.uniform(low, high, size=(k, 2))
        body = {"side": "s", "insert": inserts.tolist(), "delete": delete.tolist()}
        payloads.append(
            Update(delete, inserts[:, 0].copy(), inserts[:, 1].copy(), json.dumps(body).encode())
        )
    return payloads


@dataclass
class HttpRun:
    """Everything one HTTP workload run observed, phase by phase in order.

    Phase kinds: ``warmup``, ``draw`` (untraced window), ``traced`` and
    ``update``.
    """

    phases: list[tuple[str, list[Reply]]]
    updates: list[Update]
    setup_s: list[float]
    peak_rss_mb: float
    window_seconds: float

    def replies(self, *kinds: str) -> list[Reply]:
        return [reply for kind, replies in self.phases if kind in kinds for reply in replies]


def _span(replies: list[Reply]) -> float:
    return max(reply.end for reply in replies) - min(reply.start for reply in replies)


def run_http(
    workload: HttpWorkload, seed: int, seconds: float, trace: bool, spans: Path
) -> HttpRun:
    """Start the server, drive it, stop it; no checking happens here.

    An untraced run alternates draw and update windows :data:`CYCLES`
    times and spreads its set-ups over the run, so every median samples the
    whole run and not one stretch of a machine whose speed drifts.  Cycles
    go on past :data:`CYCLES` until the draws support the tail percentile.
    Peak RSS
    is read after the first draw window, before any update: later, draws
    after updates leave the peak to allocator fragmentation, which moved it
    by a fifth from run to run.  A traced run draws untraced for half its
    draw time, then traced, then updates traced.
    """
    _r, s_points = join_inputs(workload.dataset, workload.n, seed)
    payloads = update_payloads(workload, s_points, seed)
    pending = iter(enumerate(update.body for update in payloads))
    seeds = RequestSeeds(seed)
    draw_seconds = seconds * (1.0 - UPDATE_SHARE)
    update_seconds = seconds * UPDATE_SHARE
    phases: list[tuple[str, list[Reply]]] = []
    server = ServerProcess(workload.name, seed, trace, spans)

    def draws(kind: str, length: float) -> list[Reply]:
        replies = asyncio.run(draw_window(port, workload, seeds, length))
        phases.append((kind, replies))
        return replies

    def updates(length: float, at_least: int) -> None:
        phases.append(("update", asyncio.run(update_window(port, pending, length, at_least))))

    try:
        port = int(server.ready["port"])
        setups = [float(server.ready["setup_s"])]
        if trace:
            server.command("trace off")
        draws("warmup", WARMUP_SECONDS)
        if trace:
            window_seconds = _span(draws("draw", draw_seconds / 2))
            peak = float(server.command("rss")["peak_rss_mb"])
            server.command("trace on")
            draws("traced", draw_seconds / 2)
            updates(update_seconds, MIN_UPDATES)
        else:
            need = min_samples(workload.tail_q)
            window_seconds = 0.0
            drawn = cycle = 0
            while cycle < CYCLES or drawn < need:
                replies = draws("draw", draw_seconds / CYCLES)
                window_seconds += _span(replies)
                drawn += len(replies)
                if cycle == 0:
                    peak = float(server.command("rss")["peak_rss_mb"])
                updates(update_seconds / CYCLES, -(-MIN_UPDATES // CYCLES))
                if setup_due(cycle, len(setups)):
                    setups.append(float(server.command("setup", _READY_TIMEOUT)["setup_s"]))
                cycle += 1
        server.quit()
    finally:
        server.kill()
    return HttpRun(
        phases=phases,
        updates=payloads,
        setup_s=setups,
        peak_rss_mb=peak,
        window_seconds=window_seconds,
    )


def check_http(
    workload: HttpWorkload, seed: int, run: HttpRun, corrupt: bool
) -> tuple[int, list[str]]:
    """Check every reply in order; returns ``(correct, failures)``.

    Draws are checked against the copy with every earlier update applied.
    Inserted points get the ids the server's point store gives them: fresh
    consecutive ids above every id ``S`` holds before the update.  Every
    update starts a new data version; an evenly spaced pick of the versions
    that served draws, ending at the last, and an evenly strided pick of
    each one's draws are replayed on an unmanaged twin built fresh from that
    version's copy.  ``corrupt`` doctors one
    reply first, to show the check catches it.
    """
    r_points, s_points = join_inputs(workload.dataset, workload.n, seed)
    copy = JoinCopy(SideCopy.of(r_points), SideCopy.of(s_points), workload.half_extent)
    failures: list[str] = []
    correct = 0
    versions: list[tuple[JoinCopy, list[tuple[int, int, np.ndarray]]]] = [(copy, [])]
    for kind, replies in run.phases:
        for reply in replies:
            if kind == "update":
                body = json.loads(reply.body) if reply.status == 200 else {}
                expected = workload.update_points
                if body.get("inserted") != expected or body.get("deleted") != expected:
                    failures.append(f"update {reply.seed}: HTTP {reply.status} {body}")
                    continue
                update = run.updates[reply.seed]
                first = int(copy.s.ids.max()) + 1
                ids = np.arange(first, first + expected, dtype=np.int64)
                side = copy.s.after_update(update.delete, ids, update.xs, update.ys)
                copy = JoinCopy(copy.r, side, copy.half_extent)
                versions.append((copy, []))
                correct += 1
                continue
            if reply.status != 200:
                failures.append(f"draw {reply.seed}: HTTP {reply.status}")
                continue
            pairs, reason = reply_pairs(json.loads(reply.body), workload.t)
            if pairs is not None and corrupt:
                corrupt = False
                pairs[0, 1] = -1
            if reason is None:
                reason = copy.check(pairs, workload.t)
            if reason is not None:
                failures.append(f"draw {reply.seed}: {reason}")
                continue
            correct += 1
            versions[-1][1].append((workload.t, reply.seed, pairs))
    served = [version for version in versions if version[1]]
    picked = [served[-1 - i] for i in strided(len(served), workload.replay_versions)][::-1]
    per_version = max(1, workload.replay_limit // max(1, len(picked)))
    mismatches: list[str] = []
    for version, draws in picked:
        twin = fresh_twin(version)
        try:
            chosen = [draws[i] for i in strided(len(draws), per_version)]
            mismatches += replay_mismatches(twin, chosen)
        finally:
            twin.close()
    failures.extend(mismatches)
    return correct - len(mismatches), failures
