"""The ``mixed`` workload: many small tenants behind an in-process service.

``ServiceCore`` runs over a budgeted ``SessionManager`` in this process; the
load generator is a closed loop on the same event loop.  One step sends a
burst of concurrent ``t``-draws (asyncio tasks) to one tenant, then a fixed
number of insert/delete updates of that tenant's ``S``.  HTTP is out of the
path: two connections cannot build the concurrency coalescing needs.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from stackbench.benchstats import min_samples
from stackbench.checker import JoinCopy, SideCopy, fresh_twin, replay_mismatches
from stackbench.server import peak_rss_mb
from stackbench.tracer import Tracer
from stackbench.workloads import (
    CYCLES,
    DOMAIN,
    INSERT_ID_BASE,
    WARMUP_SECONDS,
    MixedWorkload,
    RequestSeeds,
    join_inputs,
    setup_due,
    update_rng,
)


@dataclass
class DrawRecord:
    seed: int
    start: float
    end: float
    error: str | None


@dataclass
class UpdateRecord:
    start: float
    end: float
    error: str | None


@dataclass
class Phase:
    """The requests of one stretch of the closed loop and its wall time."""

    draws: list[DrawRecord] = field(default_factory=list)
    updates: list[UpdateRecord] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class MixedRun:
    warmup: Phase
    untraced: Phase
    traced: Phase
    setup_s: list[float]
    peak_rss_mb: float


def tenant_name(index: int) -> str:
    return f"tenant-{index}"


def set_up(workload: MixedWorkload, inputs: list[tuple[Any, Any]]) -> tuple[Any, float]:
    """One timed set-up: service, budgeted manager, every tenant prepared.

    Each tenant is prepared once; the budget evicts as the set-up goes, as
    it would when a service starts.  CPU work only: nothing touches disk.
    """
    from repro.manager import SessionManager
    from repro.service import ServiceConfig, ServiceCore

    gc.collect()
    start = time.perf_counter()
    manager = SessionManager(memory_budget=workload.memory_budget, eviction_cost_weight=0.0)
    config = ServiceConfig(
        max_in_flight=workload.max_in_flight,
        max_queued=4 * workload.burst,
        executor_threads=2,
    )
    core = ServiceCore(manager, config, own_manager=True)
    for index, (r_points, s_points) in enumerate(inputs):
        handle = core.bind(
            tenant_name(index), r_points, s_points, workload.half_extent, algorithm="bbst"
        )
        handle.draw(1, seed=0)
    return core, time.perf_counter() - start


class Generator:
    """The closed-loop load generator and its copy of every tenant's points.

    Each burst is checked as soon as it completes, between steps, against
    the copy current when it was drawn; only the replay picks keep their
    copy, so the generator's memory does not grow with the run.
    """

    def __init__(
        self, workload: MixedWorkload, inputs: list[tuple[Any, Any]], seed: int, corrupt: bool
    ) -> None:
        self.workload = workload
        self.copies = [
            JoinCopy(SideCopy.of(r), SideCopy.of(s), workload.half_extent) for r, s in inputs
        ]
        self.seeds = RequestSeeds(seed)
        self.rng = update_rng(seed)
        self.next_id = INSERT_ID_BASE
        self.step = 0
        self.corrupt = corrupt
        self.correct = 0
        self.failures: list[str] = []
        self.replays: list[tuple[JoinCopy, int, np.ndarray]] = []

    async def _draw(self, core: Any, tenant: int) -> tuple[DrawRecord, Any]:
        seed = self.seeds.take()
        start = time.perf_counter()
        try:
            result = await core.draw(self.workload.t, tenant=tenant_name(tenant), seed=seed)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            return DrawRecord(seed, start, time.perf_counter(), repr(exc)), None
        return DrawRecord(seed, start, time.perf_counter(), None), result

    def _check_burst(self, copy: JoinCopy, burst: list[tuple[DrawRecord, Any]]) -> None:
        workload = self.workload
        pick = (self.step - 1) % workload.replay_every_steps == 0
        pick = pick and len(self.replays) < workload.replay_limit
        for record, result in burst:
            if record.error is not None:
                self.failures.append(f"draw {record.seed}: {record.error}")
                continue
            pairs = np.array(
                [(pair.r_id, pair.s_id) for pair in result.pairs], dtype=np.int64
            ).reshape(-1, 2)
            if self.corrupt:
                self.corrupt = False
                pairs[0, 1] = -1
            reason = copy.check(pairs, workload.t)
            if reason is not None:
                self.failures.append(f"draw {record.seed}: {reason}")
                continue
            self.correct += 1
            if pick:
                self.replays.append((copy, record.seed, pairs))
                pick = False

    async def _update(self, core: Any, tenant: int, out: list[UpdateRecord]) -> None:
        from repro.geometry.point import PointSet

        k = self.workload.update_points
        copy = self.copies[tenant]
        delete = self.rng.choice(copy.s.ids, size=k, replace=False)
        xs = self.rng.uniform(0.0, DOMAIN, size=k)
        ys = self.rng.uniform(0.0, DOMAIN, size=k)
        ids = np.arange(self.next_id, self.next_id + k, dtype=np.int64)
        self.next_id += k
        start = time.perf_counter()
        try:
            await core.update(
                "s", tenant=tenant_name(tenant),
                insert=PointSet(xs=xs, ys=ys, ids=ids), delete=delete,
            )
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            out.append(UpdateRecord(start, time.perf_counter(), repr(exc)))
            self.failures.append(f"update of tenant {tenant}: {exc!r}")
            return
        out.append(UpdateRecord(start, time.perf_counter(), None))
        self.correct += 1
        self.copies[tenant] = JoinCopy(
            copy.r, copy.s.after_update(delete, ids, xs, ys), copy.half_extent
        )

    async def run(self, core: Any, seconds: float, min_steps: int = 0) -> Phase:
        """Steps (burst, then updates) for ``seconds`` and ``min_steps`` steps."""
        phase = Phase()
        schedule = self.workload.schedule
        start = time.perf_counter()
        deadline = start + seconds
        first_step = self.step
        while time.perf_counter() < deadline or self.step - first_step < min_steps:
            tenant = schedule[self.step % len(schedule)]
            self.step += 1
            copy = self.copies[tenant]
            burst = await asyncio.gather(
                *(self._draw(core, tenant) for _ in range(self.workload.burst))
            )
            self._check_burst(copy, burst)
            phase.draws.extend(record for record, _result in burst)
            for _ in range(self.workload.updates_per_step):
                await self._update(core, tenant, phase.updates)
        phase.seconds = time.perf_counter() - start
        return phase


def run_mixed(
    workload: MixedWorkload, seed: int, seconds: float, trace: bool, corrupt: bool
) -> tuple[MixedRun, Generator, Tracer]:
    """Set up, warm up for one pass of the tenant schedule, then measure.

    An untraced run measures in :data:`CYCLES` windows and times throwaway
    set-ups between them (while no request is in flight), so ``setup_s``
    samples the whole run; it measures on past the last window until
    enough draws support the tail percentile.  Peak RSS is read
    before the first throwaway set-up, two windows past the warm-up (so
    after every kind of eviction the schedule makes), and the throwaway
    set-ups do not count.
    """
    inputs = [
        join_inputs("uniform", workload.n, seed, stream=10 + index)
        for index in range(workload.tenants)
    ]
    tracer = Tracer()
    if trace:
        tracer.install()
    core, first_setup = set_up(workload, inputs)
    tracer.uninstall()
    setups = [first_setup]
    peaks: list[float] = []
    generator = Generator(workload, inputs, seed, corrupt)

    async def measure() -> Phase:
        window = Phase()
        cycle = 0
        while cycle < CYCLES or len(window.draws) < min_samples(workload.tail_q):
            part = await generator.run(core, seconds / CYCLES)
            window.draws += part.draws
            window.updates += part.updates
            window.seconds += part.seconds
            if setup_due(cycle, len(setups)):
                if not peaks:
                    peaks.append(peak_rss_mb())
                throwaway, elapsed = set_up(workload, inputs)
                throwaway.close()
                setups.append(elapsed)
            cycle += 1
        return window

    async def drive() -> tuple[Phase, Phase, Phase]:
        warmup = await generator.run(core, WARMUP_SECONDS, len(workload.schedule))
        if not trace:
            return warmup, await measure(), Phase()
        untraced = await generator.run(core, seconds / 2)
        peaks.append(peak_rss_mb())
        tracer.install()
        try:
            traced = await generator.run(core, seconds / 2)
        finally:
            tracer.uninstall()
        return warmup, untraced, traced

    try:
        warmup, untraced, traced = asyncio.run(drive())
    finally:
        core.close()
    return MixedRun(warmup, untraced, traced, setups, peaks[0]), generator, tracer


def replay_mixed(workload: MixedWorkload, generator: Generator) -> list[str]:
    """Replay the picked draws on twins built fresh from the copy of their time."""
    twins: dict[int, Any] = {}
    mismatches: list[str] = []
    try:
        for copy, seed, pairs in generator.replays:
            twin = twins.get(id(copy))
            if twin is None:
                twin = twins[id(copy)] = fresh_twin(copy)
            mismatches += replay_mismatches(twin, [(workload.t, seed, pairs)])
    finally:
        for twin in twins.values():
            twin.close()
    return mismatches
