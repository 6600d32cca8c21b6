"""The two workloads and the inputs each one generates from its seed.

Each workload is a closed loop from one load-generator process.

* ``bulk``: per-pair work dominates (sampling rounds, pair assembly, JSON
  encoding) on skewed data, which changes the attempts per sample.
* ``mixed``: the only workload that exercises coalescing, budget
  enforcement with eviction and re-prepare, and dynamic maintenance.

Two rules learned from an earlier, rejected design hold throughout: no
metric comes from a probe of a few samples, and no disk I/O happens inside
the timed set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

#: Untimed closed-loop traffic before the measured window.
WARMUP_SECONDS = 1.0

#: Share of ``--seconds`` an HTTP workload spends in its update phase.
UPDATE_SHARE = 0.25

#: Fewest updates an HTTP run sends, however long they take.
MIN_UPDATES = 24

#: Set-ups per run; ``setup_s`` is their median.  One set-up's time swings
#: by up to 1.5x from one second to the next on the reference machine, so
#: a run spreads this many over its length instead of taking a few.
SETUP_ROUNDS = 9

#: Measured windows per untraced run.  HTTP runs alternate draw and update
#: windows, and every run times its further set-ups a third and two thirds
#: of the way through, so the medians sample the whole run, not one stretch
#: of a machine whose speed drifts over seconds.
CYCLES = 12


def setup_due(cycle: int, done: int) -> bool:
    """Whether another set-up is timed after window ``cycle`` (0-based).

    The first set-up starts the run; the other ``SETUP_ROUNDS - 1`` follow
    evenly spaced windows, the last one after the final window.
    """
    extra = SETUP_ROUNDS - 1
    return done < SETUP_ROUNDS and (cycle + 1) * extra // CYCLES > cycle * extra // CYCLES


#: Side of the square the uniform datasets cover.
DOMAIN = 10_000.0

#: Id offset of points the mixed workload inserts (the datasets use 0..n-1).
INSERT_ID_BASE = 1_000_000_000


@dataclass(frozen=True)
class HttpWorkload:
    """One tenant served over HTTP keep-alive by a separate server process."""

    name: str
    dataset: str
    n: int
    half_extent: float
    t: int
    connections: int
    tail_q: float
    update_points: int
    replay_versions: int
    replay_limit: int


@dataclass(frozen=True)
class MixedWorkload:
    """Several small tenants behind an in-process service under a budget."""

    name: str
    tenants: int
    n: int
    half_extent: float
    t: int
    burst: int
    updates_per_step: int
    update_points: int
    memory_budget: int
    max_in_flight: int
    schedule: tuple[int, ...]
    tail_q: float
    replay_every_steps: int
    replay_limit: int


BULK = HttpWorkload(
    name="bulk",
    dataset="nyc",
    n=100_000,
    half_extent=100.0,
    t=10_000,
    connections=1,
    tail_q=0.90,
    update_points=10,
    replay_versions=1,
    replay_limit=16,
)

#: Each tenant's prepared index takes about 0.77 MB, so the budget holds
#: three of the four.  Under pure LRU (no prepare-cost weighting) the
#: schedule misses exactly twice per 16 steps, so the cold path's share is a
#: property of the schedule, not of timing noise.  A burst of 24 against 8
#: in-flight slots runs as three coalesced batches; the median draw falls
#: in the middle one, never on the edge between two.
MIXED = MixedWorkload(
    name="mixed",
    tenants=4,
    n=10_000,
    half_extent=250.0,
    t=100,
    burst=24,
    updates_per_step=3,
    update_points=10,
    memory_budget=2_700_000,
    max_in_flight=8,
    schedule=(0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 3),
    tail_q=0.99,
    replay_every_steps=8,
    replay_limit=10,
)

WORKLOADS: dict[str, HttpWorkload | MixedWorkload] = {
    workload.name: workload for workload in (BULK, MIXED)
}


def join_inputs(dataset: str, n: int, seed: int, stream: int = 0) -> tuple[Any, Any]:
    """``(R, S)`` with ``n`` points each.

    ``uniform`` points come from the run seed; ``nyc`` is the library's
    fixed hotspot proxy with a fixed split, so only requests vary by seed.
    """
    from repro.datasets.partition import split_r_s
    from repro.datasets.real_proxies import load_proxy
    from repro.datasets.synthetic import uniform_points

    if dataset == "uniform":
        rng = np.random.default_rng([seed, stream])
        return uniform_points(n, rng, name="R"), uniform_points(n, rng, name="S")
    if dataset == "nyc":
        return split_r_s(load_proxy("nyc", size=2 * n), np.random.default_rng(0))
    raise ValueError(f"unknown dataset {dataset!r}")


class RequestSeeds:
    """Distinct per-request seeds derived from the run seed.

    A request's seed is also its id: it travels through every layer, so the
    trace links spans to requests by it.
    """

    def __init__(self, seed: int) -> None:
        self._next = int(np.random.default_rng([seed, 1]).integers(2**40)) + 1

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value


def update_rng(seed: int) -> np.random.Generator:
    """The generator of inserted points and deleted ids."""
    return np.random.default_rng([seed, 2])
