import asyncio
import time

import numpy as np
import pytest

from stackbench.layers import (
    DRAW_PARTITION,
    PER_LAYER_NAMES,
    UPDATE_PARTITION,
    ClientDraw,
    SpanTree,
    draw_rows,
    per_layer_rows,
)
from stackbench.tracer import Tracer


def test_synthetic_partition_sums_to_latency():
    # One request (seed 7) through every layer; times in seconds.
    spans = [
        (1, None, "service.draw", 1.0, 9.0, {"seed": 7}),
        (2, None, "service.submit", 1.5, 1.5, {"seed": 7}),
        (3, None, "service.run_batch", 3.0, 8.8, {"seeds": [7]}),
        (4, None, "manager.draw_batch", 3.5, 8.5, {"seeds": [7]}),
        (5, 4, "session.draw_batch", 3.6, 8.0, None),
        (6, 5, "sampler.sample", 4.0, 7.0, {"iterations": 12, "pairs": 10}),
        (7, 6, "kernels.corner_pick", 4.5, 5.0, None),
        (8, 6, "alias.draw_many", 5.0, 5.5, None),
        (9, 6, "sampler.assemble", 6.0, 6.5, None),
        (10, 4, "manager.enforce_budget", 8.1, 8.3, None),
        (11, None, "http.result_to_json", 9.2, 9.4, {"seed": 7}),
    ]
    rows, counts = draw_rows(SpanTree(spans), [ClientDraw(7, 0.0, 10.0)], transport=True)
    expected = {
        "http.overhead_ms": 10.0 - 8.0 - 0.2,
        "http.result_to_json_ms": 0.2,
        "service.admission_wait_ms": 0.5,
        "service.coalesce_wait_ms": 1.5,
        "service.executor_wait_ms": 0.5,
        "manager.self_ms": 5.0 - 4.4 - 0.2,
        "draw.enforce_budget_ms": 0.2,
        "session.draw_self_ms": 4.4 - 3.0,
        "sampler.sample_ms": 3.0 - 1.5,
        "kernels.ms_per_request": 0.5,
        "alias.draw_many_ms": 0.5,
        "sampler.assemble_ms": 0.5,
        "trace.unattributed_ms": 0.5,
    }
    for name, seconds in expected.items():
        assert rows[name] == pytest.approx(seconds * 1e3), name
    assert sum(rows[name] for name in DRAW_PARTITION) == pytest.approx(10.0e3)
    assert rows["kernels.corner_pick_ms"] == pytest.approx(500.0)
    assert counts["sampler.attempts_per_pair"] == pytest.approx(1.2)
    assert counts["sampler.rounds_per_request"] == 1
    assert counts["kernels.calls_per_request"] == 1
    assert counts["trace.draw_latency_mean_ms"] == pytest.approx(10.0e3)


def test_traced_service_partitions_sum_to_latency():
    from repro.datasets.synthetic import uniform_points
    from repro.geometry.point import PointSet
    from repro.manager import SessionManager
    from repro.service import ServiceCore

    rng = np.random.default_rng(2)
    r_points, s_points = uniform_points(2_000, rng), uniform_points(2_000, rng)
    tracer = Tracer()
    tracer.install()
    core = ServiceCore(SessionManager(), own_manager=True)
    draws: list[ClientDraw] = []
    updates: list[tuple[float, float]] = []

    async def one(seed):
        start = time.perf_counter()
        await core.draw(50, tenant="a", seed=seed)
        draws.append(ClientDraw(seed, start, time.perf_counter()))

    async def drive():
        await asyncio.gather(*(one(seed) for seed in range(1, 9)))
        start = time.perf_counter()
        await core.update(
            "s", tenant="a",
            insert=PointSet(xs=np.array([5.0]), ys=np.array([5.0]), ids=np.array([10**6])),
            delete=np.array([0]),
        )
        updates.append((start, time.perf_counter()))
        await asyncio.gather(*(one(seed) for seed in range(9, 13)))

    try:
        core.bind("a", r_points, s_points, 300.0, algorithm="bbst")
        asyncio.run(drive())
    finally:
        core.close()
        tracer.uninstall()
    rows = per_layer_rows(
        tracer.spans, draws, updates, transport=False, reply_kb=0.0, overhead_frac=0.0
    )
    assert list(rows) == list(PER_LAYER_NAMES)
    mean = rows["trace.draw_latency_mean_ms"]
    assert sum(rows[name] for name in DRAW_PARTITION) == pytest.approx(mean, rel=1e-9)
    assert rows["draw.cold_prepare_ms"] > 0  # the first batch prepared the tenant
    assert rows["manager.cold_frac"] > 0
    assert rows["service.batch_size_mean"] > 1
    update_mean = rows["trace.update_latency_mean_ms"]
    assert sum(rows[name] for name in UPDATE_PARTITION) == pytest.approx(update_mean, rel=1e-9)
    assert rows["dynamic.update_ms"] > 0 and rows["bbst.nbytes_ms"] > 0
    assert rows["bbst.index_build_s"] > 0 and rows["grid.build_s"] > 0
