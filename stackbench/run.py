"""Run one workload of the whole-stack benchmark and print its result line.

    python3 stackbench/run.py --workload bulk --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
rows of a traced run.  Every reply is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any reply was wrong.  ``--corrupt`` doctors one reply before checking
(a self-test of the checker: the run must then exit 1).  The full result,
with the environment stamp and sample counts, is saved under
``stackbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from stackbench import (  # noqa: E402 - needs the path above
    RESULTS_DIR,
    ROOT,
    SRC,
    MissingSourceError,
    use_repro_from_source,
)
from stackbench.benchstats import (  # noqa: E402
    percentile,
    samples_beyond,
    tail_percentile,
)
from stackbench.workloads import WORKLOADS, HttpWorkload  # noqa: E402

#: Unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "pairs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "update_p50_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def end_to_end(
    *,
    setup_s: list[float],
    latencies: list[float],
    tail: float,
    ok_draws: int,
    pairs: int,
    seconds: float,
    update_latencies: list[float],
    correct: int,
    attempted: int,
    peak_rss_mb: float,
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "requests_per_s": ok_draws / seconds,
        "pairs_per_s": pairs / seconds,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "update_p50_ms": percentile(update_latencies, 0.5) * 1e3,
        "ok_frac": correct / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def _partition_sums(rows: dict[str, float]) -> dict[str, float]:
    """The draw and update rows' sums beside the traced mean latencies.

    They agree by construction; the saved record shows it for each run.
    """
    from stackbench.layers import DRAW_PARTITION, UPDATE_PARTITION

    return {
        "draw_rows_sum_ms": sum(rows[name] for name in DRAW_PARTITION),
        "draw_latency_mean_ms": rows["trace.draw_latency_mean_ms"],
        "update_rows_sum_ms": sum(rows[name] for name in UPDATE_PARTITION),
        "update_latency_mean_ms": rows["trace.update_latency_mean_ms"],
    }


def _overhead(traced: list[float], untraced: list[float]) -> float:
    base = percentile(untraced, 0.5)
    return (percentile(traced, 0.5) - base) / base


def run_http_workload(
    workload: HttpWorkload, seed: int, seconds: float, trace: bool, corrupt: bool
) -> tuple[dict[str, float], dict[str, Any], int, int, list[str]]:
    from stackbench.httpload import check_http, run_http
    from stackbench.layers import ClientDraw, per_layer_rows
    from stackbench.tracer import load_spans

    spans_path = RESULTS_DIR / f"spans-{workload.name}-{seed}.json"
    run = run_http(workload, seed, seconds, trace, spans_path)
    correct, failures = check_http(workload, seed, run, corrupt)
    attempted = len(run.replies("warmup", "draw", "traced", "update"))
    untraced = run.replies("draw")
    traced = run.replies("traced")
    updates = run.replies("update")
    window = [reply for reply in untraced if reply.status == 200]
    latencies = [reply.end - reply.start for reply in untraced]
    update_latencies = [reply.end - reply.start for reply in updates]
    details: dict[str, Any] = {
        "window_draws": len(untraced),
        "traced_draws": len(traced),
        "updates": len(updates),
        "tail_q": workload.tail_q,
        "tail_samples_beyond": samples_beyond(len(latencies), workload.tail_q),
        "setup_samples_s": run.setup_s,
    }
    if trace:
        metrics = per_layer_rows(
            load_spans(spans_path),
            [ClientDraw(r.seed, r.start, r.end) for r in traced if r.status == 200],
            [(r.start, r.end) for r in updates if r.status == 200],
            transport=True,
            reply_kb=statistics.fmean(len(r.body) for r in traced) / 1024.0,
            overhead_frac=_overhead([r.end - r.start for r in traced], latencies),
        )
        spans_path.unlink()
        details["partition_sums"] = _partition_sums(metrics)
    else:
        tail = tail_percentile(latencies, workload.tail_q)
        metrics = end_to_end(
            setup_s=run.setup_s,
            latencies=latencies,
            tail=tail,
            ok_draws=len(window),
            pairs=len(window) * workload.t,
            seconds=run.window_seconds,
            update_latencies=update_latencies,
            correct=correct,
            attempted=attempted,
            peak_rss_mb=run.peak_rss_mb,
        )
    return metrics, details, correct, attempted, failures


def run_mixed_workload(
    seed: int, seconds: float, trace: bool, corrupt: bool
) -> tuple[dict[str, float], dict[str, Any], int, int, list[str]]:
    from stackbench.layers import ClientDraw, per_layer_rows
    from stackbench.mixed import replay_mixed, run_mixed
    from stackbench.workloads import MIXED

    run, generator, tracer = run_mixed(MIXED, seed, seconds, trace, corrupt)
    mismatches = replay_mixed(MIXED, generator)
    correct = generator.correct - len(mismatches)
    failures = generator.failures + mismatches
    phases = (run.warmup, run.untraced, run.traced)
    attempted = sum(len(phase.draws) + len(phase.updates) for phase in phases)
    window = [draw for draw in run.untraced.draws if draw.error is None]
    latencies = [draw.end - draw.start for draw in run.untraced.draws]
    details: dict[str, Any] = {
        "window_draws": len(run.untraced.draws),
        "traced_draws": len(run.traced.draws),
        "updates": len(run.untraced.updates) + len(run.traced.updates),
        "tail_q": MIXED.tail_q,
        "tail_samples_beyond": samples_beyond(len(latencies), MIXED.tail_q),
        "setup_samples_s": run.setup_s,
    }
    if trace:
        traced = run.traced
        metrics = per_layer_rows(
            tracer.spans,
            [ClientDraw(d.seed, d.start, d.end) for d in traced.draws if d.error is None],
            [(u.start, u.end) for u in traced.updates if u.error is None],
            transport=False,
            reply_kb=0.0,
            overhead_frac=_overhead([d.end - d.start for d in traced.draws], latencies),
        )
        details["partition_sums"] = _partition_sums(metrics)
    else:
        metrics = end_to_end(
            setup_s=run.setup_s,
            latencies=latencies,
            tail=tail_percentile(latencies, MIXED.tail_q),
            ok_draws=len(window),
            pairs=len(window) * MIXED.t,
            seconds=run.untraced.seconds,
            update_latencies=[u.end - u.start for u in run.untraced.updates],
            correct=correct,
            attempted=attempted,
            peak_rss_mb=run.peak_rss_mb,
        )
    return metrics, details, correct, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true", help="doctor one reply (self-test)")
    args = parser.parse_args(argv)
    try:
        use_repro_from_source()
    except MissingSourceError as exc:
        print(f"stackbench: {exc}", file=sys.stderr)
        return 2

    from stackbench.envstamp import cpu_jiffies, environment_stamp, steal_share
    from stackbench.layers import PER_LAYER_NAMES, layer_unit

    RESULTS_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    jiffies = cpu_jiffies()
    if isinstance(workload, HttpWorkload):
        measured = run_http_workload(workload, args.seed, args.seconds, trace, args.corrupt)
    else:
        measured = run_mixed_workload(args.seed, args.seconds, trace, args.corrupt)
    values, details, correct, attempted, failures = measured
    details["host_steal_frac"] = steal_share(jiffies, cpu_jiffies())

    units = (
        {name: layer_unit(name) for name in PER_LAYER_NAMES} if trace else END_TO_END_UNITS
    )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment_stamp(ROOT, SRC),
        "details": details,
        "failures": failures[:50],
        "result": result,
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        f"{args.workload}: {details['window_draws']} draws in the window, "
        f"tail p{details['tail_q'] * 100:g} with {details['tail_samples_beyond']} beyond, "
        f"{details['updates']} updates"
    )
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
