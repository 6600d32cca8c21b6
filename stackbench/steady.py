"""Steadiness and comparison of repeated benchmark runs.

    python3 stackbench/steady.py run --workload mixed --runs 10 --out set.json
    python3 stackbench/steady.py compare parent.json change.json

``run`` executes ``run.py`` once per seed (``--seed-base``, +1, ...) and
prints each metric's median, quartiles and spread (interquartile range over
median, quartiles as ``statistics.quantiles(values, n=4)``).  A spread above
a third of the metric's bound in ``BENCHMARK.json`` is flagged ``NEAR``,
one above the bound ``OVER``.

``compare`` sets two saved run sets side by side: for every metric the
change in median in the metric's worse direction, against its bound.  Sets
whose environment stamps differ (interpreter, numpy, kernel backend, CPU
count or model) are refused: their timings are not comparable.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from stackbench import RESULTS_DIR, ROOT  # noqa: E402 - needs the path above
from stackbench.benchstats import summarize  # noqa: E402
from stackbench.envstamp import stamp_mismatches  # noqa: E402

_RUN_TIMEOUT = 600.0


def metric_specs() -> dict[str, dict[str, Any]]:
    """``name -> {"unit", "better", "bound"?}`` from ``BENCHMARK.json``."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {spec["name"]: spec for spec in config["end_to_end"] + config["per_layer"]}


def run_once(
    workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict, dict, float]:
    """One ``run.py`` invocation: ``(metric values, saved record, wall seconds)``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "stackbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=_RUN_TIMEOUT,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    record_path = RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return values, record, time.perf_counter() - start


def flag(spread: float, bound: float | None) -> str:
    if bound is None:
        return ""
    if spread > bound:
        return "OVER"
    if spread > bound / 3:
        return "NEAR"
    return "ok"


def report(runs: list[dict[str, float]], specs: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Print and return the per-metric summary of a run set."""
    summary = {}
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s} flag")
    for name in runs[0]:
        values = [run[name] for run in runs]
        stats = summarize(values)
        bound = specs.get(name, {}).get("bound")
        stats["flag"] = flag(stats["spread"], bound)
        summary[name] = stats
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:34s} {stats['median']:12.5g} {stats['q1']:12.5g} {stats['q3']:12.5g} "
              f"{stats['spread']:8.4f} {bound_text} {stats['flag']}")
    return summary


def cmd_run(args: argparse.Namespace) -> int:
    specs = metric_specs()
    runs, walls, steals, env = [], [], [], None
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    for seed in seeds:
        values, record, wall = run_once(args.workload, seed, args.seconds, args.trace)
        env = env or record["env"]
        problems = stamp_mismatches(env, record["env"])
        if problems:
            raise RuntimeError(f"the environment changed between runs: {problems}")
        runs.append(values)
        walls.append(wall)
        steals.append(record["details"].get("host_steal_frac"))
        steal = f", host steal {steals[-1]:.3f}" if steals[-1] is not None else ""
        print(f"seed {seed} ({wall:.1f} s{steal}): "
              + ", ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
    summary = report(runs, specs)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "seeds": seeds, "env": env, "runs": runs, "wall_s": walls,
            "host_steal_frac": steals, "summary": summary,
        }, indent=1), encoding="utf-8")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base = json.loads(args.base.read_text(encoding="utf-8"))
    other = json.loads(args.other.read_text(encoding="utf-8"))
    problems = stamp_mismatches(base["env"], other["env"])
    if problems:
        print("environment stamps differ: " + "; ".join(problems), file=sys.stderr)
        return 2
    if (base["workload"], base["seconds"]) != (other["workload"], other["seconds"]):
        print("the sets ran different workloads or run lengths", file=sys.stderr)
        return 2
    specs = metric_specs()
    worse_any = False
    print(f"workload {base['workload']}: {len(base['runs'])} vs {len(other['runs'])} runs")
    print(f"{'metric':34s} {'base':>12s} {'other':>12s} {'worse by':>9s} {'bound':>6s} verdict")
    for name, spec in specs.items():
        if name not in base["summary"] or name not in other["summary"]:
            continue
        a, b = base["summary"][name], other["summary"][name]
        bound = spec.get("bound")
        if not a["median"]:
            continue
        change = (b["median"] - a["median"]) / abs(a["median"])
        worse_by = change if spec["better"] == "lower" else -change
        if bound is None:
            verdict = ""
        elif worse_by > bound:
            verdict, worse_any = "WORSE", True
        elif max(a["spread"], b["spread"]) > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:34s} {a['median']:12.5g} {b['median']:12.5g} {worse_by:+9.4f} "
              f"{bound_text} {verdict}")
    return 1 if worse_any else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload N times and summarise")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out", type=Path, default=None)
    compare = commands.add_parser("compare", help="compare two saved run sets")
    compare.add_argument("base", type=Path)
    compare.add_argument("other", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.seconds is None:
            config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            args.seconds = float(config["run_seconds"])
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
