"""The serving process of the HTTP workloads (started by ``run.py``).

``python3 -m stackbench.server --workload W --seed N --trace 0|1 --spans F``

Sets the workload's tenant up once, listens on a free local port and prints
one JSON line ``{"port": ..., "setup_s": ...}``.  It then obeys one command
per stdin line, answering each with one JSON line on stdout.  The client
sends commands only while no request is in flight:

* ``trace on`` / ``trace off`` - install or remove the tracer;
* ``setup`` - time one more set-up of a throwaway copy of the tenant (the
  client spreads these over the run, so ``setup_s`` samples the whole run);
* ``rss`` - this process's peak resident set size so far;
* ``quit`` (or end of input) - shut down and write the spans to ``F`` when
  tracing was used.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any

from stackbench import use_repro_from_source
from stackbench.tracer import Tracer
from stackbench.workloads import WORKLOADS, HttpWorkload, join_inputs


def _reply(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload: HttpWorkload, r_points: Any, s_points: Any) -> tuple[Any, float]:
    """One timed set-up: manager, service, tenant binding, first prepare.

    CPU work only: the inputs exist beforehand and nothing is written to
    disk inside the timed window.
    """
    from repro.manager import SessionManager
    from repro.service import ServiceCore

    gc.collect()
    start = time.perf_counter()
    core = ServiceCore(SessionManager(), own_manager=True)
    handle = core.bind("main", r_points, s_points, workload.half_extent, algorithm="bbst")
    handle.draw(1, seed=0)
    return core, time.perf_counter() - start


async def serve(core: Any, tracer: Tracer, setup_s: float, set_up_again: Any) -> None:
    from repro.service import ServiceServer

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    server = ServiceServer(core, port=0)
    await server.start()

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install()
            elif command == "trace off":
                tracer.uninstall()
            elif command == "setup":
                throwaway, seconds = set_up_again()
                throwaway.close()
                _reply({"setup_s": seconds})
                continue
            elif command == "rss":
                _reply({"peak_rss_mb": peak_rss_mb()})
                continue
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
                continue
            _reply({"ok": command})
        loop.call_soon_threadsafe(stop.set)

    _reply({"port": server.port, "setup_s": setup_s})
    reader = threading.Thread(target=control, name="stackbench-control", daemon=True)
    reader.start()
    await stop.wait()
    await server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    use_repro_from_source()
    workload = WORKLOADS[args.workload]
    assert isinstance(workload, HttpWorkload)

    tracer = Tracer()
    r_points, s_points = join_inputs(workload.dataset, workload.n, args.seed)
    if args.trace:
        tracer.install()
    core, setup_s = set_up(workload, r_points, s_points)
    try:
        asyncio.run(serve(core, tracer, setup_s, lambda: set_up(workload, r_points, s_points)))
    finally:
        core.close()
        tracer.uninstall()
    if args.trace:
        tracer.dump(args.spans)
    _reply({"ok": "quit"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
