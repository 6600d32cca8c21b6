"""Warm-start experiment: attaching a saved artifact vs rebuilding.

The prepared-state artifact layer (:mod:`repro.artifacts`) exists so a
restarted process can *attach* memory-mapped blobs instead of re-running
the build/count pipeline.  This experiment measures exactly that trade on
a pinned uniform instance:

* **cold** - ``SamplingSession.prepare()`` from raw points (build + count),
* **save** - ``SamplingSession.save()`` of the prepared entry,
* **warm** - ``SamplingSession.load()`` over the saved directory with
  ``eager=True`` (every entry attached from disk before the clock stops).

Both sessions then draw the same request with the same seed and the row's
``match`` records whether the warm draws are **bit-identical** to the cold
ones - the speedup can never be bought with a different draw stream.  The
committed CI floor (>= 10x at n = m = 1,000,000) lives in
``benchmarks/baseline_ci.json`` under ``warm_start`` and is enforced by
``python -m repro.bench.ci_gate --warmstart``.
"""

from __future__ import annotations

import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.api.session import SamplingSession
from repro.bench.workloads import ExperimentScale
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points

__all__ = ["run_warm_start", "WARMSTART_HALF_EXTENT"]

#: Window half-extent of the experiment (the paper's default l=100).
WARMSTART_HALF_EXTENT = 100.0

#: Synthetic point budgets per scale (before the R/S split).
_WARMSTART_SCALE_SIZES: dict[ExperimentScale, tuple[int, ...]] = {
    ExperimentScale.SMOKE: (20_000,),  # n = m = 10,000: sub-second
    ExperimentScale.PAPER: (200_000, 2_000_000),  # up to the committed n = m = 1M
}


def _tree_nbytes(root: Path) -> int:
    """Total on-disk bytes of an artifact directory."""
    return sum(entry.stat().st_size for entry in root.rglob("*") if entry.is_file())


def run_warm_start(
    workloads: Sequence[object] | None = None,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    num_samples: int | None = None,
    seed: int = 61,
    algorithms: Sequence[str] = ("bbst",),
    jobs: int | None = None,
) -> list[dict]:
    """Cold prepare vs artifact attach, with a bit-identity check per row.

    ``sizes`` holds total point budgets (n = m = size / 2), overriding the
    per-scale ladder; the workload is otherwise pinned (``workloads`` /
    ``datasets`` are accepted for registry uniformity and ignored).  Each
    row reports the cold prepare seconds, the artifact save/attach seconds,
    the attach speedup over the cold prepare, the artifact's on-disk bytes
    and ``match`` - whether the warm session's draws equal the cold
    session's draws pair-for-pair.  With ``jobs >= 2`` the shard-parallel
    engine is measured instead of the serial one.
    """
    del workloads, datasets  # pinned workload; see docstring
    chosen = tuple(sizes) if sizes is not None else _WARMSTART_SCALE_SIZES[scale]
    rows: list[dict] = []
    for size in chosen:
        rng = np.random.default_rng(seed)
        points = uniform_points(size, rng, name=f"uniform-{size // 2_000}k")
        r_points, s_points = split_r_s(points, rng)
        dataset = f"uniform-{len(r_points) // 1_000}k"
        t = (
            (2_000 if scale is ExperimentScale.SMOKE else 10_000)
            if num_samples is None
            else num_samples
        )
        for name in algorithms:
            with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp:
                target = Path(tmp) / "artifact"
                cold = SamplingSession(  # repro-lint: disable=RL004 (cold-start timing needs an unmanaged session)
                    r_points,
                    s_points,
                    half_extent=WARMSTART_HALF_EXTENT,
                    algorithm=name,
                    jobs=jobs,
                    eager=False,
                )
                try:
                    start = time.perf_counter()
                    cold.prepare()
                    cold_seconds = time.perf_counter() - start
                    start = time.perf_counter()
                    cold.save(target)
                    save_seconds = time.perf_counter() - start
                    cold_result = cold.draw(t, seed=seed)
                finally:
                    cold.close()
                artifact_bytes = _tree_nbytes(target)
                start = time.perf_counter()
                warm = SamplingSession.load(
                    target, r_points, s_points, eager=True
                )
                warm_seconds = time.perf_counter() - start
                try:
                    warm_loads = warm.stats.warm_loads
                    warm_result = warm.draw(t, seed=seed)
                finally:
                    warm.close()
                match = np.array_equal(
                    warm_result.index_pairs(), cold_result.index_pairs()
                )
                rows.append(
                    {
                        "dataset": dataset,
                        "algorithm": name,
                        "n": len(r_points),
                        "m": len(s_points),
                        "t": t,
                        "cold_prepare_seconds": cold_seconds,
                        "save_seconds": save_seconds,
                        "warm_attach_seconds": warm_seconds,
                        "speedup": cold_seconds / max(warm_seconds, 1e-9),
                        "match": match,
                        "warm_loads": warm_loads,
                        "artifact_bytes": artifact_bytes,
                    }
                )
    return rows
