"""The environment stamp saved with every result.

Timings from another kernel backend, interpreter, numpy or machine are not
comparable; :func:`stamp_mismatches` names the differences so the
steadiness command refuses to compare such results silently.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

#: Stamp fields that must agree before two results may be compared.
COMPARABLE_KEYS = ("python", "numpy", "kernel_backend", "numba", "nproc", "cpu_model")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` CPU time of the whole machine so far, in jiffies.

    Steal is time the host gave this machine's virtual CPUs to others; a
    run's share of it explains spreads no change to the program causes.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    """The share of machine CPU time stolen by the host between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # not a git checkout; never look into parent directories
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over every file of the library source (stable path order).

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp(root: Path, src: Path) -> dict[str, Any]:
    """Commit, source digest, interpreter, numpy, kernel backend, CPUs."""
    import numpy as np

    from repro.kernels import numba_version, resolve_backend

    return {
        "commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": resolve_backend(None),
        "numba": numba_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def stamp_mismatches(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Human-readable differences between two stamps' comparable fields."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in COMPARABLE_KEYS
        if a.get(key) != b.get(key)
    ]
