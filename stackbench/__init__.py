"""Whole-stack benchmark: drives the sampling service from outside, layer by layer.

``python3 stackbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``stackbench/README.md`` for the workloads, the metrics and the steadiness
command.  The benchmark imports the library from the checkout's ``src/``
tree only (never from an installed copy), so it measures the code next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = PACKAGE_DIR / "results"


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/repro`` tree to benchmark."""


def use_repro_from_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`MissingSourceError` when ``src/repro`` is absent, so the
    benchmark fails instead of silently measuring some other copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
