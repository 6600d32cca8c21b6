"""Percentiles, the tail rule and run-to-run summaries.

A tail percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; with fewer, the "p99" of a run is just its maximum, which is
what made earlier tail numbers unrepeatable.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

MIN_BEYOND = 10


class TooFewSamplesError(ValueError):
    """A percentile was asked of a sample too small to support it."""


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank position of quantile ``q`` in ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q) if n > 0 else 0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    if not values:
        raise TooFewSamplesError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Percentile ``q``, refused unless ``min_beyond`` samples lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise TooFewSamplesError(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond it; "
            f"at least {min_beyond} are required"
        )
    return percentile(values, q)


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples whose ``q`` percentile has ``min_beyond`` beyond it."""
    n = max(1, min_beyond)
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and spread (IQR over median) of repeated runs.

    The quartiles are ``statistics.quantiles(values, n=4)``, the definition
    the benchmark's steadiness rule is stated in.
    """
    if len(values) < 2:
        raise TooFewSamplesError("a spread needs at least two runs")
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}
