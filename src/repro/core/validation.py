"""Validation helpers shared across the sampler stack.

Two families live here:

* *Input validation* - :func:`validate_half_extent` and :func:`validate_jobs`
  centralise the window / worker-count checks that were previously repeated
  in :class:`~repro.core.config.JoinSpec`, the session API, the grid, the
  BBST index and the bench workloads.  Every layer (including the shard plan
  of :mod:`repro.parallel`) now raises the same message for the same bad
  input.
* *Result validation* - used by tests and by the experiment harness's sanity
  checks: every returned pair must be a genuine join pair, identifiers must
  resolve to real points, and the result bookkeeping (requested vs returned,
  iterations vs accepted) must be consistent.

The imports are type-only so that low-level modules (``repro.core.config``,
``repro.grid.grid``) can use the input validators without import cycles.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidSpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import JoinSampleResult
    from repro.core.config import JoinSpec

__all__ = [
    "validate_half_extent",
    "validate_jobs",
    "verify_pairs_in_join",
    "validate_sample_result",
]


def validate_half_extent(value: float, name: str = "half_extent") -> float:
    """Check a window half-extent (or grid cell side) and return it as float.

    The paper's ``l`` must be a positive, finite number: zero or negative
    windows make the join empty by construction and non-finite values poison
    the grid key arithmetic.  ``name`` customises the message for callers
    that validate the same quantity under a different name (``cell_size``).
    """
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value <= 0.0:
        raise InvalidSpecError(f"{name} must be positive")
    return value


def validate_jobs(jobs: int, name: str = "jobs") -> int:
    """Check a worker/shard count and return it as a plain int.

    ``jobs`` is the number of vertical shards (and pool workers) the parallel
    engine may use; it must be a positive integer.
    """
    if isinstance(jobs, bool) or int(jobs) != jobs:
        raise InvalidSpecError(f"{name} must be an integer")
    jobs = int(jobs)
    if jobs < 1:
        raise InvalidSpecError(f"{name} must be at least 1")
    return jobs


def verify_pairs_in_join(spec: JoinSpec, result: JoinSampleResult) -> bool:
    """True iff every sampled pair satisfies the window predicate."""
    pairs = result.pairs
    return bool(spec.pairs_match(pairs.r_index, pairs.s_index).all())


def _position_checks(
    ids: np.ndarray, index: np.ndarray, claimed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(in_range, mismatch)`` masks of positions ``index`` into ``ids``."""
    in_range = (index >= 0) & (index < ids.shape[0])
    mismatch = np.zeros(index.shape, dtype=bool)
    mismatch[in_range] = ids[index[in_range]] != claimed[in_range]
    return in_range, mismatch


def validate_sample_result(spec: JoinSpec, result: JoinSampleResult) -> list[str]:
    """Return a list of human-readable problems (empty when the result is valid)."""
    problems: list[str] = []
    if len(result.pairs) != result.requested:
        problems.append(
            f"returned {len(result.pairs)} pairs but {result.requested} were requested"
        )
    if result.iterations < len(result.pairs):
        problems.append(
            f"iterations ({result.iterations}) cannot be smaller than accepted pairs"
        )
    pairs = result.pairs
    r_unknown = ~np.isin(pairs.r_ids, spec.r_points.ids)
    s_unknown = ~np.isin(pairs.s_ids, spec.s_points.ids)
    r_in, r_mismatch = _position_checks(spec.r_points.ids, pairs.r_index, pairs.r_ids)
    s_in, s_mismatch = _position_checks(spec.s_points.ids, pairs.s_index, pairs.s_ids)
    both = r_in & s_in
    outside = np.zeros(both.shape, dtype=bool)
    outside[both] = ~spec.pairs_match(pairs.r_index[both], pairs.s_index[both])
    flagged = r_unknown | s_unknown | ~r_in | r_mismatch | ~s_in | s_mismatch | outside
    # Only flagged pairs are visited, in order, so the report reads as a
    # per-pair scan would write it.
    for position in np.flatnonzero(flagged).tolist():
        r_id, s_id = int(pairs.r_ids[position]), int(pairs.s_ids[position])
        if r_unknown[position]:
            problems.append(f"pair {position}: unknown r_id {r_id}")
        if s_unknown[position]:
            problems.append(f"pair {position}: unknown s_id {s_id}")
        if not r_in[position]:
            problems.append(
                f"pair {position}: r_index {int(pairs.r_index[position])} out of range"
            )
        elif r_mismatch[position]:
            problems.append(f"pair {position}: r_index does not match r_id")
        if not s_in[position]:
            problems.append(
                f"pair {position}: s_index {int(pairs.s_index[position])} out of range"
            )
        elif s_mismatch[position]:
            problems.append(f"pair {position}: s_index does not match s_id")
        if outside[position]:
            problems.append(f"pair {position}: ({r_id}, {s_id}) is not a join pair")
    for field_name, value in result.timings.as_dict().items():
        if value < 0:
            problems.append(f"negative timing for {field_name}")
    return problems
