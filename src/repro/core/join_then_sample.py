"""The naive comparator: materialise the join, then sample from it.

Section I argues this is infeasible for large inputs because the join result
can have Theta(nm) pairs; the class exists so that tests can cross-check the
clever samplers against an obviously-correct reference and so that the
benchmark harness can demonstrate the crossover the paper motivates.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    PhaseTimings,
    SamplePairs,
    build_sample_pairs,
)
from repro.core.config import JoinSpec
from repro.core.full_join import spatial_range_join_array
from repro.core.registry import register_sampler
from repro.errors import InvalidSpecError
from repro.grid.grid import Grid

__all__ = ["JoinThenSample"]


@register_sampler(
    "join-then-sample",
    aliases=("join_then_sample",),
    tags=("exhaustive",),
    summary="naive comparator: materialise the join, then sample from it",
)
class JoinThenSample(JoinSampler):
    """Materialise ``J`` with the exact grid join, then sample uniformly from it."""

    def __init__(
        self,
        spec: JoinSpec,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        super().__init__(spec, batch_size=batch_size, vectorized=vectorized, backend=backend)
        self._grid: Grid | None = None
        # The materialised join, cached so repeated draws reuse it.
        self._pairs_index: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "JoinThenSample"

    def index_nbytes(self) -> int:
        return self._grid.nbytes() if self._grid is not None else 0

    def _has_online_state(self) -> bool:
        return self._pairs_index is not None

    @property
    def exact_join_size(self) -> int | None:
        """Exact ``|J|`` of the materialised join (``None`` before preparing)."""
        return None if self._pairs_index is None else int(self._pairs_index.shape[0])

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        # The grid over S plays the role of the join index; building it is the
        # only step that can be shared across sample() calls.
        self._grid = Grid(self.spec.s_points, cell_size=self.spec.half_extent)

    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        timings = PhaseTimings()
        spec = self.spec

        if self._pairs_index is None:
            start = time.perf_counter()
            self._pairs_index = spatial_range_join_array(spec, self._grid)
            timings.count_seconds = time.perf_counter() - start
        pairs_index = self._pairs_index
        if pairs_index.shape[0] == 0 and t > 0:
            raise InvalidSpecError(
                "the spatial range join is empty; no samples can be drawn"
            )

        start = time.perf_counter()
        pairs = SamplePairs.empty()
        if pairs_index.shape[0] and t > 0:
            picks = rng.integers(pairs_index.shape[0], size=t)
            pairs = build_sample_pairs(spec, pairs_index[picks, 0], pairs_index[picks, 1])
        timings.sample_seconds = time.perf_counter() - start

        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=pairs,
            timings=timings,
            iterations=t,
            metadata={"join_size": int(pairs_index.shape[0])},
        )
