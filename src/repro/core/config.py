"""Join problem specification.

A :class:`JoinSpec` bundles the two point sets and the window half-extent
``l`` that together define one spatial range join instance

``J = {(r, s) | r in R, s in S, s inside w(r)}``

with ``w(r) = [r.x - l, r.x + l] x [r.y - l, r.y + l]``.  Every sampler and
the exact join consume a spec, which keeps experiment code free of loose
``(R, S, l)`` triples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.validation import validate_half_extent
from repro.geometry.point import Point, PointSet
from repro.geometry.rect import Rect, window_around

__all__ = ["JoinSpec"]


@dataclass(frozen=True)
class JoinSpec:
    """One spatial range join instance.

    Attributes
    ----------
    r_points:
        The outer set ``R`` whose points centre the query windows.
    s_points:
        The inner set ``S`` whose points are searched inside each window.
    half_extent:
        The window half-extent ``l`` (the paper's default is 100 on the
        ``[0, 10000]²`` domain).
    """

    r_points: PointSet
    s_points: PointSet
    half_extent: float

    def __post_init__(self) -> None:
        # Empty R or S is allowed: shard sub-problems produced by the
        # parallel engine can legitimately own zero points, in which case the
        # join is empty and only ``t = 0`` requests can be served.
        object.__setattr__(
            self, "half_extent", validate_half_extent(self.half_extent)
        )

    @property
    def is_empty(self) -> bool:
        """True iff either side has no points (the join is empty)."""
        return len(self.r_points) == 0 or len(self.s_points) == 0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the outer set ``R``."""
        return len(self.r_points)

    @property
    def m(self) -> int:
        """Size of the inner set ``S``."""
        return len(self.s_points)

    def window_for(self, x: float, y: float) -> Rect:
        """Window ``w(r)`` centred at an arbitrary location."""
        return window_around(x, y, self.half_extent)

    def window_of(self, r: Point) -> Rect:
        """Window ``w(r)`` centred at a point of ``R``."""
        return window_around(r.x, r.y, self.half_extent)

    def window_of_index(self, index: int) -> Rect:
        """Window of the ``index``-th point of ``R``."""
        return window_around(
            float(self.r_points.xs[index]),
            float(self.r_points.ys[index]),
            self.half_extent,
        )

    def pair_matches(self, r_index: int, s_index: int) -> bool:
        """True iff the pair given by positional indices belongs to ``J``."""
        dx = abs(float(self.r_points.xs[r_index]) - float(self.s_points.xs[s_index]))
        dy = abs(float(self.r_points.ys[r_index]) - float(self.s_points.ys[s_index]))
        return dx <= self.half_extent and dy <= self.half_extent

    def pairs_match(self, r_indices: np.ndarray, s_indices: np.ndarray) -> np.ndarray:
        """Boolean mask: :meth:`pair_matches` of every ``(r, s)`` position pair."""
        dx = np.abs(self.r_points.xs[r_indices] - self.s_points.xs[s_indices])
        dy = np.abs(self.r_points.ys[r_indices] - self.s_points.ys[s_indices])
        return (dx <= self.half_extent) & (dy <= self.half_extent)

    # ------------------------------------------------------------------
    def swapped(self) -> "JoinSpec":
        """The symmetric join with the roles of ``R`` and ``S`` exchanged.

        The paper notes that ``R`` and ``S`` are interchangeable because the
        window size is shared: ``s in w(r)`` iff ``r in w(s)``.
        """
        return JoinSpec(
            r_points=self.s_points,
            s_points=self.r_points,
            half_extent=self.half_extent,
        )

    def with_half_extent(self, half_extent: float) -> "JoinSpec":
        """A copy of this spec with a different window half-extent."""
        return replace(self, half_extent=half_extent)

    def subsampled(
        self, fraction: float, rng: np.random.Generator
    ) -> "JoinSpec":
        """A copy with both sets uniformly down-sampled to ``fraction``."""
        return JoinSpec(
            r_points=self.r_points.scaled(fraction, rng),
            s_points=self.s_points.scaled(fraction, rng),
            half_extent=self.half_extent,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JoinSpec(n={self.n}, m={self.m}, half_extent={self.half_extent}, "
            f"R={self.r_points.name!r}, S={self.s_points.name!r})"
        )
