"""Shared machinery of the grid-decomposition samplers (Algorithm 1 skeleton).

Both the proposed BBST sampler and its per-cell kd-tree ablation (Fig. 9)
follow exactly the same three online phases; the only difference is the index
that answers the case-3 (corner cell) counting and sampling primitives.  This
module factors the skeleton so the two samplers differ only in which
:class:`JoinCellIndex` they build.

Phases
------
1. *Online data structure building* - build the index over ``S`` (grid plus
   per-cell structures).  Reported as the GM column.
2. *Approximate range counting* - for every ``r`` obtain the per-cell bounds
   ``mu(r, c)`` over the 3x3 block, store them as a dense ``(n, 9)`` matrix
   (this plays the role of the per-point alias ``A_r``: with at most nine
   weights a cumulative-sum draw is O(1)), and build the global alias ``A``
   over ``mu(r)``.  Reported as the UB column.
3. *Sampling* - repeat: draw ``r`` from ``A``, draw a cell from ``A_r``, draw
   a candidate point inside that cell, and accept the pair iff the point lies
   in ``w(r)``.  Cases 1/2 always accept; case 3 may reject (point outside the
   window, or an empty bucket slot for the BBST).

Batch engine
------------
The online phases run *vectorised* by default.  The counting phase asks the
index for the whole ``(n, 9)`` bound matrix at once
(:meth:`repro.bbst.join_index.BBSTJoinIndex.batch_bounds`), and the sampling
phase proceeds in rounds: each round pre-draws flat arrays of variates in a
fixed schedule (``r`` indices, cell-pick, point-pick, and - for the BBST -
slot-pick uniforms), resolves every attempt with numpy gathers over the
grid's flat arrays, and refills adaptively from the observed acceptance rate
(:func:`repro.core.batching.next_batch_size`).  Two knobs control it:

* ``vectorized=False`` processes the *same* pre-drawn variate arrays with a
  per-attempt Python loop; because both paths share draws and selection
  rules they return bit-identical pairs, which the differential tests rely
  on.
* ``batch_size`` pins the round size (``batch_size=1`` reproduces the
  classic one-attempt-at-a-time schedule).
"""

from __future__ import annotations

import abc
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, Protocol

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts.spec import (
    pack_alias,
    prefixed,
    register_prepared_state,
    required_array,
    select_prefix,
    unpack_alias,
)
from repro.bbst.join_index import CellContribution
from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    PhaseTimings,
    SamplePairs,
    build_sample_pairs,
)
from repro.core.batching import cutoff_at, next_batch_size, pick_int_scalar
from repro.core.config import JoinSpec
from repro.core.guards import empty_join_guard as _empty_join_guard
from repro.errors import ArtifactCorruptError, ArtifactError, InvalidSpecError, SamplingExhaustedError
from repro.geometry.point import PointSet
from repro.geometry.rect import Rect
from repro.grid.cell import GridCell
from repro.grid.grid import Grid
from repro.grid.neighbors import NEIGHBOR_OFFSETS, NeighborKind
from repro.kernels.profiling import PROFILER

__all__ = ["JoinCellIndex", "PreparedGridState", "GridJoinSamplerBase"]


@register_prepared_state
@dataclass
class PreparedGridState:
    """Cached online structures of a grid-decomposition sampler.

    This is the whole count-phase output: the dense ``(n, 9)`` per-cell bound
    matrix, its row-wise prefix sums (the O(1) per-point alias ``A_r``), the
    global alias ``A`` over ``mu(r)`` and the scalar ``sum_mu``.  Kept as a
    plain dataclass of arrays - no closures, no references back to the
    sampler - so a prepared sampler pickles cleanly across process
    boundaries (the shard workers of :mod:`repro.parallel` rely on this) and
    flows through the :class:`~repro.artifacts.ArtifactSpec` protocol for
    on-disk persistence.
    """

    artifact_kind: ClassVar[str] = "grid-runtime"
    artifact_schema: ClassVar[int] = 1

    bounds: np.ndarray
    cumulative: np.ndarray
    alias: AliasTable | None
    sum_mu: float

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"sum_mu": float(self.sum_mu), **alias_meta}
        arrays = {"bounds": self.bounds, "cumulative": self.cumulative}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedGridState":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        bounds = required_array(arrays, "bounds", dtype="<f8", ndim=2)
        cumulative = required_array(arrays, "cumulative", dtype="<f8", ndim=2)
        if bounds.shape != cumulative.shape or bounds.shape[1] != 9:
            raise ArtifactCorruptError(
                "grid-runtime state needs matching (n, 9) bound and prefix-sum "
                f"matrices, got {bounds.shape} and {cumulative.shape}"
            )
        return cls(
            bounds=bounds,
            cumulative=cumulative,
            alias=unpack_alias(meta, arrays),
            sum_mu=float(meta.get("sum_mu", 0.0)),
        )


class JoinCellIndex(Protocol):
    """Interface a grid-decomposition index must provide to the sampler skeleton."""

    #: Whether the batch engine must pre-draw slot variates for corner picks.
    needs_slot_variates: bool

    @property
    def grid(self) -> Grid:
        """The non-empty grid over ``S``."""

    def window_for(self, x: float, y: float) -> Rect:
        """The join window centred at ``(x, y)``."""

    def contributions(self, x: float, y: float) -> list[CellContribution]:
        """Per-cell upper bounds ``mu(r, c)`` for a query point."""

    def batch_bounds(
        self, xs: np.ndarray, ys: np.ndarray, cell_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Dense ``(q, 9)`` bound matrix for many query points at once."""

    def corner_pick_batch(
        self,
        kind: NeighborKind,
        cell_ids: np.ndarray,
        bounds_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
        wxmin: np.ndarray,
        wymin: np.ndarray,
        wxmax: np.ndarray,
        wymax: np.ndarray,
    ) -> np.ndarray:
        """Vectorised corner sampling attempts (grid-flat x-view positions)."""

    def corner_pick_scalar(
        self,
        kind: NeighborKind,
        cell: GridCell,
        window: Rect,
        bound: int,
        u_point: float,
        u_slot: float,
    ) -> tuple[int, float, float] | None:
        """Scalar corner sampling attempt consuming the same variates."""

    def nbytes(self) -> int:
        """Approximate memory footprint of the index."""


#: Position of every neighbour kind in the dense ``(n, 9)`` bound matrix.
_KIND_COLUMN = {kind: column for column, kind in enumerate(NEIGHBOR_OFFSETS)}


class GridJoinSamplerBase(JoinSampler):
    """Algorithm 1 skeleton parameterised by the per-cell index.

    Parameters
    ----------
    spec:
        The join instance.
    batch_size:
        Fixed sampling-round size; ``None`` (default) sizes rounds adaptively
        from the observed acceptance rate.
    vectorized:
        ``True`` (default) resolves each round with numpy; ``False`` runs the
        scalar per-attempt loop over the same pre-drawn variates (the
        differential-testing escape hatch).
    backend:
        Kernel backend serving the vectorized rounds
        (``"numpy" | "numba" | "auto"``, see :mod:`repro.kernels`); both
        backends are bit-identical.
    """

    def __init__(
        self,
        spec: JoinSpec,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        super().__init__(spec, batch_size=batch_size, vectorized=vectorized, backend=backend)
        self._sorted_s = None
        self._index: JoinCellIndex | None = None
        # Cached online structures (index, per-point bounds, alias): built on
        # the first sample() call and reused by subsequent calls, which makes
        # repeated / progressive sampling pay only the per-sample cost.
        self._runtime: PreparedGridState | None = None
        self._cell_ids: np.ndarray | None = None
        self._s_position_sorter: np.ndarray | None = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_index(self) -> JoinCellIndex:
        """Build the per-cell index over the (pre-sorted) inner set."""

    @property
    def index(self) -> JoinCellIndex | None:
        """The index built by the last ``sample()`` call (``None`` before that)."""
        return self._index

    @property
    def runtime(self) -> PreparedGridState | None:
        """The cached count-phase output (``None`` before the first build)."""
        return self._runtime

    @property
    def cell_ids(self) -> np.ndarray | None:
        """The cached ``(n, 9)`` flat-cell-index matrix of the count phase."""
        return self._cell_ids

    def adopt_runtime(
        self, state: PreparedGridState, cell_ids: np.ndarray | None
    ) -> None:
        """Install externally maintained online state (dynamic-update hook).

        :class:`repro.dynamic.DynamicSampler` maintains the bound matrix, the
        alias and the cell-id matrix incrementally and pushes them back here,
        so the unchanged sampling phase serves draws from the updated state.
        The inner-set id lookup is dropped because ``S`` may have changed.
        """
        self._runtime = state
        self._cell_ids = cell_ids
        self._s_position_sorter = None

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    #: Layout version of the grid-family artifact payload; the concrete
    #: sampler sets the ``artifact_kind`` naming its index variant.
    artifact_schema: ClassVar[int] = 1

    def export_prepared_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose the whole prepared state into ``(meta, arrays)``.

        Everything the *vectorised* draw path touches is exported: the
        count-phase state (bound matrix, prefix sums, alias tables), the
        ``(n, 9)`` cell-id matrix, the grid's concatenated sorted views and -
        for bucket-based indexes - the flat bucket envelopes.  The per-cell
        corner trees are deliberately omitted: they are the dominant build
        cost and only the scalar/maintenance paths need them, so warm start
        rebuilds them lazily (see
        :meth:`repro.bbst.join_index.BBSTJoinIndex._ensure_cell_structures`).
        """
        if not self.is_prepared or self._index is None:
            raise ArtifactError(
                f"sampler {self.name!r} is not prepared; nothing to export"
            )
        index = self._index
        state = self._runtime
        assert state is not None
        if self._cell_ids is None:
            self._cell_ids = index.grid.neighbor_cell_ids(
                self.spec.r_points.xs, self.spec.r_points.ys, kernels=self.kernels
            )
        state_meta, state_arrays = state.to_arrays()
        arrays = prefixed("state", state_arrays)
        arrays["cell_ids"] = self._cell_ids
        flat = index.grid.flat()
        arrays["grid.keys_ix"] = np.array(
            [cell.key[0] for cell in flat.cells], dtype=np.int64
        )
        arrays["grid.keys_iy"] = np.array(
            [cell.key[1] for cell in flat.cells], dtype=np.int64
        )
        arrays["grid.lengths"] = flat.lengths
        arrays["grid.xs_by_x"] = flat.xs_by_x
        arrays["grid.ys_by_x"] = flat.ys_by_x
        arrays["grid.ids_by_x"] = flat.ids_by_x
        arrays["grid.xs_by_y"] = flat.xs_by_y
        arrays["grid.ys_by_y"] = flat.ys_by_y
        arrays["grid.ids_by_y"] = flat.ids_by_y
        meta: dict[str, Any] = {
            "kind": self.artifact_kind,
            "schema": self.artifact_schema,
            "state": state_meta,
            "bucket_capacity": int(index.bucket_capacity),
            "capacity_override": bool(index.capacity_override),
        }
        if getattr(index, "uses_bucket_arrays", False):
            buckets = index.bucket_arrays()
            arrays.update(
                prefixed(
                    "buckets",
                    {
                        "starts": buckets.starts,
                        "counts": buckets.counts,
                        "min_x": buckets.min_x,
                        "max_x": buckets.max_x,
                        "min_y": buckets.min_y,
                        "max_y": buckets.max_y,
                        "point_start": buckets.point_start,
                        "sizes": buckets.sizes,
                    },
                )
            )
        return meta, arrays

    def adopt_prepared_arrays(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Attach a persisted prepared state (the warm-start inverse of export).

        Runs the cheap offline step (pre-sorting ``S``), reassembles the grid
        and index around the memmapped arrays without copying them, and
        installs the count-phase state.  After this the sampler ``is_prepared``
        and serves draws bit-identical to a freshly built twin.
        """
        self.preprocess()
        spec = self.spec
        state_meta = meta.get("state")
        if not isinstance(state_meta, dict):
            raise ArtifactCorruptError(
                "artifact meta is missing its 'state' object"
            )
        state = PreparedGridState.from_arrays(state_meta, select_prefix(arrays, "state"))
        if state.bounds.shape[0] != spec.n:
            raise ArtifactCorruptError(
                f"artifact bound matrix covers {state.bounds.shape[0]} outer "
                f"points but the spec has {spec.n}"
            )
        cell_ids = required_array(arrays, "cell_ids", dtype="<i8", ndim=2)
        if cell_ids.shape != (spec.n, 9):
            raise ArtifactCorruptError(
                f"artifact cell-id matrix has shape {cell_ids.shape}, "
                f"expected {(spec.n, 9)}"
            )
        grid_arrays = select_prefix(arrays, "grid")
        keys_ix = required_array(
            grid_arrays, "keys_ix", dtype="<i8", ndim=1, context="artifact grid"
        )
        keys_iy = required_array(
            grid_arrays, "keys_iy", dtype="<i8", ndim=1, context="artifact grid"
        )
        lengths = required_array(
            grid_arrays, "lengths", dtype="<i8", ndim=1, context="artifact grid"
        )
        views = {
            name: required_array(
                grid_arrays, name, dtype=dtype, ndim=1, context="artifact grid"
            )
            for name, dtype in (
                ("xs_by_x", "<f8"),
                ("ys_by_x", "<f8"),
                ("ids_by_x", "<i8"),
                ("xs_by_y", "<f8"),
                ("ys_by_y", "<f8"),
                ("ids_by_y", "<i8"),
            )
        }
        if int(lengths.sum()) != spec.m:
            raise ArtifactCorruptError(
                f"artifact grid covers {int(lengths.sum())} inner points but "
                f"the spec has {spec.m}"
            )
        try:
            grid = Grid.from_cell_arrays(
                spec.half_extent,
                keys_ix,
                keys_iy,
                lengths,
                source_name=self._sorted_s.name,
                **views,
            )
        except ValueError as exc:
            raise ArtifactCorruptError(
                f"artifact grid arrays are inconsistent: {exc}"
            ) from None
        self._index = self._restore_index(grid, meta, arrays)
        self.adopt_runtime(state, cell_ids)

    def _restore_index(
        self,
        grid: Grid,
        meta: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> JoinCellIndex:
        """Reassemble the per-cell index around a restored grid."""
        raise ArtifactError(
            f"sampler {self.name!r} does not support artifact warm start"
        )

    def index_nbytes(self) -> int:
        return self._index.nbytes() if self._index is not None else 0

    def _has_online_state(self) -> bool:
        return self._runtime is not None

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        # The only offline work is pre-sorting S on the x axis (Table II).
        self._sorted_s = self.spec.s_points.sorted_by_x()

    @property
    def sorted_s(self) -> PointSet:
        """The inner set pre-sorted by x (available after preprocessing)."""
        return self._sorted_s

    # ------------------------------------------------------------------
    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        spec = self.spec
        timings = PhaseTimings()
        r_xs, r_ys = spec.r_points.xs, spec.r_points.ys

        if self._runtime is None:
            # Phase 1: online data structure building (GM column).
            start = time.perf_counter()
            index = self._build_index()
            self._index = index
            timings.build_seconds = time.perf_counter() - start
            if PROFILER.enabled:
                PROFILER.add("build", timings.build_seconds)

            # Phase 2: approximate range counting (UB column).
            start = time.perf_counter()
            n = spec.n
            if self._vectorized:
                cell_ids = index.grid.neighbor_cell_ids(
                    r_xs, r_ys, kernels=self.kernels
                )
                bounds = index.batch_bounds(r_xs, r_ys, cell_ids)
                self._cell_ids = cell_ids
            else:
                bounds = np.zeros((n, 9), dtype=np.float64)
                for i in range(n):
                    for contribution in index.contributions(float(r_xs[i]), float(r_ys[i])):
                        bounds[i, _KIND_COLUMN[contribution.kind]] = contribution.upper_bound
            cumulative = np.cumsum(bounds, axis=1)
            mu_totals = cumulative[:, -1]
            sum_mu = float(mu_totals.sum())
            alias = AliasTable(mu_totals) if sum_mu > 0 else None
            timings.count_seconds = time.perf_counter() - start
            if PROFILER.enabled:
                PROFILER.add("count", timings.count_seconds)
            self._runtime = PreparedGridState(
                bounds=bounds, cumulative=cumulative, alias=alias, sum_mu=sum_mu
            )
        else:
            index = self._index
            state = self._runtime
            bounds, cumulative = state.bounds, state.cumulative
            alias, sum_mu = state.alias, state.sum_mu
        if alias is None and t > 0:
            raise InvalidSpecError(
                "the spatial range join is empty (every upper bound is zero); "
                "no samples can be drawn"
            )

        # Phase 3: sampling, in pre-drawn rounds.
        start = time.perf_counter()
        accepted_r: list[np.ndarray] = []
        accepted_sid: list[np.ndarray] = []
        accepted = 0
        iterations = 0
        guard = _empty_join_guard(t)
        needs_slot = getattr(index, "needs_slot_variates", True)
        while alias is not None and accepted < t:
            if accepted == 0 and iterations >= guard:
                timings.sample_seconds = time.perf_counter() - start
                raise SamplingExhaustedError(
                    f"no join sample accepted after {iterations} iterations; "
                    "the join result is empty or vanishingly small"
                )
            profile = PROFILER.enabled
            if profile:
                tick = time.perf_counter()
            size = next_batch_size(t - accepted, iterations, accepted, self._batch_size)
            r = alias.draw_many(size, rng)
            u_col = rng.random(size)
            u_point = rng.random(size)
            u_slot = rng.random(size) if needs_slot else None
            if profile:
                now = time.perf_counter()
                PROFILER.add("refill", now - tick)
                tick = now
            if self._vectorized:
                accept, cand_sid = self._round_vectorized(r, u_col, u_point, u_slot)
            else:
                accept, cand_sid = self._round_scalar(r, u_col, u_point, u_slot)
            if profile:
                PROFILER.add("draw", time.perf_counter() - tick)
            used, taken = cutoff_at(accept, t - accepted)
            iterations += used
            accepted += taken.size
            if taken.size:
                accepted_r.append(r[taken])
                accepted_sid.append(cand_sid[taken])
        pairs = self._assemble_pairs(accepted_r, accepted_sid)
        timings.sample_seconds = time.perf_counter() - start

        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=pairs,
            timings=timings,
            iterations=iterations,
            metadata={"sum_mu": sum_mu},
        )

    # ------------------------------------------------------------------
    # Round processors (the two differential twins)
    # ------------------------------------------------------------------
    def _round_vectorized(
        self,
        r: np.ndarray,
        u_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one round of attempts with the selected kernel backend.

        Returns ``(accept, candidate_s_id)`` arrays in attempt order;
        rejected attempts carry ``-1``.  The heavy per-attempt work (cell
        column selection, case-1/2 picks, candidate gather + window test)
        runs in :mod:`repro.kernels`; the four corner columns go through the
        index's ``corner_pick_batch`` so subclass overrides (the Fig. 9
        kd-tree ablation) keep working.
        """
        spec = self.spec
        index = self._index
        assert index is not None and self._runtime is not None
        bounds, cumulative = self._runtime.bounds, self._runtime.cumulative
        kernels = self.kernels
        if self._cell_ids is None:
            self._cell_ids = index.grid.neighbor_cell_ids(
                spec.r_points.xs, spec.r_points.ys, kernels=kernels
            )
        flat = index.grid.flat()
        half = spec.half_extent

        rows = cumulative[r]
        # searchsorted(row, u * total, side="right") per attempt.
        col, totals = kernels.column_select(rows, u_col)
        counts = bounds[r, col].astype(np.int64)
        cell_ids = self._cell_ids[r, col]
        rx = spec.r_points.xs[r]
        ry = spec.r_points.ys[r]
        wxmin, wxmax = rx - half, rx + half
        wymin, wymax = ry - half, ry + half
        viable = (totals > 0) & (counts > 0) & (cell_ids >= 0)

        # Cases 1/2 (center + edges): the first five bound-matrix columns.
        pos_x_view, pos_y_view = kernels.edge_positions(
            col, viable, cell_ids, counts, flat.starts, flat.lengths, u_point
        )
        # Case 3 (corners): through the index so ablations can override.
        for column in range(5, 9):
            sel = np.flatnonzero(viable & (col == column))
            if sel.size == 0:
                continue
            pos_x_view[sel] = index.corner_pick_batch(
                NEIGHBOR_OFFSETS[column],
                cell_ids[sel],
                counts[sel],
                u_point[sel],
                u_slot[sel] if u_slot is not None else None,
                wxmin[sel],
                wymin[sel],
                wxmax[sel],
                wymax[sel],
            )

        return kernels.gather_accept(
            pos_x_view,
            pos_y_view,
            flat.ids_by_x,
            flat.xs_by_x,
            flat.ys_by_x,
            flat.ids_by_y,
            flat.xs_by_y,
            flat.ys_by_y,
            wxmin,
            wymin,
            wxmax,
            wymax,
        )

    def _round_scalar(
        self,
        r: np.ndarray,
        u_col: np.ndarray,
        u_point: np.ndarray,
        u_slot: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-attempt Python twin of :meth:`_round_vectorized`.

        Consumes the same pre-drawn variates with the same selection rules,
        so the two processors accept the same attempts and return the same
        candidate points.
        """
        spec = self.spec
        index = self._index
        assert index is not None and self._runtime is not None
        bounds, cumulative = self._runtime.bounds, self._runtime.cumulative
        grid = index.grid
        r_xs, r_ys = spec.r_points.xs, spec.r_points.ys
        size = r.size
        accept = np.zeros(size, dtype=bool)
        cand_sid = np.full(size, -1, dtype=np.int64)
        for i in range(size):
            r_index = int(r[i])
            row = cumulative[r_index]
            total = row[-1]
            if total <= 0:
                continue
            column = min(int(np.searchsorted(row, u_col[i] * total, side="right")), 8)
            count = int(bounds[r_index, column])
            if count <= 0:
                continue
            kind = NEIGHBOR_OFFSETS[column]
            rx, ry = float(r_xs[r_index]), float(r_ys[r_index])
            base_key = grid.key_for(rx, ry)
            cell = grid.get((base_key[0] + kind.offset[0], base_key[1] + kind.offset[1]))
            if cell is None:
                continue
            window = index.window_for(rx, ry)
            if kind is NeighborKind.CENTER:
                candidate = cell.point_by_x_order(pick_int_scalar(u_point[i], len(cell)))
            elif kind is NeighborKind.LEFT:
                candidate = cell.point_by_x_order(
                    len(cell) - count + pick_int_scalar(u_point[i], count)
                )
            elif kind is NeighborKind.RIGHT:
                candidate = cell.point_by_x_order(pick_int_scalar(u_point[i], count))
            elif kind is NeighborKind.DOWN:
                candidate = cell.point_by_y_order(
                    len(cell) - count + pick_int_scalar(u_point[i], count)
                )
            elif kind is NeighborKind.UP:
                candidate = cell.point_by_y_order(pick_int_scalar(u_point[i], count))
            else:
                candidate = index.corner_pick_scalar(
                    kind,
                    cell,
                    window,
                    count,
                    float(u_point[i]),
                    float(u_slot[i]) if u_slot is not None else 0.0,
                )
            if candidate is None:
                continue
            s_id, sx, sy = candidate
            if window.contains(sx, sy):
                accept[i] = True
                cand_sid[i] = s_id
        return accept, cand_sid

    # ------------------------------------------------------------------
    def _assemble_pairs(
        self, accepted_r: list[np.ndarray], accepted_sid: list[np.ndarray]
    ) -> SamplePairs:
        """The columnar pairs of the accepted arrays.

        The engine tracks candidates by dataset id (the grid stores ids, not
        positions), so the ids are mapped back to positional indices with a
        cached sorted-id lookup before the shared pair builder runs.
        """
        if not accepted_r:
            return SamplePairs.empty()
        spec = self.spec
        r_indices = np.concatenate(accepted_r)
        s_ids = np.concatenate(accepted_sid)
        if self._s_position_sorter is None:
            self._s_position_sorter = np.argsort(spec.s_points.ids, kind="stable")
        sorter = self._s_position_sorter
        sorted_ids = spec.s_points.ids[sorter]
        s_indices = sorter[np.searchsorted(sorted_ids, s_ids)]
        return build_sample_pairs(spec, r_indices, s_indices)
