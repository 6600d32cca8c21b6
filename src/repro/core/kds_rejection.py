"""Baseline 2: KDS-rejection (Section III-B).

The algorithm keeps the kd-tree of ``S`` for sampling but replaces the exact
O(n sqrt(m)) counting phase with grid upper bounds:

1. (offline) build a kd-tree over ``S``;
2. (GM) map every point of ``S`` into a grid whose cells have side equal to
   the window half-extent, so ``w(r)`` overlaps at most nine cells;
3. (UB) for every ``r``, set ``mu(r)`` to the *total* population of those
   nine cells (O(1) per point, no approximation guarantee);
4. build Walker's alias over ``mu(r)``;
5. repeat: draw ``r`` from the alias, draw one uniform point ``s`` of
   ``S(w(r))`` with the kd-tree (which also yields the exact ``|S(w(r))|``),
   and accept the pair with probability ``|S(w(r))| / mu(r)``.

Because the bound counts whole cells, the acceptance probability can be low,
which is exactly the weakness the proposed BBST algorithm removes.

Batch engine: the UB phase is one vectorised 3x3 neighbourhood-count lookup
(:meth:`repro.grid.grid.Grid.neighborhood_counts`), and the rejection loop
runs in pre-drawn rounds - each round draws ``r`` picks, acceptance coins and
point variates as flat arrays, decomposes the round's *distinct* windows with
one batched kd-tree traversal, applies the acceptance test vectorised, and
refills from the observed acceptance rate.  ``vectorized=False`` replays the
identical variate arrays through the scalar per-attempt path.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.alias.walker import AliasTable
from repro.artifacts.spec import (
    pack_alias,
    register_prepared_state,
    required_array,
    unpack_alias,
)
from repro.core.base import (
    JoinSampler,
    JoinSampleResult,
    PhaseTimings,
    SamplePairs,
    build_sample_pairs,
)
from repro.core.batching import cutoff_at, next_batch_size, pick_int_scalar, window_bounds
from repro.core.config import JoinSpec
from repro.core.guards import empty_join_guard as _empty_join_guard
from repro.core.registry import register_sampler
from repro.errors import ArtifactCorruptError, ArtifactError, InvalidSpecError, SamplingExhaustedError
from repro.grid.grid import Grid
from repro.kdtree.batch import canonical_pick, iter_chunked_decompositions
from repro.kdtree.sampling import KDSRangeSampler
from repro.kernels.profiling import PROFILER

__all__ = ["PreparedGridBounds", "KDSRejectionSampler"]


@register_prepared_state
@dataclass
class PreparedGridBounds:
    """Cached GM/UB output of the KDS-rejection baseline.

    The grid upper bounds ``mu(r)``, the alias over them and ``sum_mu``.  A
    plain dataclass of arrays so a prepared sampler pickles cleanly across
    process boundaries (see :mod:`repro.parallel`) and flows through the
    :class:`~repro.artifacts.ArtifactSpec` protocol.
    """

    artifact_kind: ClassVar[str] = "kds-rejection-bounds"
    artifact_schema: ClassVar[int] = 1

    mu: np.ndarray
    alias: AliasTable | None
    sum_mu: int

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"sum_mu": int(self.sum_mu), **alias_meta}
        arrays = {"mu": self.mu}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedGridBounds":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        return cls(
            mu=required_array(arrays, "mu", dtype="<i8", ndim=1),
            alias=unpack_alias(meta, arrays),
            sum_mu=int(meta.get("sum_mu", 0)),
        )


@register_sampler(
    "kds-rejection",
    aliases=("kds_rejection",),
    tags=("online", "comparison", "baseline"),
    summary="baseline 2: grid upper bounds + rejection sampling (Section III-B)",
)
class KDSRejectionSampler(JoinSampler):
    """The KDS-rejection baseline: loose grid bounds plus rejection sampling.

    Parameters
    ----------
    spec:
        The join instance.
    leaf_size:
        Leaf bucket size of the kd-tree over ``S``.
    batch_size, vectorized, backend:
        Batch-engine knobs (see :class:`~repro.core.base.JoinSampler`).
    """

    def __init__(
        self,
        spec: JoinSpec,
        leaf_size: int = 16,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        super().__init__(spec, batch_size=batch_size, vectorized=vectorized, backend=backend)
        self._leaf_size = leaf_size
        self._range_sampler: KDSRangeSampler | None = None
        self._grid: Grid | None = None
        # Cached GM/UB results: both phases depend only on the spec, so
        # repeated sample() calls skip straight to sampling.
        self._online: PreparedGridBounds | None = None

    @property
    def name(self) -> str:
        return "KDS-rejection"

    def index_nbytes(self) -> int:
        total = self._range_sampler.nbytes() if self._range_sampler is not None else 0
        if self._grid is not None:
            total += self._grid.nbytes()
        return total

    def _has_online_state(self) -> bool:
        return self._online is not None

    @property
    def grid(self) -> Grid | None:
        """The bound grid over ``S`` (``None`` before the first sample/prepare)."""
        return self._grid

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    #: Artifact payload identity of this sampler's prepared state.
    artifact_kind: ClassVar[str] = "kds-rejection-bounds"
    artifact_schema: ClassVar[int] = 1

    def export_prepared_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose the prepared state into ``(meta, arrays)``.

        Only the GM/UB output (``mu``, alias, ``sum_mu``) is persisted; the
        kd-tree over ``S`` is rebuilt deterministically by :meth:`preprocess`
        at attach time, and the grid itself is never consulted again once the
        bounds exist, so it is not persisted either.
        """
        if not self.is_prepared:
            raise ArtifactError(
                f"sampler {self.name!r} is not prepared; nothing to export"
            )
        state_meta, state_arrays = self._online.to_arrays()
        meta = {
            "kind": self.artifact_kind,
            "schema": self.artifact_schema,
            "state": state_meta,
        }
        return meta, dict(state_arrays)

    def adopt_prepared_arrays(
        self, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Attach persisted grid bounds (warm start).

        The sampling loop reads only ``self._online`` once it is set (the
        ``if self._online is None:`` branch of :meth:`_sample_impl` is never
        entered), so ``self._grid`` deliberately stays ``None``.
        """
        self.preprocess()
        state_meta = meta.get("state")
        if not isinstance(state_meta, dict):
            raise ArtifactCorruptError("artifact meta is missing its 'state' object")
        state = PreparedGridBounds.from_arrays(state_meta, arrays)
        if state.mu.shape[0] != self.spec.n:
            raise ArtifactCorruptError(
                f"artifact bound vector covers {state.mu.shape[0]} outer "
                f"points but the spec has {self.spec.n}"
            )
        self._online = state

    # ------------------------------------------------------------------
    def _preprocess_impl(self) -> None:
        self._range_sampler = KDSRangeSampler(self.spec.s_points, leaf_size=self._leaf_size)

    def _windows(self, r_indices: np.ndarray) -> tuple[np.ndarray, ...]:
        spec = self.spec
        return window_bounds(
            spec.r_points.xs[r_indices], spec.r_points.ys[r_indices], spec.half_extent
        )

    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        assert self._range_sampler is not None
        spec = self.spec
        timings = PhaseTimings()

        if self._online is None:
            # Grid mapping phase (GM): the grid cannot be built offline because
            # its cell side depends on the query window size.
            start = time.perf_counter()
            grid = Grid(spec.s_points, cell_size=spec.half_extent)
            self._grid = grid
            timings.build_seconds = time.perf_counter() - start
            if PROFILER.enabled:
                PROFILER.add("build", timings.build_seconds)

            # Upper-bounding phase (UB): mu(r) = population of the 3x3 block.
            start = time.perf_counter()
            r_xs, r_ys = spec.r_points.xs, spec.r_points.ys
            if self._vectorized:
                mu = grid.neighborhood_counts(
                    r_xs, r_ys, kernels=self.kernels
                ).sum(axis=1)
            else:
                mu = np.zeros(spec.n, dtype=np.int64)
                for i in range(spec.n):
                    total = 0
                    for _kind, cell in grid.neighborhood(float(r_xs[i]), float(r_ys[i])):
                        total += len(cell)
                    mu[i] = total
            sum_mu = int(mu.sum())
            alias: AliasTable | None = AliasTable(mu) if sum_mu > 0 else None
            timings.count_seconds = time.perf_counter() - start
            if PROFILER.enabled:
                PROFILER.add("count", timings.count_seconds)
            self._online = PreparedGridBounds(mu=mu, alias=alias, sum_mu=sum_mu)
        else:
            mu, alias, sum_mu = (
                self._online.mu,
                self._online.alias,
                self._online.sum_mu,
            )
        if alias is None and t > 0:
            raise InvalidSpecError(
                "the spatial range join is empty (no window overlaps any grid cell); "
                "no samples can be drawn"
            )

        # Rejection sampling phase, in pre-drawn rounds.
        start = time.perf_counter()
        accepted_r: list[np.ndarray] = []
        accepted_s: list[np.ndarray] = []
        accepted = 0
        iterations = 0
        guard = _empty_join_guard(t)
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
            u_accept = rng.random(size)
            u_point = rng.random(size)
            if profile:
                now = time.perf_counter()
                PROFILER.add("refill", now - tick)
                tick = now
            if self._vectorized:
                accept, s_pos = self._round_vectorized(r, u_accept, u_point, mu)
            else:
                accept, s_pos = self._round_scalar(r, u_accept, u_point, mu)
            if profile:
                PROFILER.add("draw", time.perf_counter() - tick)
            used, taken = cutoff_at(accept, t - accepted)
            iterations += used
            accepted += taken.size
            if taken.size:
                accepted_r.append(r[taken])
                accepted_s.append(s_pos[taken])
        pairs = SamplePairs.empty()
        if accepted_r:
            pairs = build_sample_pairs(
                spec, np.concatenate(accepted_r), np.concatenate(accepted_s)
            )
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
    def _round_vectorized(
        self,
        r: np.ndarray,
        u_accept: np.ndarray,
        u_point: np.ndarray,
        mu: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one rejection round with batched decompositions."""
        tree = self._range_sampler.tree  # type: ignore[union-attr]
        kernels = self.kernels
        accept = np.zeros(r.size, dtype=bool)
        s_pos = np.full(r.size, -1, dtype=np.int64)
        unique_r, inverse = np.unique(r, return_inverse=True)
        wxmin, wymin, wxmax, wymax = self._windows(unique_r)
        for attempts, local, decomposition in iter_chunked_decompositions(
            tree, wxmin, wymin, wxmax, wymax, inverse
        ):
            exact = decomposition.counts[local]
            # Accept with probability |S(w(r))| / mu(r).
            ok = kernels.rejection_accept(exact, mu[r[attempts]], u_accept[attempts])
            hits = attempts[ok]
            if hits.size:
                s_pos[hits] = decomposition.draw(local[ok], u_point[hits])
                accept[hits] = True
        return accept, s_pos

    def _round_scalar(
        self,
        r: np.ndarray,
        u_accept: np.ndarray,
        u_point: np.ndarray,
        mu: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-attempt twin consuming the same pre-drawn variate arrays."""
        tree = self._range_sampler.tree  # type: ignore[union-attr]
        spec = self.spec
        accept = np.zeros(r.size, dtype=bool)
        s_pos = np.full(r.size, -1, dtype=np.int64)
        cache: dict[int, object] = {}
        for i in range(r.size):
            r_index = int(r[i])
            decomposition = cache.get(r_index)
            if decomposition is None:
                decomposition = tree.decompose(spec.window_of_index(r_index))
                cache[r_index] = decomposition
            exact = decomposition.count
            if exact == 0:
                continue
            if u_accept[i] >= exact / mu[r_index]:
                continue
            rank = pick_int_scalar(float(u_point[i]), exact)
            s_pos[i] = canonical_pick(tree, decomposition, rank)
            accept[i] = True
        return accept, s_pos
