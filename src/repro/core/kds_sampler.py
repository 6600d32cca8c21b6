"""Baseline 1: KDS (Section III-A).

The algorithm:

1. (offline) build a kd-tree over ``S``;
2. run an exact range count ``|S(w(r))|`` on the kd-tree for every ``r``
   (O(n sqrt(m)) time);
3. build Walker's alias over those counts so that ``r`` is drawn with
   probability ``|S(w(r))| / |J|``;
4. for every sample, draw ``r`` from the alias and then one uniform point of
   ``S(w(r))`` with the kd-tree's independent range sampling (O(sqrt(m)) per
   draw).

Every iteration yields an accepted pair, so the number of iterations equals
``t``; the cost per iteration is what makes this baseline slow.

Batch engine: the counting phase issues one batched traversal over all ``n``
windows (:meth:`repro.kdtree.tree.KDTree.count_many`), and the sampling phase
draws all ``t`` alias picks at once, decomposes only the *distinct* drawn
windows (one batched traversal per chunk of distinct windows), and maps every
attempt's uniform variate to a point with the canonical-rank draw of
:class:`repro.kdtree.batch.BatchDecomposition`.  ``vectorized=False`` runs
the same pre-drawn variates through per-attempt scalar decompositions and
:func:`repro.kdtree.batch.canonical_pick`; both paths return identical pairs.
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
from repro.core.batching import pick_int_scalar, window_bounds
from repro.core.config import JoinSpec
from repro.core.registry import register_sampler
from repro.errors import ArtifactCorruptError, ArtifactError, InvalidSpecError
from repro.kdtree.batch import canonical_pick, iter_chunked_decompositions
from repro.kdtree.sampling import KDSRangeSampler

__all__ = ["PreparedExactCounts", "KDSSampler"]


@register_prepared_state
@dataclass
class PreparedExactCounts:
    """Cached counting-phase output of the KDS baseline.

    Exact per-point range counts ``|S(w(r))|``, the alias over them and the
    exact join size.  A plain dataclass of arrays so a prepared sampler
    pickles cleanly across process boundaries (see :mod:`repro.parallel`)
    and flows through the :class:`~repro.artifacts.ArtifactSpec` protocol.
    """

    artifact_kind: ClassVar[str] = "kds-exact-counts"
    artifact_schema: ClassVar[int] = 1

    counts: np.ndarray
    alias: AliasTable | None
    join_size: int

    def to_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose into JSON-safe meta plus named arrays (artifact protocol)."""
        alias_meta, alias_arrays = pack_alias(self.alias)
        meta = {"join_size": int(self.join_size), **alias_meta}
        arrays = {"counts": self.counts}
        arrays.update(alias_arrays)
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "PreparedExactCounts":
        """Reassemble from (possibly read-only memmapped) arrays, zero-copy."""
        return cls(
            counts=required_array(arrays, "counts", dtype="<i8", ndim=1),
            alias=unpack_alias(meta, arrays),
            join_size=int(meta.get("join_size", 0)),
        )


@register_sampler(
    "kds",
    tags=("online", "comparison", "baseline"),
    summary="baseline 1: exact kd-tree counting + range sampling (Section III-A)",
)
class KDSSampler(JoinSampler):
    """The KDS baseline: exact counting plus kd-tree range sampling.

    Parameters
    ----------
    spec:
        The join instance.
    leaf_size:
        Leaf bucket size of the kd-tree over ``S``.
    batch_size, vectorized:
        Batch-engine knobs (see :class:`~repro.core.base.JoinSampler`); KDS
        accepts every attempt, so ``batch_size`` only affects internal round
        sizes, not the draw schedule.
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
        # Cached counting-phase results: the exact counts depend only on the
        # spec, so repeated sample() calls reuse them and only pay the
        # sampling phase.
        self._online: PreparedExactCounts | None = None

    @property
    def name(self) -> str:
        return "KDS"

    def index_nbytes(self) -> int:
        return self._range_sampler.nbytes() if self._range_sampler is not None else 0

    def _has_online_state(self) -> bool:
        return self._online is not None

    @property
    def exact_join_size(self) -> int | None:
        """Exact ``|J|`` from the counting phase (``None`` before preparing).

        KDS counts every window exactly, so a prepared sampler knows the
        join size for free; the shard-parallel engine uses this to skip its
        own exact count.
        """
        return None if self._online is None else self._online.join_size

    # ------------------------------------------------------------------
    # Prepared-state artifacts (persistence + warm start)
    # ------------------------------------------------------------------
    #: Artifact payload identity of this sampler's prepared state.
    artifact_kind: ClassVar[str] = "kds-exact-counts"
    artifact_schema: ClassVar[int] = 1

    def export_prepared_arrays(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Decompose the prepared state into ``(meta, arrays)``.

        Only the counting-phase output is persisted; the kd-tree over ``S``
        is rebuilt deterministically by :meth:`preprocess` at attach time (it
        is the offline Table II step, not the online cost the warm start
        saves).
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
        """Attach a persisted counting-phase state (warm start)."""
        self.preprocess()
        state_meta = meta.get("state")
        if not isinstance(state_meta, dict):
            raise ArtifactCorruptError("artifact meta is missing its 'state' object")
        state = PreparedExactCounts.from_arrays(state_meta, arrays)
        if state.counts.shape[0] != self.spec.n:
            raise ArtifactCorruptError(
                f"artifact count vector covers {state.counts.shape[0]} outer "
                f"points but the spec has {self.spec.n}"
            )
        self._online = state

    def _windows(self, r_indices: np.ndarray) -> tuple[np.ndarray, ...]:
        spec = self.spec
        return window_bounds(
            spec.r_points.xs[r_indices], spec.r_points.ys[r_indices], spec.half_extent
        )

    def _preprocess_impl(self) -> None:
        self._range_sampler = KDSRangeSampler(self.spec.s_points, leaf_size=self._leaf_size)

    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        assert self._range_sampler is not None
        spec = self.spec
        timings = PhaseTimings()
        tree = self._range_sampler.tree

        # Exact range counting phase (the paper's UB column for KDS), cached
        # across sample() calls - the counts are deterministic in the spec.
        if self._online is None:
            start = time.perf_counter()
            if self._vectorized:
                wxmin, wymin, wxmax, wymax = self._windows(np.arange(spec.n))
                counts = tree.count_many(wxmin, wymin, wxmax, wymax)
            else:
                counts = np.empty(spec.n, dtype=np.int64)
                for i in range(spec.n):
                    counts[i] = self._range_sampler.range_count(spec.window_of_index(i))
            join_size = int(counts.sum())
            alias: AliasTable | None = None
            if join_size > 0:
                alias = AliasTable(counts)
            timings.count_seconds = time.perf_counter() - start
            self._online = PreparedExactCounts(
                counts=counts, alias=alias, join_size=join_size
            )
        else:
            alias, join_size = self._online.alias, self._online.join_size
        if alias is None and t > 0:
            raise InvalidSpecError(
                "the spatial range join is empty; no samples can be drawn "
                "(the problem definition assumes |J| >= 1)"
            )

        # Sampling phase: every draw is one accepted pair.
        start = time.perf_counter()
        pairs = SamplePairs.empty()
        iterations = 0
        if alias is not None and t > 0:
            r_indices = alias.draw_many(t, rng)
            u_point = rng.random(t)
            iterations = t
            if self._vectorized:
                s_indices = self._draw_vectorized(r_indices, u_point)
            else:
                s_indices = self._draw_scalar(r_indices, u_point)
            pairs = build_sample_pairs(spec, r_indices, s_indices)
        timings.sample_seconds = time.perf_counter() - start

        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=pairs,
            timings=timings,
            iterations=iterations,
            metadata={"join_size": join_size},
        )

    # ------------------------------------------------------------------
    def _draw_vectorized(self, r_indices: np.ndarray, u_point: np.ndarray) -> np.ndarray:
        """One point per attempt via batched decomposition of distinct windows."""
        tree = self._range_sampler.tree  # type: ignore[union-attr]
        unique_r, inverse = np.unique(r_indices, return_inverse=True)
        wxmin, wymin, wxmax, wymax = self._windows(unique_r)
        s_indices = np.empty(r_indices.size, dtype=np.int64)
        for attempts, local, decomposition in iter_chunked_decompositions(
            tree, wxmin, wymin, wxmax, wymax, inverse
        ):
            s_indices[attempts] = decomposition.draw(local, u_point[attempts])
        return s_indices

    def _draw_scalar(self, r_indices: np.ndarray, u_point: np.ndarray) -> np.ndarray:
        """Scalar twin: per-attempt decomposition plus canonical rank pick."""
        tree = self._range_sampler.tree  # type: ignore[union-attr]
        spec = self.spec
        cache: dict[int, object] = {}
        s_indices = np.empty(r_indices.size, dtype=np.int64)
        for i in range(r_indices.size):
            r_index = int(r_indices[i])
            decomposition = cache.get(r_index)
            if decomposition is None:
                decomposition = tree.decompose(spec.window_of_index(r_index))
                cache[r_index] = decomposition
            rank = pick_int_scalar(float(u_point[i]), decomposition.count)
            s_indices[i] = canonical_pick(tree, decomposition, rank)
        return s_indices
