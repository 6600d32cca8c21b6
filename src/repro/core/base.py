"""Common sampler interface, results and phase-decomposed timings.

All four join samplers (the two baselines, the proposed BBST algorithm and
its per-cell kd-tree ablation) share the life-cycle the paper evaluates:

1. ``preprocess()`` - the *offline* step reported in Table II (building the
   kd-tree for the baselines, pre-sorting ``S`` for BBST).
2. ``sample(t)`` - the *online* run reported in Tables III/IV and every
   figure, decomposed into the build (grid-mapping / structure building),
   counting (upper-bounding) and sampling phases.

Results carry the drawn pairs, the per-phase wall-clock times, the number of
sampling iterations (accepted + rejected attempts) and algorithm-specific
metadata such as ``sum_mu`` so that the experiment harness can reproduce the
paper's tables without re-instrumenting the algorithms.  The pairs are held
column-wise (:class:`SamplePairs`): the samplers produce positions as arrays,
and every hot consumer (shard gather, JSON encoding, deduplication) reads
those arrays without building one Python object per pair.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, overload

import numpy as np

from repro.core.config import JoinSpec
from repro.errors import InvalidSpecError, SamplingExhaustedError

if TYPE_CHECKING:
    from repro.kernels import KernelSet

__all__ = [
    "SamplePair",
    "SamplePairs",
    "PhaseTimings",
    "JoinSampleResult",
    "JoinSampler",
    "build_sample_pairs",
    "resolve_rng",
]


def resolve_rng(
    rng: np.random.Generator | None = None, seed: int | None = None
) -> np.random.Generator:
    """Resolve the ``rng`` / ``seed`` pair every sampling entry point accepts.

    Exactly one source of randomness is allowed: an explicit generator, a
    seed, or neither (a fresh default generator).  Passing both raises
    ``ValueError`` - the shared validation of ``sample()``,
    ``sample_without_replacement()``, ``stream_samples()`` and the session
    API's ``draw()`` / ``stream()``.
    """
    if rng is not None and seed is not None:
        raise InvalidSpecError("pass either rng or seed, not both")
    if rng is None:
        return np.random.default_rng(seed)
    return rng


@dataclass(frozen=True, slots=True)
class SamplePair:
    """One sampled join pair, reported by dataset identifiers and positions.

    ``r_id`` / ``s_id`` are the points' dataset identifiers (stable across
    shuffling); ``r_index`` / ``s_index`` are positional indices into the
    spec's point sets, which is what validation and statistics code uses.
    """

    r_id: int
    s_id: int
    r_index: int
    s_index: int

    def as_id_tuple(self) -> tuple[int, int]:
        """``(r_id, s_id)`` tuple, the user-facing form of the pair."""
        return (self.r_id, self.s_id)

    def as_index_tuple(self) -> tuple[int, int]:
        """``(r_index, s_index)`` tuple, the validation-facing form."""
        return (self.r_index, self.s_index)


@dataclass(slots=True)
class PhaseTimings:
    """Wall-clock seconds per online phase, mirroring Table III/IV columns.

    ``build_seconds`` is the paper's GM column (grid mapping / online data
    structure building), ``count_seconds`` the UB column (exact counting or
    upper-bounding plus alias building), ``sample_seconds`` the sampling
    phase.  ``preprocess_seconds`` is the offline Table II time and is kept
    separate from the total.
    """

    preprocess_seconds: float = 0.0
    build_seconds: float = 0.0
    count_seconds: float = 0.0
    sample_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Online total: build + count + sample (excludes preprocessing)."""
        return self.build_seconds + self.count_seconds + self.sample_seconds

    def as_dict(self) -> dict[str, float]:
        """Plain dictionary used by the reporting layer."""
        return {
            "preprocess_seconds": self.preprocess_seconds,
            "build_seconds": self.build_seconds,
            "count_seconds": self.count_seconds,
            "sample_seconds": self.sample_seconds,
            "total_seconds": self.total_seconds,
        }


class SamplePairs(Sequence[SamplePair]):
    """The pairs of one draw, held column-wise as four aligned int64 arrays.

    ``r_index`` / ``s_index`` are positions into the spec's point sets and
    ``r_ids`` / ``s_ids`` the points' dataset identifiers.  ``len()`` is
    O(1); indexing or iterating builds the :class:`SamplePair` objects once
    (about 2 us per pair) and caches them - a compatibility view for
    per-pair code.  The arrays are read-only.
    """

    __slots__ = ("r_index", "s_index", "r_ids", "s_ids", "_objects")

    def __init__(
        self,
        r_index: np.ndarray,
        s_index: np.ndarray,
        r_ids: np.ndarray,
        s_ids: np.ndarray,
    ) -> None:
        columns: list[np.ndarray] = []
        for column in (r_index, s_index, r_ids, s_ids):
            # A view, so freezing it never freezes the caller's array.
            array = np.asarray(column, dtype=np.int64).view()
            array.setflags(write=False)
            columns.append(array)
        if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
            raise InvalidSpecError("pair columns must be equal-length 1-D arrays")
        self.r_index, self.s_index, self.r_ids, self.s_ids = columns
        self._objects: list[SamplePair] | None = None

    @classmethod
    def empty(cls) -> SamplePairs:
        """No pairs (the result of a ``t = 0`` draw)."""
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none, none)

    @classmethod
    def from_pairs(cls, pairs: Iterable[SamplePair]) -> SamplePairs:
        """Columns of hand-built pair objects (which become the cached view)."""
        objects = list(pairs)
        table = np.array(
            [(p.r_index, p.s_index, p.r_id, p.s_id) for p in objects], dtype=np.int64
        ).reshape(-1, 4)
        built = cls(table[:, 0], table[:, 1], table[:, 2], table[:, 3])
        built._objects = objects
        return built

    def _materialise(self) -> list[SamplePair]:
        objects = self._objects
        if objects is None:
            objects = self._objects = [
                SamplePair(r_id=rid, s_id=sid, r_index=ri, s_index=si)
                for rid, sid, ri, si in zip(
                    self.r_ids.tolist(),
                    self.s_ids.tolist(),
                    self.r_index.tolist(),
                    self.s_index.tolist(),
                )
            ]
        return objects

    def __len__(self) -> int:
        return int(self.r_index.shape[0])

    @overload
    def __getitem__(self, index: int) -> SamplePair: ...

    @overload
    def __getitem__(self, index: slice) -> list[SamplePair]: ...

    def __getitem__(self, index: int | slice) -> SamplePair | list[SamplePair]:
        return self._materialise()[index]

    def __iter__(self) -> Iterator[SamplePair]:
        return iter(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SamplePairs):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("r_index", "s_index", "r_ids", "s_ids")
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SamplePairs(k={len(self)})"


@dataclass(slots=True)
class JoinSampleResult:
    """Outcome of one ``sample(t)`` call.

    ``pairs`` is a :class:`SamplePairs`; a plain sequence of
    :class:`SamplePair` objects (a hand-built result) is wrapped on
    construction.
    """

    sampler_name: str
    requested: int
    pairs: SamplePairs
    timings: PhaseTimings
    iterations: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, SamplePairs):
            self.pairs = SamplePairs.from_pairs(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SamplePair]:
        return iter(self.pairs)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of sampling iterations that produced an accepted pair."""
        if self.iterations == 0:
            return 0.0
        return len(self.pairs) / self.iterations

    def id_pairs(self) -> list[tuple[int, int]]:
        """All sampled pairs as ``(r_id, s_id)`` tuples."""
        return list(zip(self.pairs.r_ids.tolist(), self.pairs.s_ids.tolist()))

    def index_pairs(self) -> np.ndarray:
        """All sampled pairs as an ``(k, 2)`` array of positional indices."""
        return np.column_stack((self.pairs.r_index, self.pairs.s_index))


def build_sample_pairs(
    spec: JoinSpec, r_indices: np.ndarray, s_indices: np.ndarray
) -> SamplePairs:
    """The columnar pairs of positional index arrays (ids gathered from ``spec``).

    Shared by every sampler's batch path: two array gathers, no per-pair
    Python work.
    """
    r_index = np.asarray(r_indices, dtype=np.int64)
    s_index = np.asarray(s_indices, dtype=np.int64)
    return SamplePairs(
        r_index, s_index, spec.r_points.ids[r_index], spec.s_points.ids[s_index]
    )


class JoinSampler(abc.ABC):
    """Abstract base class of every join sampling algorithm.

    Subclasses implement :meth:`_preprocess_impl` (offline step) and
    :meth:`_sample_impl` (online phases); this base class handles timing of
    the offline step, seeding, and argument validation so that all samplers
    report comparable numbers.

    Two knobs configure the batch-sampling engine shared by the concrete
    samplers (see :mod:`repro.core.batching`):

    * ``batch_size`` pins the number of attempts pre-drawn per sampling
      round (``None`` sizes rounds adaptively from the observed acceptance
      rate; ``1`` reproduces one-attempt-at-a-time draw scheduling);
    * ``vectorized`` selects the numpy round processor (default) or the
      scalar per-attempt loop over the same pre-drawn variates, kept as an
      escape hatch for differential testing.

    A third knob, ``backend``, selects the kernel implementation the
    vectorized round processors call (``"numpy" | "numba" | "auto"``, see
    :mod:`repro.kernels`).  The backend is resolved to a concrete name at
    construction; because both backends are bit-identical (including RNG
    consumption order), it never changes which pairs are drawn - only how
    fast.
    """

    def __init__(
        self,
        spec: JoinSpec,
        batch_size: int | None = None,
        vectorized: bool = True,
        backend: str | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        # Resolved eagerly so a bad backend fails at construction, and stored
        # as a plain string so prepared samplers pickle to shard workers (the
        # kernel namespace itself is re-resolved lazily per process).
        from repro.kernels import resolve_backend

        self._spec = spec
        self._batch_size = batch_size
        self._vectorized = bool(vectorized)
        self._kernel_backend = resolve_backend(backend)
        self._preprocessed = False
        self._preprocess_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def spec(self) -> JoinSpec:
        """The join instance this sampler operates on."""
        return self._spec

    @property
    def batch_size(self) -> int | None:
        """Fixed sampling-round size (``None`` means adaptive refill)."""
        return self._batch_size

    @property
    def vectorized(self) -> bool:
        """Whether the numpy round processor is active (vs the scalar twin)."""
        return self._vectorized

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel backend name serving this sampler's hot paths."""
        return self._kernel_backend

    @property
    def kernels(self) -> KernelSet:
        """The :class:`~repro.kernels.KernelSet` of the resolved backend."""
        from repro.kernels import get_kernels

        return get_kernels(self._kernel_backend)

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short algorithm name used in reports (e.g. ``"BBST"``)."""

    @property
    def preprocess_seconds(self) -> float:
        """Offline preprocessing time of the last :meth:`preprocess` call."""
        return self._preprocess_seconds

    @property
    def is_preprocessed(self) -> bool:
        """Whether :meth:`preprocess` already ran."""
        return self._preprocessed

    # ------------------------------------------------------------------
    def preprocess(self) -> float:
        """Run the offline step (Table II) once and return its wall-clock seconds."""
        if not self._preprocessed:
            start = time.perf_counter()
            self._preprocess_impl()
            self._preprocess_seconds = time.perf_counter() - start
            self._preprocessed = True
        return self._preprocess_seconds

    def sample(
        self,
        t: int,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> JoinSampleResult:
        """Draw ``t`` uniform, independent samples of the join result.

        Parameters
        ----------
        t:
            Number of samples (with replacement) to return.
        rng, seed:
            Either an explicit numpy generator or a seed; a fresh default
            generator is created when neither is given.
        """
        if t < 0:
            raise InvalidSpecError("t must be non-negative")
        rng = resolve_rng(rng, seed)
        self.preprocess()
        result = self._sample_impl(t, rng)
        result.timings.preprocess_seconds = self._preprocess_seconds
        result.metadata.setdefault("kernel_backend", self._kernel_backend)
        return result

    def prepare(self) -> PhaseTimings:
        """Run every phase that does not depend on ``t`` or randomness, eagerly.

        This executes the offline step plus the online build (GM) and counting
        (UB) phases and caches their results on the sampler, so that subsequent
        :meth:`sample` calls only pay the sampling phase (their reported
        ``build_seconds`` / ``count_seconds`` are ~0).  Those phases consume no
        randomness, so a prepared sampler returns bit-identical pairs to an
        unprepared one for the same ``(t, seed)``.

        Returns the timings of the prepare work (all zeros when the sampler was
        already prepared).  This is the method the session API calls when a
        request first touches an ``(algorithm, half_extent)`` key.
        """
        return self.sample(0).timings

    @property
    def is_prepared(self) -> bool:
        """Whether the online structures are cached (``prepare`` or a draw ran)."""
        return self._preprocessed and self._has_online_state()

    def _has_online_state(self) -> bool:
        """Whether the subclass has cached its build/count results."""
        return False

    def rebind_spec(self, spec: JoinSpec) -> None:
        """Point the sampler at a new join instance *without* resetting state.

        This is a maintenance hook for the dynamic-update subsystem
        (:mod:`repro.dynamic`): after an incremental update the maintained
        online structures already describe the new ``(R, S)``, so only the
        spec reference needs to move.  Callers are responsible for keeping
        the cached structures consistent with the new spec - ordinary code
        should build a fresh sampler instead.
        """
        self._spec = spec

    def sample_without_replacement(
        self,
        t: int,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        max_attempt_factor: int = 50,
    ) -> JoinSampleResult:
        """Draw ``t`` *distinct* join pairs.

        Definition 2 asks for sampling with replacement; the paper notes that
        the without-replacement variant follows by simply rejecting samples
        that were already obtained, which is exactly what this method does:
        it keeps drawing batches with :meth:`sample` and discards duplicates.

        Raises :class:`RuntimeError` when ``t`` appears to exceed the number
        of distinct join pairs (after ``max_attempt_factor * t`` draws the
        set of distinct pairs has stopped growing fast enough).
        """
        if t < 0:
            raise InvalidSpecError("t must be non-negative")
        rng = resolve_rng(rng, seed)
        # Dedupe on the index columns: a pair is keyed r_index * m + s_index,
        # and each batch contributes its not-yet-seen pairs in first-occurrence
        # order - the pairs (and the draws consumed) of a per-pair scan.
        stride = max(self.spec.m, 1)
        seen = np.empty(0, dtype=np.int64)
        timings = PhaseTimings()
        iterations = 0
        total_drawn = 0
        metadata: dict[str, Any] = {}
        while seen.size < t:
            remaining = t - seen.size
            batch = max(2 * remaining, 16)
            result = self.sample(batch, rng=rng)
            iterations += result.iterations
            total_drawn += len(result)
            metadata = dict(result.metadata)
            for phase, value in result.timings.as_dict().items():
                if phase in ("preprocess_seconds", "total_seconds"):
                    continue
                setattr(timings, phase, getattr(timings, phase) + value)
            keys = result.pairs.r_index * stride + result.pairs.s_index
            _unique, first = np.unique(keys, return_index=True)
            first.sort()
            fresh = first[~np.isin(keys[first], seen)][:remaining]
            seen = np.concatenate((seen, keys[fresh]))
            if total_drawn > max_attempt_factor * max(t, 1) and seen.size < t:
                raise SamplingExhaustedError(
                    f"could not find {t} distinct join pairs after {total_drawn} draws; "
                    "the join result probably has fewer than t pairs"
                )
        timings.preprocess_seconds = self._preprocess_seconds
        metadata["distinct"] = True
        return JoinSampleResult(
            sampler_name=self.name,
            requested=t,
            pairs=build_sample_pairs(self.spec, seen // stride, seen % stride),
            timings=timings,
            iterations=iterations,
            metadata=metadata,
        )

    def stream_samples(
        self,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        batch_size: int = 1_024,
    ) -> "Iterator[SamplePair]":
        """Yield uniform, independent join samples indefinitely.

        Definition 2 allows ``t = ∞``: all algorithms draw samples
        progressively, so consumers can stop whenever they have enough.  The
        generator draws batches of ``batch_size`` internally (samplers that
        cache their online structures, such as the BBST sampler, only pay the
        per-sample cost after the first batch).
        """
        if batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        rng = resolve_rng(rng, seed)
        while True:
            result = self.sample(batch_size, rng=rng)
            yield from result.pairs

    def index_nbytes(self) -> int:
        """Approximate memory footprint of the sampler's persistent index."""
        return 0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _preprocess_impl(self) -> None:
        """Offline preprocessing (build the kd-tree / pre-sort ``S``)."""

    @abc.abstractmethod
    def _sample_impl(self, t: int, rng: np.random.Generator) -> JoinSampleResult:
        """Online phases producing the sample result (``t >= 0``)."""
