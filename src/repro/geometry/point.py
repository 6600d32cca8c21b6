"""Point and point-set representations.

Every algorithm in this library works on :class:`PointSet`, a column-oriented
(structure-of-arrays) container: ids, x coordinates and y coordinates live in
three parallel numpy arrays.  This keeps the data layout close to what the
paper's C++ implementation uses (contiguous arrays that are sorted once and
then binary-searched) while still exposing a convenient object view through
:class:`Point` when individual points need to be handled.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidSpecError

__all__ = ["Point", "PointSet"]


def _digest_columns(size: int, *columns: np.ndarray) -> int:
    """Stable 128-bit content digest of parallel array columns.

    blake2b over the little-endian bytes of every column, prefixed by the
    length: the same content yields the same integer in every process and on
    every platform (unlike ``hash()``, which is salted per process by
    ``PYTHONHASHSEED``).  On-disk artifacts validate against these values, so
    cross-process stability is a correctness requirement, pinned by golden
    values in ``tests/artifacts``.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(int(size).to_bytes(8, "little", signed=True))
    for column in columns:
        little = column.astype(column.dtype.newbyteorder("<"), copy=False)
        h.update(np.ascontiguousarray(little).tobytes())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True, slots=True)
class Point:
    """A single 2-dimensional point with a unique integer identifier.

    Mirrors the paper's ``r_i = <x, y>`` notation; the identifier is the
    point's position in its original dataset, which lets samplers report
    join pairs as ``(r.pid, s.pid)`` tuples that can be traced back to the
    input.
    """

    pid: int
    x: float
    y: float

    def as_tuple(self) -> tuple[float, float]:
        """Return the coordinates as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point (utility for examples)."""
        return float(np.hypot(self.x - other.x, self.y - other.y))

    def chebyshev_distance_to(self, other: "Point") -> float:
        """L-infinity distance; ``s`` is in ``w(r)`` iff this is <= extent."""
        return float(max(abs(self.x - other.x), abs(self.y - other.y)))


class PointSet:
    """An immutable, column-oriented collection of 2-D points.

    Parameters
    ----------
    xs, ys:
        Coordinate arrays (any sequence convertible to ``float64``).
    ids:
        Optional identifier array.  Defaults to ``0..len-1``.
    name:
        Optional human-readable name used in experiment reports.

    Notes
    -----
    The arrays are copied and marked read-only so that indexes built on top of
    a :class:`PointSet` can safely keep references to its internals.
    """

    __slots__ = ("_xs", "_ys", "_ids", "name")

    def __init__(
        self,
        xs: Sequence[float] | np.ndarray,
        ys: Sequence[float] | np.ndarray,
        ids: Sequence[int] | np.ndarray | None = None,
        name: str = "points",
    ) -> None:
        xs_arr = np.asarray(xs, dtype=np.float64).copy()
        ys_arr = np.asarray(ys, dtype=np.float64).copy()
        if xs_arr.ndim != 1 or ys_arr.ndim != 1:
            raise InvalidSpecError("coordinate arrays must be one-dimensional")
        if xs_arr.shape[0] != ys_arr.shape[0]:
            raise InvalidSpecError(
                "x and y arrays must have the same length "
                f"({xs_arr.shape[0]} != {ys_arr.shape[0]})"
            )
        if not (np.isfinite(xs_arr).all() and np.isfinite(ys_arr).all()):
            raise InvalidSpecError("coordinates must be finite (no NaN or inf)")
        if ids is None:
            ids_arr = np.arange(xs_arr.shape[0], dtype=np.int64)
        else:
            ids_arr = np.asarray(ids, dtype=np.int64).copy()
            if ids_arr.shape[0] != xs_arr.shape[0]:
                raise InvalidSpecError("ids must have the same length as coordinates")
        for arr in (xs_arr, ys_arr, ids_arr):
            arr.setflags(write=False)
        self._xs = xs_arr
        self._ys = ys_arr
        self._ids = ids_arr
        self.name = name

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point], name: str = "points") -> "PointSet":
        """Build a :class:`PointSet` from an iterable of :class:`Point`."""
        pts = list(points)
        return cls(
            xs=[p.x for p in pts],
            ys=[p.y for p in pts],
            ids=[p.pid for p in pts],
            name=name,
        )

    @classmethod
    def from_array(cls, coords: np.ndarray, name: str = "points") -> "PointSet":
        """Build from an ``(n, 2)`` array of coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidSpecError("expected an (n, 2) coordinate array")
        return cls(xs=coords[:, 0], ys=coords[:, 1], name=name)

    @classmethod
    def empty(cls, name: str = "points") -> "PointSet":
        """An empty point set (useful as a degenerate test input)."""
        return cls(xs=np.empty(0), ys=np.empty(0), name=name)

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------
    @property
    def xs(self) -> np.ndarray:
        """Read-only x-coordinate array."""
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Read-only y-coordinate array."""
        return self._ys

    @property
    def ids(self) -> np.ndarray:
        """Read-only identifier array."""
        return self._ids

    def coords(self) -> np.ndarray:
        """Return a fresh ``(n, 2)`` coordinate array."""
        return np.column_stack([self._xs, self._ys])

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._xs.shape[0])

    def __getitem__(self, index: int) -> Point:
        if isinstance(index, slice):
            raise TypeError("use PointSet.take for slicing; __getitem__ is scalar")
        idx = int(index)
        return Point(pid=int(self._ids[idx]), x=float(self._xs[idx]), y=float(self._ys[idx]))

    def __iter__(self) -> Iterator[Point]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointSet(name={self.name!r}, size={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            np.array_equal(self._xs, other._xs)
            and np.array_equal(self._ys, other._ys)
            and np.array_equal(self._ids, other._ids)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "PointSet":
        """Return a new :class:`PointSet` containing the selected positions."""
        idx = np.asarray(indices, dtype=np.int64)
        return PointSet(
            xs=self._xs[idx],
            ys=self._ys[idx],
            ids=self._ids[idx],
            name=name or self.name,
        )

    def sorted_by_x(self) -> "PointSet":
        """Return a copy sorted by x (ties broken by y), as the paper pre-sorts S."""
        order = np.lexsort((self._ys, self._xs))
        return self.take(order)

    def sorted_by_y(self) -> "PointSet":
        """Return a copy sorted by y (ties broken by x)."""
        order = np.lexsort((self._xs, self._ys))
        return self.take(order)

    def sample(self, k: int, rng: np.random.Generator) -> "PointSet":
        """Uniform random subset of size ``k`` without replacement."""
        if k < 0 or k > len(self):
            raise InvalidSpecError(f"cannot sample {k} points from a set of {len(self)}")
        idx = rng.choice(len(self), size=k, replace=False)
        return self.take(np.sort(idx))

    def scaled(self, fraction: float, rng: np.random.Generator) -> "PointSet":
        """Uniform random subset keeping ``fraction`` of the points.

        Used by the dataset-size scalability experiments (Fig. 4 and Fig. 7),
        which down-sample each dataset to 20%..100% of its full size.
        """
        if not 0.0 < fraction <= 1.0:
            raise InvalidSpecError("fraction must be in (0, 1]")
        k = max(1, int(round(fraction * len(self))))
        return self.sample(k, rng)

    def normalized(self, domain: float = 10_000.0) -> "PointSet":
        """Affinely rescale coordinates to ``[0, domain]²`` as the paper does."""
        if len(self) == 0:
            return self
        xmin, xmax = float(self._xs.min()), float(self._xs.max())
        ymin, ymax = float(self._ys.min()), float(self._ys.max())
        xspan = xmax - xmin or 1.0
        yspan = ymax - ymin or 1.0
        xs = (self._xs - xmin) / xspan * domain
        ys = (self._ys - ymin) / yspan * domain
        return PointSet(xs=xs, ys=ys, ids=self._ids, name=self.name)

    def bounds(self) -> tuple[float, float, float, float]:
        """Return ``(xmin, ymin, xmax, ymax)`` of the set."""
        if len(self) == 0:
            raise InvalidSpecError("an empty point set has no bounds")
        return (
            float(self._xs.min()),
            float(self._ys.min()),
            float(self._xs.max()),
            float(self._ys.max()),
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the raw coordinate arrays."""
        return int(self._xs.nbytes + self._ys.nbytes + self._ids.nbytes)

    # ------------------------------------------------------------------
    # Content fingerprints (session staleness guard)
    # ------------------------------------------------------------------
    def fingerprint(self) -> int:
        """Order-sensitive content hash of the full (ids, xs, ys) columns.

        The arrays are nominally read-only, but a determined caller can flip
        the writeable flag and mutate them in place - which would silently
        desynchronise any index built on top.  :class:`SamplingSession`
        records this fingerprint when it opens and refuses to serve draws
        from structures whose inputs no longer match (see
        ``SamplingSession.update`` for the sanctioned mutation path).

        The value is a stable 128-bit blake2b digest (an ``int``): the same
        content produces the same fingerprint in every process, which is what
        lets on-disk artifacts validate against it across restarts.
        """
        return _digest_columns(self._xs.shape[0], self._xs, self._ys, self._ids)

    def spot_fingerprint(self, probes: int = 64) -> int:
        """Cheap strided sub-sample of :meth:`fingerprint` for per-draw checks.

        Hashes up to ``probes`` evenly strided elements of each column (plus
        the length), so the cost is O(probes) regardless of the set size.
        Detects any mutation touching a probed element - in particular whole
        array overwrites - while staying cheap enough to run on every
        request; :meth:`fingerprint` is the exhaustive variant.
        """
        size = self._xs.shape[0]
        if size == 0:
            return _digest_columns(0)
        stride = max(1, size // max(1, probes))
        picked = slice(0, None, stride)
        return _digest_columns(
            size, self._xs[picked], self._ys[picked], self._ids[picked]
        )
