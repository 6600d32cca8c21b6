"""Correctness checks on every reply the benchmark receives.

A draw reply is correct when it returns exactly ``t`` pairs, every pair
names an ``R`` id and an ``S`` id the generator knows (deletes already
applied), and every pair satisfies the closed window predicate
``|r.x - s.x| <= l`` and ``|r.y - s.y| <= l`` against the generator's own
copy of the points.  Separately, an evenly strided subset of replies is
replayed on an unmanaged twin session and must match bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np


class SideCopy:
    """The generator's copy of one side: ids with their coordinates."""

    def __init__(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self._order = np.argsort(self.ids, kind="stable")
        self._sorted = self.ids[self._order]

    @classmethod
    def of(cls, points: Any) -> "SideCopy":
        """Copy a :class:`~repro.geometry.point.PointSet`."""
        return cls(points.ids.copy(), points.xs.copy(), points.ys.copy())

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(known, xs, ys)`` for ``ids``; coordinates are junk where unknown."""
        if not len(self._sorted):
            return np.zeros(len(ids), dtype=bool), np.zeros(len(ids)), np.zeros(len(ids))
        slots = np.minimum(np.searchsorted(self._sorted, ids), len(self._sorted) - 1)
        known = self._sorted[slots] == ids
        positions = self._order[slots]
        return known, self.xs[positions], self.ys[positions]

    def after_update(
        self, delete: np.ndarray, insert_ids: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> "SideCopy":
        """The side after deleting then inserting, in the store's order.

        Survivors keep their relative order and insertions append, exactly
        as the library's dynamic point store does, so a fresh session over
        the copy is the twin of the updated one.
        """
        keep = ~np.isin(self.ids, delete)
        return SideCopy(
            np.concatenate((self.ids[keep], insert_ids)),
            np.concatenate((self.xs[keep], xs)),
            np.concatenate((self.ys[keep], ys)),
        )


class JoinCopy:
    """Both sides of one tenant at one version, with the window half-extent."""

    def __init__(self, r: SideCopy, s: SideCopy, half_extent: float) -> None:
        self.r = r
        self.s = s
        self.half_extent = float(half_extent)

    def check(self, pairs: np.ndarray, t: int) -> str | None:
        """``None`` when ``pairs`` is a correct reply to a draw of ``t``.

        Otherwise a one-line reason naming the first defect found.
        """
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            return f"pairs have shape {pairs.shape}, expected ({t}, 2)"
        if len(pairs) != t:
            return f"returned {len(pairs)} pairs for t={t}"
        if not t:
            return None
        pairs = pairs.astype(np.int64, copy=False)
        r_known, rx, ry = self.r.lookup(pairs[:, 0])
        s_known, sx, sy = self.s.lookup(pairs[:, 1])
        if not r_known.all():
            return f"unknown R id {int(pairs[~r_known][0, 0])}"
        if not s_known.all():
            return f"unknown S id {int(pairs[~s_known][0, 1])}"
        l = self.half_extent
        inside = (sx >= rx - l) & (sx <= rx + l) & (sy >= ry - l) & (sy <= ry + l)
        if not inside.all():
            bad = pairs[~inside][0]
            return f"pair ({int(bad[0])}, {int(bad[1])}) is outside the window"
        return None


def reply_pairs(body: dict[str, Any], t: int) -> tuple[np.ndarray | None, str | None]:
    """The ``(k, 2)`` id array of a draw reply, or a reason it is malformed."""
    try:
        pairs = np.asarray(body["pairs"], dtype=np.int64).reshape(-1, 2)
        returned = int(body["returned"])
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"malformed reply: {exc}"
    if returned != len(pairs) or returned != t:
        return pairs, f"reply says returned={returned} with {len(pairs)} pairs for t={t}"
    return pairs, None


def strided(count: int, limit: int) -> list[int]:
    """Evenly strided indices picking at most ``limit`` of ``count`` items."""
    if count <= 0 or limit <= 0:
        return []
    step = max(1, -(-count // limit))
    return list(range(0, count, step))


def fresh_twin(copy: JoinCopy) -> Any:
    """An unmanaged ``bbst`` session built fresh from ``copy``.

    Its draws are what a maintained, evicted or re-prepared tenant holding
    the same points must return, bit for bit.
    """
    from repro.api.session import SamplingSession
    from repro.geometry.point import PointSet

    sides = [PointSet(xs=side.xs, ys=side.ys, ids=side.ids) for side in (copy.r, copy.s)]
    return SamplingSession(*sides, copy.half_extent, algorithm="bbst")


def replay_mismatches(
    twin: Any, draws: Sequence[tuple[int, int, np.ndarray]]
) -> list[str]:
    """Replay ``(t, seed, pairs)`` draws on ``twin``; describe any that differ."""
    failures = []
    for t, seed, pairs in draws:
        expected = np.asarray(twin.draw(t, seed=seed).id_pairs(), dtype=np.int64).reshape(-1, 2)
        if not np.array_equal(expected, pairs):
            failures.append(f"seed {seed}: reply differs from the unmanaged twin")
    return failures
