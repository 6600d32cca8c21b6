import numpy as np
import pytest

from stackbench.checker import (
    JoinCopy,
    SideCopy,
    fresh_twin,
    replay_mismatches,
    reply_pairs,
    strided,
)


@pytest.fixture
def copy():
    # R ids 10, 11; S ids 20 (near 10), 21 (near 11), 22 (far from both).
    r = SideCopy(np.array([10, 11]), np.array([0.0, 5.0]), np.array([0.0, 5.0]))
    s = SideCopy(np.array([22, 20, 21]), np.array([50.0, 1.0, 5.0]), np.array([50.0, -1.0, 6.0]))
    return JoinCopy(r, s, half_extent=1.0)


def test_accepts_a_correct_reply(copy):
    assert copy.check(np.array([[10, 20], [11, 21], [10, 20]]), 3) is None


def test_window_is_closed(copy):
    # S 20 sits exactly on the corner of R 10's window.
    assert copy.check(np.array([[10, 20]]), 1) is None


def test_rejects_a_doctored_pair(copy):
    assert "outside the window" in copy.check(np.array([[10, 20], [10, 22]]), 2)
    assert "unknown S id" in copy.check(np.array([[10, 20], [11, 99]]), 2)
    assert "unknown R id" in copy.check(np.array([[12, 20]]), 1)


def test_rejects_a_short_reply(copy):
    assert "returned 1 pairs for t=2" in copy.check(np.array([[10, 20]]), 2)
    pairs, reason = reply_pairs({"returned": 2, "pairs": [[10, 20]]}, 2)
    assert reason is not None and len(pairs) == 1
    _pairs, reason = reply_pairs({"returned": 1, "pairs": [[10, 20]]}, 2)
    assert "t=2" in reason
    assert reply_pairs({"pairs": []}, 1)[1].startswith("malformed")


def test_deleted_points_become_unknown(copy):
    updated = copy.s.after_update(
        np.array([20]), np.array([30]), np.array([0.5]), np.array([0.5])
    )
    assert updated.ids.tolist() == [22, 21, 30]  # survivors keep order, inserts append
    after = JoinCopy(copy.r, updated, copy.half_extent)
    assert "unknown S id 20" in after.check(np.array([[10, 20]]), 1)
    assert after.check(np.array([[10, 30]]), 1) is None


def test_strided_picks_evenly():
    assert strided(10, 5) == [0, 2, 4, 6, 8]
    assert strided(3, 16) == [0, 1, 2]
    assert strided(0, 4) == []


def test_replay_against_a_twin():
    from repro.api.session import SamplingSession
    from repro.datasets.synthetic import uniform_points

    rng = np.random.default_rng(3)
    r_points, s_points = uniform_points(400, rng), uniform_points(400, rng)
    twin = SamplingSession(r_points, s_points, 500.0, algorithm="bbst")
    try:
        pairs = np.asarray(twin.draw(20, seed=5).id_pairs())
        assert replay_mismatches(twin, [(20, 5, pairs)]) == []
        doctored = pairs.copy()
        doctored[3, 1] += 1
        assert len(replay_mismatches(twin, [(20, 5, doctored)])) == 1
        copy = JoinCopy(SideCopy.of(r_points), SideCopy.of(s_points), 500.0)
        assert copy.check(pairs, 20) is None
    finally:
        twin.close()


def test_fresh_twin_replays_a_session_updated_without_ids():
    # Inserts carry coordinates only, as over HTTP: the store numbers them
    # consecutively above every id the side holds before the update.
    from repro.api.session import SamplingSession
    from repro.datasets.synthetic import uniform_points

    rng = np.random.default_rng(4)
    r_points, s_points = uniform_points(400, rng), uniform_points(400, rng)
    copy = JoinCopy(SideCopy.of(r_points), SideCopy.of(s_points), 800.0)
    session = SamplingSession(r_points, s_points, 800.0, algorithm="bbst")
    try:
        session.draw(20, seed=1)  # prepared first, so the updates are maintained
        for delete in (s_points.ids[:30], s_points.ids[30:60]):
            xs, ys = rng.uniform(0.0, 10_000.0, 40), rng.uniform(0.0, 10_000.0, 40)
            session.update("s", insert=(xs, ys), delete=delete)
            first = int(copy.s.ids.max()) + 1
            ids = np.arange(first, first + 40, dtype=np.int64)
            copy = JoinCopy(copy.r, copy.s.after_update(delete, ids, xs, ys), 800.0)
        pairs = np.asarray(session.draw(50, seed=9).id_pairs()).reshape(-1, 2)
        assert copy.check(pairs, 50) is None
        assert np.isin(pairs[:, 1], copy.s.ids[-80:]).any()  # inserted points drawn
        twin = fresh_twin(copy)
        try:
            assert replay_mismatches(twin, [(50, 9, pairs)]) == []
        finally:
            twin.close()
    finally:
        session.close()
