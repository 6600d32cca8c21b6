"""The columnar result: :class:`SamplePairs` and the accessors built on it.

Every draw path (each registered sampler, sharded, dynamic after a flush,
artifact attach) must return pairs whose four columns, ``index_pairs()``,
``id_pairs()`` and the lazily built ``SamplePair`` view all agree.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.artifacts import attach_sampler_artifact, save_sampler_artifact
from repro.core.base import JoinSampleResult, PhaseTimings, SamplePair, SamplePairs
from repro.core.config import JoinSpec
from repro.core.registry import create_sampler, sampler_names
from repro.datasets.partition import split_r_s
from repro.datasets.synthetic import uniform_points
from repro.dynamic import DynamicSampler
from repro.errors import InvalidSpecError
from repro.geometry.point import PointSet
from repro.parallel import ShardedSampler

SEED = 77


@pytest.fixture(scope="module")
def spec():
    rng = np.random.default_rng(SEED)
    r_points, s_points = split_r_s(uniform_points(2_000, rng, name="columnar"), rng)
    # Ids that differ from positions, so an id/index mix-up cannot pass.
    r_points = PointSet(r_points.xs, r_points.ys, ids=r_points.ids * 3 + 1000)
    s_points = PointSet(s_points.xs, s_points.ys, ids=s_points.ids * 7 + 5)
    return JoinSpec(r_points=r_points, s_points=s_points, half_extent=200.0)


def assert_views_agree(spec: JoinSpec, result: JoinSampleResult) -> None:
    pairs = result.pairs
    assert isinstance(pairs, SamplePairs)
    for column in (pairs.r_index, pairs.s_index, pairs.r_ids, pairs.s_ids):
        assert column.dtype == np.int64 and column.shape == (len(result),)
    np.testing.assert_array_equal(pairs.r_ids, spec.r_points.ids[pairs.r_index])
    np.testing.assert_array_equal(pairs.s_ids, spec.s_points.ids[pairs.s_index])
    index = result.index_pairs()
    np.testing.assert_array_equal(index, np.column_stack((pairs.r_index, pairs.s_index)))
    assert result.id_pairs() == list(zip(pairs.r_ids.tolist(), pairs.s_ids.tolist()))
    objects = list(result.pairs)
    assert [p.as_index_tuple() for p in objects] == [tuple(row) for row in index.tolist()]
    assert [p.as_id_tuple() for p in objects] == result.id_pairs()
    assert bool(spec.pairs_match(pairs.r_index, pairs.s_index).all())


class TestDrawPathsAgree:
    @pytest.mark.parametrize("name", sampler_names())
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_every_registered_sampler(self, name, vectorized, spec):
        sampler = create_sampler(name, spec, vectorized=vectorized)
        assert_views_agree(spec, sampler.sample(300, seed=SEED))
        assert_views_agree(spec, sampler.sample_without_replacement(120, seed=SEED))
        assert len(sampler.sample(0, seed=SEED).pairs) == 0

    def test_sharded_in_process(self, spec):
        sharded = ShardedSampler(spec, jobs=2, use_processes=False)
        assert_views_agree(spec, sharded.sample(400, seed=SEED))
        assert_views_agree(spec, sharded.sample_without_replacement(150, seed=SEED))

    def test_dynamic_after_flush(self, spec):
        dyn = DynamicSampler(spec, algorithm="bbst")
        rng = np.random.default_rng(SEED)
        extra = uniform_points(50, rng)
        dyn.update("s", insert=(extra.xs, extra.ys), delete=dyn.s_points.ids[:20])
        dyn.flush()
        final = JoinSpec(dyn.r_points, dyn.s_points, spec.half_extent)
        result = dyn.sample(300, seed=SEED)
        assert_views_agree(final, result)
        fresh = create_sampler("bbst", final).sample(300, seed=SEED)
        assert result.pairs == fresh.pairs

    @pytest.mark.parametrize("name", ["bbst", "kds"])
    def test_artifact_attach(self, name, spec, tmp_path):
        fresh = create_sampler(name, spec)
        fresh.prepare()
        save_sampler_artifact(fresh, tmp_path / name)
        warm = create_sampler(name, spec)
        attach_sampler_artifact(warm, tmp_path / name)
        result = warm.sample(300, seed=SEED)
        assert_views_agree(spec, result)
        assert result.pairs == fresh.sample(300, seed=SEED).pairs


class TestSamplePairs:
    def _pairs(self):
        return SamplePairs(
            np.array([0, 1, 2]), np.array([5, 6, 7]), np.array([10, 11, 12]), np.array([50, 60, 70])
        )

    def test_len_builds_no_objects(self, monkeypatch):
        built = []
        original = SamplePair.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SamplePair, "__init__", counting)
        result = JoinSampleResult("x", 3, self._pairs(), PhaseTimings(), 3)
        assert len(result.pairs) == len(result) == 3
        assert result.id_pairs() == [(10, 50), (11, 60), (12, 70)]
        assert result.index_pairs().tolist() == [[0, 5], [1, 6], [2, 7]]
        assert built == []
        pairs = result.pairs
        assert pairs[1] == SamplePair(r_id=11, s_id=60, r_index=1, s_index=6)
        assert list(pairs)[1] is pairs[1]  # built once, then cached
        assert pairs[:2] == list(pairs)[:2]
        assert len(built) == 4  # three cached objects plus the one compared against

    def test_columns_are_read_only_views(self):
        r_index = np.array([0, 1, 2], dtype=np.int64)
        pairs = SamplePairs(r_index, r_index, r_index, r_index)
        with pytest.raises(ValueError):
            pairs.r_index[0] = 9
        r_index[0] = 4  # the caller's array stays writable
        assert pairs.r_index[0] == 4

    def test_hand_built_results_are_wrapped(self):
        objects = [SamplePair(10, 20, 1, 2), SamplePair(30, 40, 3, 4)]
        result = JoinSampleResult("x", 2, objects, PhaseTimings(), 2)
        assert isinstance(result.pairs, SamplePairs)
        assert result.pairs.s_ids.tolist() == [20, 40]
        assert result.pairs[0] is objects[0]
        assert result.pairs == objects

    def test_equality_and_pickle(self):
        pairs = self._pairs()
        assert pickle.loads(pickle.dumps(pairs)) == pairs
        assert pairs != SamplePairs.empty()
        assert pairs != list(pairs)[:2]

    def test_ragged_columns_raise(self):
        with pytest.raises(InvalidSpecError):
            SamplePairs(np.arange(3), np.arange(2), np.arange(3), np.arange(3))
