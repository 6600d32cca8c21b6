"""Tests for :class:`repro.geometry.point.PointSet`."""

import numpy as np
import pytest

from repro.errors import InvalidSpecError
from repro.geometry.point import Point, PointSet


class TestConstruction:
    def test_basic_construction(self):
        ps = PointSet(xs=[1.0, 2.0], ys=[3.0, 4.0], name="demo")
        assert len(ps) == 2
        assert ps.name == "demo"
        assert list(ps.ids) == [0, 1]

    def test_explicit_ids(self):
        ps = PointSet(xs=[1.0], ys=[2.0], ids=[42])
        assert ps[0].pid == 42

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PointSet(xs=[1.0, 2.0], ys=[3.0])

    def test_ids_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PointSet(xs=[1.0], ys=[2.0], ids=[1, 2])

    def test_two_dimensional_input_raises(self):
        with pytest.raises(ValueError):
            PointSet(xs=np.zeros((2, 2)), ys=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_raise(self, bad):
        # A NaN would map to an INT64_MIN grid key and silently drop out of J.
        with pytest.raises(InvalidSpecError, match="finite"):
            PointSet(xs=[1.0, bad], ys=[2.0, 3.0])
        with pytest.raises(InvalidSpecError, match="finite"):
            PointSet.from_array(np.array([[1.0, 2.0], [3.0, bad]]))

    def test_from_points(self):
        pts = [Point(5, 1.0, 2.0), Point(9, 3.0, 4.0)]
        ps = PointSet.from_points(pts, name="from-points")
        assert len(ps) == 2
        assert ps[1] == Point(9, 3.0, 4.0)

    def test_from_array(self):
        coords = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ps = PointSet.from_array(coords)
        assert len(ps) == 3
        assert ps[2].as_tuple() == (5.0, 6.0)

    def test_from_array_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet.from_array(np.zeros((3, 3)))

    def test_empty(self):
        ps = PointSet.empty()
        assert len(ps) == 0

    def test_arrays_are_read_only(self):
        ps = PointSet(xs=[1.0], ys=[2.0])
        with pytest.raises(ValueError):
            ps.xs[0] = 99.0

    def test_input_arrays_are_copied(self):
        xs = np.array([1.0, 2.0])
        ps = PointSet(xs=xs, ys=[0.0, 0.0])
        xs[0] = 50.0
        assert ps.xs[0] == 1.0


class TestAccess:
    def test_getitem_returns_point(self):
        ps = PointSet(xs=[1.0, 2.0], ys=[3.0, 4.0], ids=[7, 8])
        assert ps[0] == Point(7, 1.0, 3.0)

    def test_getitem_slice_raises(self):
        ps = PointSet(xs=[1.0, 2.0], ys=[3.0, 4.0])
        with pytest.raises(TypeError):
            ps[0:1]

    def test_iteration(self):
        ps = PointSet(xs=[1.0, 2.0], ys=[3.0, 4.0])
        pts = list(ps)
        assert [p.x for p in pts] == [1.0, 2.0]

    def test_coords_shape(self):
        ps = PointSet(xs=[1.0, 2.0, 3.0], ys=[4.0, 5.0, 6.0])
        coords = ps.coords()
        assert coords.shape == (3, 2)
        assert coords[1, 1] == 5.0

    def test_equality(self):
        a = PointSet(xs=[1.0], ys=[2.0])
        b = PointSet(xs=[1.0], ys=[2.0])
        c = PointSet(xs=[1.0], ys=[3.0])
        assert a == b
        assert a != c

    def test_equality_with_other_type(self):
        assert PointSet(xs=[1.0], ys=[2.0]) != "not a point set"


class TestTransformations:
    def test_take(self):
        ps = PointSet(xs=[1.0, 2.0, 3.0], ys=[4.0, 5.0, 6.0], ids=[10, 11, 12])
        subset = ps.take([2, 0])
        assert len(subset) == 2
        assert list(subset.ids) == [12, 10]

    def test_sorted_by_x(self):
        ps = PointSet(xs=[3.0, 1.0, 2.0], ys=[0.0, 0.0, 0.0])
        assert list(ps.sorted_by_x().xs) == [1.0, 2.0, 3.0]

    def test_sorted_by_x_breaks_ties_by_y(self):
        ps = PointSet(xs=[1.0, 1.0], ys=[5.0, 2.0])
        assert list(ps.sorted_by_x().ys) == [2.0, 5.0]

    def test_sorted_by_y(self):
        ps = PointSet(xs=[0.0, 0.0, 0.0], ys=[3.0, 1.0, 2.0])
        assert list(ps.sorted_by_y().ys) == [1.0, 2.0, 3.0]

    def test_sorting_preserves_ids(self):
        ps = PointSet(xs=[3.0, 1.0], ys=[0.0, 0.0], ids=[100, 200])
        assert list(ps.sorted_by_x().ids) == [200, 100]

    def test_sample(self, rng):
        ps = PointSet(xs=np.arange(100, dtype=float), ys=np.zeros(100))
        sampled = ps.sample(10, rng)
        assert len(sampled) == 10
        assert len(set(sampled.ids.tolist())) == 10

    def test_sample_too_many_raises(self, rng):
        ps = PointSet(xs=[1.0], ys=[2.0])
        with pytest.raises(ValueError):
            ps.sample(2, rng)

    def test_scaled_fraction(self, rng):
        ps = PointSet(xs=np.arange(200, dtype=float), ys=np.zeros(200))
        half = ps.scaled(0.5, rng)
        assert len(half) == 100

    def test_scaled_invalid_fraction(self, rng):
        ps = PointSet(xs=[1.0], ys=[2.0])
        with pytest.raises(ValueError):
            ps.scaled(0.0, rng)
        with pytest.raises(ValueError):
            ps.scaled(1.5, rng)

    def test_normalized_domain(self):
        ps = PointSet(xs=[-5.0, 5.0], ys=[0.0, 20.0])
        normalized = ps.normalized(domain=100.0)
        assert normalized.xs.min() == pytest.approx(0.0)
        assert normalized.xs.max() == pytest.approx(100.0)
        assert normalized.ys.max() == pytest.approx(100.0)

    def test_normalized_degenerate_axis(self):
        ps = PointSet(xs=[2.0, 2.0], ys=[1.0, 3.0])
        normalized = ps.normalized(domain=10.0)
        assert np.all(np.isfinite(normalized.xs))

    def test_normalized_empty_is_noop(self):
        ps = PointSet.empty()
        assert len(ps.normalized()) == 0

    def test_bounds(self):
        ps = PointSet(xs=[1.0, 5.0], ys=[-2.0, 4.0])
        assert ps.bounds() == (1.0, -2.0, 5.0, 4.0)

    def test_bounds_empty_raises(self):
        with pytest.raises(ValueError):
            PointSet.empty().bounds()

    def test_nbytes_positive(self):
        ps = PointSet(xs=[1.0, 2.0], ys=[3.0, 4.0])
        assert ps.nbytes() > 0
