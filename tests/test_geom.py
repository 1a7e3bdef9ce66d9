import math

import numpy as np
import pytest

from headway_sim import geom
from headway_sim.geom import (
    Polygon,
    Segment,
    Triangle,
    Vec2,
    min_distance_to_segments,
    point_segment_distance,
    rotate,
    triangle_contains,
)


def S(ax, ay, bx, by):
    return Segment(Vec2(ax, ay), Vec2(bx, by))


def unit_square():
    return Polygon([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])


class TestVec2:
    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Vec2(bad, 0.0)
            with pytest.raises(ValueError):
                Vec2(0.0, bad)

    def test_algebra(self):
        a, b = Vec2(1, 2), Vec2(3, -1)
        assert a + b == Vec2(4, 1)
        assert a - b == Vec2(-2, 3)
        assert 2 * a == Vec2(2, 4)
        assert a.dot(b) == 1
        assert a.cross(b) == -7
        assert Vec2(3, 4).norm() == 5
        assert Vec2(1, 0).perp() == Vec2(0, 1)

    def test_point_distance_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = Vec2(*rng.uniform(-5, 5, 2))
            b = Vec2(*rng.uniform(-5, 5, 2))
            c = Vec2(*rng.uniform(-5, 5, 2))
            assert (a - c).norm() <= (a - b).norm() + (b - c).norm() + 1e-9


class TestRotate:
    def test_basis_vector(self):
        r = rotate(Vec2(1, 0), math.pi / 2)
        assert abs(r.x) < 1e-12 and abs(r.y - 1) < 1e-12

    def test_zero_vector_fixed(self):
        assert rotate(Vec2(0, 0), 1.3) == Vec2(0, 0)

    def test_point_reflection(self):
        r = rotate(Vec2(1, 1), math.pi)
        assert abs(r.x + 1) < 1e-12 and abs(r.y + 1) < 1e-12

    def test_roundtrip_preserves_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            a = rng.uniform(-10, 10)
            back = rotate(rotate(v, a), -a)
            assert abs(back.x - v.x) <= 1e-12 * max(1, abs(v.x))
            assert abs(back.y - v.y) <= 1e-12 * max(1, abs(v.y))
            assert abs(rotate(v, a).norm() - v.norm()) <= 1e-12 * max(1.0, v.norm())

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            rotate(Vec2(1, 0), math.nan)


class TestPointSegmentDistance:
    def test_perpendicular_drop(self):
        assert point_segment_distance(Vec2(0, 1), S(0, 0, 1, 0)) == 1

    def test_beyond_endpoint(self):
        assert point_segment_distance(Vec2(2, 0), S(0, 0, 1, 0)) == 1

    def test_on_segment(self):
        assert point_segment_distance(Vec2(0.5, 0), S(0, 0, 1, 0)) == 0

    def test_degenerate_segment(self):
        assert point_segment_distance(Vec2(3, 4), S(0, 0, 0, 0)) == 5


def _barycentric_contains(t: Triangle, p: Vec2) -> bool:
    # brute-force oracle via barycentric coordinates
    d = (t.v1 - t.v0).cross(t.v2 - t.v0)
    s = (p - t.v0).cross(t.v2 - t.v0) / d
    u = (t.v1 - t.v0).cross(p - t.v0) / d
    return s >= 0 and u >= 0 and s + u <= 1


def contains(t: Triangle, p: Vec2) -> bool:
    return bool(triangle_contains(t.vertex_array(), [[p.x, p.y]])[0])


class TestTriangleContains:
    tri = Triangle(Vec2(0, 0), Vec2(1, 0), Vec2(0, 1))

    def test_interior_point(self):
        assert contains(self.tri, Vec2(0.25, 0.25))

    def test_outside_hypotenuse(self):
        assert not contains(self.tri, Vec2(1, 1))

    def test_degenerate_collinear_hull(self):
        degenerate = Triangle(Vec2(0, 0), Vec2(1, 0), Vec2(2, 0))
        inside = triangle_contains(degenerate.vertex_array(),
                                   [[1.5, 0], [1.5, 1e-12], [2.5, 0]])
        assert inside.tolist() == [True, False, False]

    def test_vertices_and_edges_included(self):
        assert contains(self.tri, Vec2(0, 0))
        assert contains(self.tri, Vec2(0.5, 0.5))

    def test_agrees_with_barycentric_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = Triangle(Vec2(*rng.uniform(-3, 3, 2)), Vec2(*rng.uniform(-3, 3, 2)),
                         Vec2(*rng.uniform(-3, 3, 2)))
            pts = rng.uniform(-3, 3, (10, 2))
            inside = triangle_contains(t.vertex_array(), pts)
            assert inside.shape == (10,)
            for p, got in zip(pts, inside):
                assert got == _barycentric_contains(t, Vec2(*p))

    def test_clockwise_triangle(self):
        cw = Triangle(Vec2(0, 0), Vec2(0, 1), Vec2(1, 0))
        assert contains(cw, Vec2(0.25, 0.25))
        assert not contains(cw, Vec2(1, 1))


class TestPolygon:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon([Vec2(0, 0), Vec2(1, 0)])

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            Polygon([Vec2(0, 0), Vec2(0, 1), Vec2(1, 1), Vec2(1, 0)])

    def test_rejects_self_intersection(self):
        # positive signed area but one edge crosses another
        with pytest.raises(ValueError, match="simple"):
            Polygon([Vec2(0, 0), Vec2(3, 0), Vec2(1, 2), Vec2(2, -1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated"):
            Polygon([Vec2(0, 0), Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)])

    def test_equality(self):
        assert unit_square() == unit_square()
        assert unit_square() != Polygon([Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)])


class TestBatchHelpers:
    def test_min_distance_matches_scalar(self):
        rng = np.random.default_rng(8)
        seg_a = rng.uniform(-4, 4, (7, 2))
        seg_b = rng.uniform(-4, 4, (7, 2))
        pts = rng.uniform(-4, 4, (50, 2))
        batched = min_distance_to_segments(pts, seg_a, seg_b)
        for i, (px, py) in enumerate(pts):
            scalar = min(point_segment_distance(
                Vec2(px, py), Segment(Vec2(*a), Vec2(*b)))
                for a, b in zip(seg_a, seg_b))
            assert abs(batched[i] - scalar) <= 1e-12

        # several full blocks and a partial last one match the unblocked matrix
        seg_a = rng.uniform(-4, 4, (100, 2))
        seg_b = rng.uniform(-4, 4, (100, 2))
        rows = geom._BLOCK_PAIRS // 100
        pts = rng.uniform(-4, 4, (3 * rows + rows // 2, 2))
        whole = geom._point_segment_distance_matrix(pts, seg_a, seg_b).min(axis=1)
        assert np.array_equal(min_distance_to_segments(pts, seg_a, seg_b), whole)
