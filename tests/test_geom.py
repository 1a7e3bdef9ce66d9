import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headway_sim import geom
from headway_sim.geom import (
    Polygon,
    Vec2,
    min_distance_to_segments,
    segments_meet,
    triangle_contains,
)


def point_segment_distance(z, a, b):
    """Distance from the point ``z`` to the closed segment ``a``-``b``."""
    return float(min_distance_to_segments(np.array([z], dtype=float),
                                          np.array([a], dtype=float),
                                          np.array([b], dtype=float))[0])


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


class TestPointSegmentDistance:
    def test_perpendicular_drop(self):
        assert point_segment_distance((0, 1), (0, 0), (1, 0)) == 1

    def test_beyond_endpoint(self):
        assert point_segment_distance((2, 0), (0, 0), (1, 0)) == 1

    def test_on_segment(self):
        assert point_segment_distance((0.5, 0), (0, 0), (1, 0)) == 0

    def test_degenerate_segment(self):
        assert point_segment_distance((3, 4), (0, 0), (0, 0)) == 5


def T(*vertices):
    return np.array(vertices, dtype=float)


def _barycentric_contains(t, p: Vec2) -> bool:
    # brute-force oracle via barycentric coordinates
    v0, v1, v2 = (Vec2(*v) for v in t)
    d = (v1 - v0).cross(v2 - v0)
    s = (p - v0).cross(v2 - v0) / d
    u = (v1 - v0).cross(p - v0) / d
    return s >= 0 and u >= 0 and s + u <= 1


def contains(t, p: Vec2) -> bool:
    return bool(triangle_contains(t, [[p.x, p.y]])[0])


class TestTriangleContains:
    tri = T((0, 0), (1, 0), (0, 1))

    def test_interior_point(self):
        assert contains(self.tri, Vec2(0.25, 0.25))

    def test_outside_hypotenuse(self):
        assert not contains(self.tri, Vec2(1, 1))

    def test_degenerate_collinear_hull(self):
        degenerate = T((0, 0), (1, 0), (2, 0))
        inside = triangle_contains(degenerate, [[1.5, 0], [1.5, 1e-12], [2.5, 0]])
        assert inside.tolist() == [True, False, False]
        # on the segment, though its rounded distance to it is not zero
        vertical = T((0.5, 0), (0.5, 1.8), (0.5, 0.9))
        assert contains(vertical, Vec2(0.5, 0.18000000000000002))
        # area zero as computed, though the middle vertex rounds off the
        # line of the outer two; every vertex still belongs
        flat = np.array([[4.682635074840451, 1.918703982633359],
                         [2.5926850053957997, 0.9698773052375644],
                         [6.769607577104927, 2.8661788597083744]])
        assert triangle_contains(flat, flat).all()

    def test_vertices_and_edges_included(self):
        assert contains(self.tri, Vec2(0, 0))
        assert contains(self.tri, Vec2(0.5, 0.5))

    def test_agrees_with_barycentric_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t = rng.uniform(-3, 3, (3, 2))
            pts = rng.uniform(-3, 3, (10, 2))
            inside = triangle_contains(t, pts)
            assert inside.shape == (10,)
            for p, got in zip(pts, inside):
                assert got == _barycentric_contains(t, Vec2(*p))

    def test_clockwise_triangle(self):
        cw = T((0, 0), (0, 1), (1, 0))
        assert contains(cw, Vec2(0.25, 0.25))
        assert not contains(cw, Vec2(1, 1))


def _meet_exact(a, b, c, d) -> bool:
    """Closed intersection of segments ab and cd in rational arithmetic,
    from the parametric form a + t (b - a) = c + u (d - c)."""
    a, b, c, d = ([Fraction(v) for v in p] for p in (a, b, c, d))
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    q = (c[0] - a[0], c[1] - a[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom != 0:
        t = (q[0] * s[1] - q[1] * s[0]) / denom
        u = (q[0] * r[1] - q[1] * r[0]) / denom
        return 0 <= t <= 1 and 0 <= u <= 1
    if q[0] * r[1] - q[1] * r[0] != 0 or q[0] * s[1] - q[1] * s[0] != 0:
        return False  # parallel lines, or a point off the other's line
    # on one line (or points): the bounding boxes overlap on both axes
    return all(max(min(a[k], b[k]), min(c[k], d[k])) <= min(max(a[k], b[k]), max(c[k], d[k]))
               for k in (0, 1))


_grid_points = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6)


class TestSegmentsMeet:
    @settings(max_examples=300, deadline=None)
    @given(pts=_grid_points, ring=_grid_points, data=st.data())
    def test_matches_rational_predicate(self, pts, ring, data):
        # on a small integer grid every orientation is exact in floats, so
        # the predicate must agree with rational arithmetic, degenerate and
        # collinear segments included
        index = st.integers(0, len(pts) - 1)
        start = data.draw(st.lists(index, min_size=1, max_size=6))
        end = data.draw(st.lists(index, min_size=len(start), max_size=len(start)))
        nxt = np.roll(np.arange(len(ring)), -1)
        meet = segments_meet(np.array(pts, dtype=float), np.array(start), np.array(end),
                             np.array(ring, dtype=float), nxt)
        assert meet.shape == (len(start), len(ring))
        for i, (s, e) in enumerate(zip(start, end)):
            for j in range(len(ring)):
                assert meet[i, j] == _meet_exact(pts[s], pts[e], ring[j], ring[nxt[j]])


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

    def test_rejects_vertex_on_other_edge(self):
        # the notch tip (2, 0) touches the bottom edge without crossing it
        with pytest.raises(ValueError, match="simple"):
            Polygon([Vec2(*p) for p in
                     [(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)]])

    def test_rejects_collinear_overlap(self):
        # the slot floor (3, 0) -> (1, 0) runs back along the bottom edge
        with pytest.raises(ValueError, match="simple"):
            Polygon([Vec2(*p) for p in
                     [(0, 0), (4, 0), (4, 3), (3, 3), (3, 0), (1, 0), (1, 3), (0, 3)]])

    def test_accepts_star_outline(self):
        # the outline of the benchmark's cluttered-scene obstacles
        phi = np.arange(96) * (2.0 * math.pi / 96)
        radius = 1.0 + 0.04 * np.cos(2 * phi + 0.3) + 0.03 * np.cos(5 * phi + 1.1)
        star = Polygon([Vec2(float(r * math.cos(p)), float(r * math.sin(p)))
                        for r, p in zip(radius, phi)])
        assert len(star.vertices) == 96

    def test_rejects_touch_in_last_block(self):
        # a long bottom edge in unit steps, then a pinch: vertex 87 lies on
        # the closing edge 89, and both sit in the last block of rows
        def outline(pinch_x):
            return ([Vec2(k, 0) for k in range(85)]
                    + [Vec2(*p) for p in [(84, 10), (10, 10), (pinch_x, 5), (5, 8), (0, 10)]])
        n = len(outline(0))
        rows = geom._BLOCK_PAIRS // n
        assert n * n > geom._BLOCK_PAIRS and 87 >= (n - 1) // rows * rows
        Polygon(outline(0.5))
        with pytest.raises(ValueError, match="simple"):
            Polygon(outline(0))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated"):
            Polygon([Vec2(0, 0), Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)])

    def test_underflowing_edge_is_not_called_a_repeat(self):
        # the vertices differ, but the edge length 1e-200 squares to 0
        with pytest.raises(ValueError, match=r"^polygon has consecutive vertices whose "
                           r"distance squares to 0; lengths must be at least about 2.2e-162 m$"):
            Polygon([Vec2(0, 0), Vec2(1e-200, 0), Vec2(1e-200, 1e-200)])

    @pytest.mark.parametrize("x, y, size", [(0.0, 0.0, 1e200), (1e160, 1e160, 1e145)],
                             ids=["large", "far"])
    def test_overflowing_coordinates_refused(self, x, y, size):
        # both were accepted while numpy warned of overflow: the large
        # one's area and orientation products overflowed to inf, and the far
        # small one's area came out NaN, which passed the orientation test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^polygon coordinates overflow: the "
                               r"bounding-box diagonal \(origin included\) 1.41e\+\d+ m "
                               r"squares to infinity$"):
                Polygon([Vec2(x, y), Vec2(x + size, y), Vec2(x, y + size)])

    def test_equality(self):
        assert unit_square() == unit_square()
        assert unit_square() != Polygon([Vec2(0, 0), Vec2(2, 0), Vec2(0, 2)])


def _scalar_distance(z, a, b) -> float:
    """Point-segment distance, one pair at a time in Python floats."""
    (zx, zy), (ax, ay), (bx, by) = z, a, b
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    t = 0.0 if len2 == 0.0 else min(1.0, max(0.0, ((zx - ax) * dx + (zy - ay) * dy) / len2))
    return math.hypot(zx - (ax + t * dx), zy - (ay + t * dy))


class TestBatchHelpers:
    def test_min_distance_matches_scalar(self):
        rng = np.random.default_rng(8)
        seg_a = rng.uniform(-4, 4, (7, 2))
        seg_b = rng.uniform(-4, 4, (7, 2))
        pts = rng.uniform(-4, 4, (50, 2))
        batched = min_distance_to_segments(pts, seg_a, seg_b)
        for i, z in enumerate(pts):
            scalar = min(_scalar_distance(z, a, b) for a, b in zip(seg_a, seg_b))
            assert abs(batched[i] - scalar) <= 1e-12

        # several full blocks and a partial last one match the unblocked matrix
        seg_a = rng.uniform(-4, 4, (100, 2))
        seg_b = rng.uniform(-4, 4, (100, 2))
        rows = geom._BLOCK_PAIRS // 100
        pts = rng.uniform(-4, 4, (3 * rows + rows // 2, 2))
        whole = geom._point_segment_distance_matrix(pts, seg_a, seg_b).min(axis=1)
        assert np.array_equal(min_distance_to_segments(pts, seg_a, seg_b), whole)


def _einsum_distance_matrix(pts, a, b):
    """The point-segment distance matrix as the kernel computed it before
    the split-coordinate grid: 3-D differences reduced by ``einsum``."""
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    safe = np.where(len2 > 0.0, len2, 1.0)
    diff = pts[:, None, :] - a[None, :, :]
    t = np.einsum("nmj,mj->nm", diff, d) / safe[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    t[:, len2 == 0.0] = 0.0
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    delta = pts[:, None, :] - closest
    return np.sqrt(np.einsum("nmj,nmj->nm", delta, delta))


_coord = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_xy = st.tuples(_coord, _coord)


class TestDistanceKernel:
    @settings(max_examples=300, deadline=None)
    @given(pts=st.lists(_xy, min_size=1, max_size=5), seg_a=st.lists(_xy, min_size=1, max_size=5),
           data=st.data(), k=st.integers(-10, 10))
    def test_bit_identical_to_einsum_formula(self, pts, seg_a, data, k):
        # zero-length segments and points on segment ends come from reusing
        # drawn points; scaling by 2^k is exact, so it moves no rounding
        pool = pts + seg_a
        seg_b = data.draw(st.lists(st.sampled_from(pool), min_size=len(seg_a),
                                   max_size=len(seg_a)))
        f = math.ldexp(1.0, k)
        p, a, b = (f * np.array(v, dtype=float) for v in (pts, seg_a, seg_b))
        got = geom._point_segment_distance_matrix(p, a, b)
        assert got.shape == (len(pts), len(seg_a))
        assert np.array_equal(got, _einsum_distance_matrix(p, a, b))

    def test_degenerate_cases_bit_identical(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 3.0], [5e-7, 5e-7]])
        b = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 3.0], [1e6, -1e6]])
        pts = np.vstack([a, b, [[2.0, 1.0], [1e-6, -1e-6], [-1e6, 1e6]]])
        for k in range(-10, 11):
            f = math.ldexp(1.0, k)
            assert np.array_equal(geom._point_segment_distance_matrix(f * pts, f * a, f * b),
                                  _einsum_distance_matrix(f * pts, f * a, f * b))
