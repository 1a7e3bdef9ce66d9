import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from headway_sim.environment import (
    _NEAR_EDGES,
    Environment,
    ReferencePath,
    _signed_distances,
    margin_points,
    path_clearance,
    safety_distance,
)
from headway_sim.geom import Polygon, Vec2
from headway_sim.ode import SimConfig
from headway_sim.prediction import Disk, PredictionSet, Tri
from headway_sim.scenario import scenario_from_dict
from headway_sim.simulation import METHODS, prediction_set
from headway_sim.unicycle import ControllerParams, UnicycleState
from test_geom import _einsum_distance_matrix

ROOT = Path(__file__).resolve().parent.parent


def square(side, x0=0.0, y0=0.0):
    return Polygon([Vec2(x0, y0), Vec2(x0 + side, y0),
                    Vec2(x0 + side, y0 + side), Vec2(x0, y0 + side)])


@pytest.fixture
def empty_env():
    return Environment(square(10), [], robot_radius=1.0)


@pytest.fixture
def obstacle_env():
    return Environment(square(10), [square(2, 4, 4)], robot_radius=0.5)


class TestEnvironmentValidation:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="robot_radius"):
            Environment(square(10), [], robot_radius=0.0)

    def test_rejects_obstacle_outside_bbox(self):
        with pytest.raises(ValueError, match="bounding box"):
            Environment(square(10), [square(2, 11, 0)], robot_radius=0.5)

    def test_equality(self, empty_env):
        assert empty_env == Environment(square(10), [], robot_radius=1.0)
        assert empty_env != Environment(square(10), [], robot_radius=0.5)


def margin_at(env, x, y):
    return float(margin_points(env, [[x, y]])[0])


class TestFreeSpaceMargin:
    def test_center_of_empty_square(self, empty_env):
        assert margin_at(empty_env, 5, 5) == pytest.approx(4.0, abs=1e-12)

    def test_on_workspace_boundary(self, empty_env):
        assert margin_at(empty_env, 0, 5) == pytest.approx(-1.0, abs=1e-12)

    def test_inside_obstacle_negative(self, obstacle_env):
        # 1 m deep inside the obstacle, minus the 0.5 m radius
        assert margin_at(obstacle_env, 5, 5) == pytest.approx(-1.5, abs=1e-12)

    def test_outside_workspace_negative(self, empty_env):
        assert margin_at(empty_env, 12, 5) < 0

    def test_near_obstacle(self, obstacle_env):
        # 1 m from the obstacle face, minus the 0.5 m radius
        assert margin_at(obstacle_env, 3, 5) == pytest.approx(0.5, abs=1e-12)
        # on the obstacle face
        assert margin_at(obstacle_env, 4, 5) == pytest.approx(-0.5, abs=1e-12)

    def test_batch_matches_scalar(self, obstacle_env):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-1, 11, (100, 2))
        batch = margin_points(obstacle_env, pts)
        for (x, y), m in zip(pts, batch):
            assert m == margin_at(obstacle_env, x, y)


class TestSafetyDistance:
    def test_disk_margin_minus_radius(self, empty_env):
        assert safety_distance(empty_env, Disk(Vec2(5, 5), 1.0)) == \
            pytest.approx(3.0, abs=1e-12)

    def test_zero_when_set_exits_free_space(self, obstacle_env):
        # disk overlapping the inflated obstacle
        assert safety_distance(obstacle_env, Disk(Vec2(3.8, 5), 0.5)) == 0.0

    def test_point_set_equals_clamped_margin(self, obstacle_env):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = Vec2(rng.uniform(0, 10), rng.uniform(0, 10))
            m = margin_at(obstacle_env, p.x, p.y)
            expected = max(m, 0.0)
            assert safety_distance(obstacle_env, Disk(p, 0.0)) == expected
            point = PredictionSet(np.array([[p.x, p.y]]), 0.0)
            assert safety_distance(obstacle_env, point) == expected

    def test_triangle_clear_of_obstacle(self, obstacle_env):
        tri = Tri([[1, 1], [2.5, 1], [1, 2.5]])
        d = safety_distance(obstacle_env, tri)
        # nearest features: workspace walls at distance 1, minus radius
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_triangle_crossing_obstacle_is_zero(self, obstacle_env):
        tri = Tri([[3, 5], [7, 5], [5, 8]])
        assert safety_distance(obstacle_env, tri) == 0.0

    def test_triangle_swallowing_obstacle_is_zero(self, obstacle_env):
        # every vertex has positive margin and every edge passes the obstacle
        # more than the robot radius away, so only the containment probe can
        # return zero
        tri = Tri([[1.3, 2.85], [8.7, 2.85], [5, 9.3]])
        assert margin_points(obstacle_env, tri.points).min() > 0.0
        assert safety_distance(obstacle_env, tri) == 0.0

    def test_degenerate_triangle(self, obstacle_env):
        tri = Tri([[1, 1], [2, 1], [3, 1]])
        assert safety_distance(obstacle_env, tri) == pytest.approx(0.5, abs=1e-12)

    def test_hull_uses_padding(self, empty_env):
        hull = PredictionSet(np.array([[5.0, 5.0], [6.0, 5.0]]), 0.25)
        assert safety_distance(empty_env, hull) == pytest.approx(3.0 - 0.25, abs=1e-12)

    def test_unfilled_set_is_its_padded_points(self, obstacle_env):
        # the segment between the points crosses the obstacle; the set does not
        pair = PredictionSet(np.array([[3.0, 5.0], [7.0, 5.0]]), 0.0)
        assert safety_distance(obstacle_env, pair) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_under_disk_nesting(self, obstacle_env):
        rng = np.random.default_rng(43)
        for _ in range(100):
            c = Vec2(rng.uniform(0, 10), rng.uniform(0, 10))
            r_small = rng.uniform(0, 1)
            r_big = r_small + rng.uniform(0, 1)
            assert (safety_distance(obstacle_env, Disk(c, r_small))
                    >= safety_distance(obstacle_env, Disk(c, r_big)))


def _lshape(f):
    """A nonconvex scene scaled by ``f``, and a path through it."""
    def poly(*xy):
        return Polygon([Vec2(f * x, f * y) for x, y in xy])

    ws = poly((0, 0), (10, 0), (10, 6), (6, 6), (6, 10), (0, 10))
    obstacles = [poly((2, 2), (3.5, 2), (3.5, 3.5), (2, 3.5)),
                 poly((7, 1), (8.5, 1.8), (7.5, 3.2))]
    env = Environment(ws, obstacles, robot_radius=0.4 * f)
    path = ReferencePath([Vec2(f * x, f * y) for x, y in ((1, 1), (1, 8), (5, 4.6), (9, 4.5))])
    return env, path


class TestClearanceNeverOverReported:
    """The governor trusts these clearances; an over-report would let the
    path parameter advance while the predicted motion can reach an obstacle,
    so compare against a dense sampling oracle in a nonconvex scene."""

    @pytest.fixture
    def lshape_env(self):
        return _lshape(1.0)[0]

    @staticmethod
    def _triangle_samples(rng, v):
        r1 = rng.random((200, 1))
        r2 = rng.random((200, 1))
        flip = (r1 + r2) > 1
        r1 = np.where(flip, 1 - r1, r1)
        r2 = np.where(flip, 1 - r2, r2)
        interior = v[0] + r1 * (v[1] - v[0]) + r2 * (v[2] - v[0])
        line = np.linspace(0, 1, 50)[:, None]
        edges = np.vstack([v[0] + line * (v[1] - v[0]),
                           v[1] + line * (v[2] - v[1]),
                           v[2] + line * (v[0] - v[2])])
        return np.vstack([interior, edges, v])

    def test_triangle_clearance_bounded_by_sampling(self, lshape_env):
        rng = np.random.default_rng(78)
        for i in range(400):
            c = rng.uniform(-1, 11, 2)
            v = c + rng.uniform(-2.5, 2.5, (3, 2))
            if i % 7 == 0:
                v[2] = v[0] + rng.random() * (v[1] - v[0])  # collinear
            fast = safety_distance(lshape_env, Tri(v))
            pts = self._triangle_samples(rng, v)
            sampled = max(0.0, float(margin_points(lshape_env, pts).min()))
            assert fast <= sampled + 1e-12
            # no gross conservatism either, up to the sampling density
            diam = max(np.linalg.norm(v[0] - v[1]), np.linalg.norm(v[1] - v[2]),
                       np.linalg.norm(v[0] - v[2]))
            assert fast >= sampled - 2.5 * diam / 50 - 1e-12

    def test_path_clearance_bounded_by_sampling(self, lshape_env):
        rng = np.random.default_rng(80)
        for _ in range(300):
            pts = [Vec2(*rng.uniform(-1, 11, 2))]
            for _ in range(rng.integers(1, 4)):
                pts.append(pts[-1] + Vec2(*rng.uniform(-3, 3, 2)))
            path = ReferencePath(pts)
            exact = path_clearance(lshape_env, path)
            reverse = path_clearance(lshape_env, ReferencePath(pts[::-1]))
            assert exact == pytest.approx(reverse, abs=1e-12)
            h = 1e-3
            s = np.linspace(0, path.length, int(path.length / h) + 2)
            xy = [(p.x, p.y) for p in map(path.point_at, s)]
            sampled = float(margin_points(lshape_env, np.array(xy)).min())
            if sampled <= 0.0:
                assert exact <= 0.0
            if exact > 0.0:
                # margins are 1-Lipschitz, so samples h apart overshoot by h/2
                assert sampled - h / 2 - 1e-12 <= exact <= sampled + 1e-12

    def test_disk_clearance_bounded_by_sampling(self, lshape_env):
        rng = np.random.default_rng(79)
        for _ in range(200):
            c = Vec2(rng.uniform(-1, 11), rng.uniform(-1, 11))
            r = rng.uniform(0, 2.5)
            fast = safety_distance(lshape_env, Disk(c, r))
            ang = rng.uniform(0, 2 * np.pi, 300)
            rad = np.sqrt(rng.random(300)) * r
            pts = np.column_stack([c.x + rad * np.cos(ang), c.y + rad * np.sin(ang)])
            ring = np.column_stack([c.x + r * np.cos(ang), c.y + r * np.sin(ang)])
            samples = np.vstack([pts, ring, [[c.x, c.y]]])
            sampled = max(0.0, float(margin_points(lshape_env, samples).min()))
            assert fast <= sampled + 1e-12


class TestScaleEquivariance:
    """Scaling a scene by a power of two is exact in floating point, so
    every clearance must scale exactly with it."""

    @given(k=st.integers(-10, 10), method=st.sampled_from(METHODS),
           dx=st.floats(-1.5, 1.5), dy=st.floats(-1.5, 1.5), th=st.floats(-3.2, 3.2),
           s=st.floats(0.0, 1.0), eps=st.floats(0.3, 0.8))
    @settings(max_examples=150, deadline=None)
    def test_safety_distance_and_path_clearance(self, k, method, dx, dy, th, s, eps):
        def clearances(f):
            env, path = _lshape(f)
            goal = path.point_at(s * path.length)
            params = ControllerParams(headway_coeff=eps, goal_tolerance=1e-4 * f)
            config = SimConfig(step=0.02, goal_tolerance=2e-4 * f)
            state = UnicycleState(goal + Vec2(f * dx, f * dy), th)
            pred = prediction_set(method, state, goal, params, config)
            return safety_distance(env, pred), path_clearance(env, path)

        f = math.ldexp(1.0, k)
        base = clearances(1.0)
        assert clearances(f) == (f * base[0], f * base[1])


def _reference_meet(pts, start, end, edge_a, next_edge):
    """The closed segment-intersection grid as composed before the shared
    displacement grid: orientations from coordinate differences."""
    ex0, ey0 = edge_a[:, 0], edge_a[:, 1]
    edge_b = edge_a[next_edge]
    ex1, ey1 = edge_b[:, 0], edge_b[:, 1]
    px, py = pts[:, 0, None], pts[:, 1, None]
    o_pts = (ex1 - ex0) * (py - ey0) - (ey1 - ey0) * (px - ex0)
    a, b = pts[start], pts[end]
    ax, ay, bx, by = a[:, 0, None], a[:, 1, None], b[:, 0, None], b[:, 1, None]
    o_edge = (bx - ax) * (ey0 - ay) - (by - ay) * (ex0 - ax)
    pos_pts, pos_edge = o_pts > 0, o_edge > 0
    meet = (pos_pts[start] != pos_pts[end]) & (pos_edge != pos_edge[:, next_edge])
    on_edge = ((o_pts == 0) & (np.minimum(ex0, ex1) <= px) & (px <= np.maximum(ex0, ex1))
               & (np.minimum(ey0, ey1) <= py) & (py <= np.maximum(ey0, ey1)))
    on_seg = ((o_edge == 0) & (np.minimum(ax, bx) <= ex0) & (ex0 <= np.maximum(ax, bx))
              & (np.minimum(ay, by) <= ey0) & (ey0 <= np.maximum(ay, by)))
    return meet | on_edge[start] | on_edge[end] | on_seg | on_seg[:, next_edge]


class _Reference:
    """Clearances as composed before the shared displacement grid: one
    distance matrix per direction, a separate triangle-containment probe
    and a separate intersection test, each from its own differences."""

    NEXT = np.array([1, 2, 0])

    def __init__(self, env):
        polys = (env.workspace,) + env.obstacles
        counts = [len(p.xy) for p in polys]
        self.env = env
        self.edge_a = np.vstack([p.xy for p in polys])
        self.starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        self.next = np.concatenate([o + (np.arange(c) + 1) % c
                                    for o, c in zip(self.starts, counts)])
        self.edge_b = self.edge_a[self.next]

    def margins(self, pts, dist):
        dmin = np.minimum.reduceat(dist, self.starts, axis=1)
        x, y = pts[:, 0][:, None], pts[:, 1][:, None]
        x0, y0 = self.edge_a[:, 0][None, :], self.edge_a[:, 1][None, :]
        x1, y1 = self.edge_b[:, 0][None, :], self.edge_b[:, 1][None, :]
        straddle = (y0 <= y) != (y1 <= y)
        xint = x0 + (y - y0) * (x1 - x0) / np.where(y1 - y0 == 0.0, 1.0, y1 - y0)
        crossings = np.add.reduceat(straddle & (x < xint), self.starts, axis=1)
        signed = np.where((crossings % 2) == 1, -dmin, dmin)
        signed[:, 0] = -signed[:, 0]
        return signed.min(axis=1) - self.env.robot_radius

    def segments_to_boundary(self, pts, dist, start, end):
        if _reference_meet(pts, start, end, self.edge_a, self.next).any():
            return 0.0
        d_rev = _einsum_distance_matrix(self.edge_a, pts[start], pts[end])
        return min(float(dist.min()), float(d_rev.min()))

    def triangle_contains(self, verts):
        (x0, y0), (x1, y1), (x2, y2) = verts.tolist()
        area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        pts = self.edge_a
        if area2 == 0.0:
            return _reference_meet(pts, slice(None), slice(None), verts, self.NEXT).any()
        edge = verts[self.NEXT] - verts
        cross = (edge[:, 0, None] * (pts[None, :, 1] - verts[:, 1, None])
                 - edge[:, 1, None] * (pts[None, :, 0] - verts[:, 0, None]))
        if area2 < 0.0:
            cross = -cross
        return (cross >= 0.0).all(axis=0).any()

    def safety_distance(self, pred):
        pts = pred.points
        dist = _einsum_distance_matrix(pts, self.edge_a, self.edge_b)
        margin = float(self.margins(pts, dist).min()) - pred.padding
        if not pred.filled or margin <= 0.0:
            return max(0.0, margin)
        if self.triangle_contains(pts):
            return 0.0
        edge_clearance = (self.segments_to_boundary(pts, dist, slice(None), self.NEXT)
                          - self.env.robot_radius - pred.padding)
        return max(0.0, min(margin, edge_clearance))

    def path_clearance(self, path):
        pts = path._xy
        dist = _einsum_distance_matrix(pts, self.edge_a, self.edge_b)
        vertex_margin = float(self.margins(pts, dist).min())
        edge_distance = self.segments_to_boundary(pts, dist, slice(None, -1), slice(1, None))
        return min(vertex_margin, edge_distance - self.env.robot_radius)


def _tri(*xy):
    return Tri(np.array(xy, dtype=float))


# half-metre lattice points, so orientations against the axis-aligned walls
# and the lattice-aligned obstacle edges are often exactly zero
_lattice = st.tuples(st.integers(-2, 22), st.integers(-2, 22)).map(
    lambda p: (p[0] / 2.0, p[1] / 2.0))


class TestClearancesMatchReference:
    """The grid clearances equal the separate-pass composition exactly."""

    @pytest.fixture(scope="class")
    def scenes(self):
        envs = (_lshape(1.0)[0], Environment(square(10), [square(2, 4, 4)], robot_radius=0.5))
        return [(env, _Reference(env)) for env in envs]

    def test_random_and_collinear_triangles(self, scenes):
        rng = np.random.default_rng(90)
        for env, ref in scenes:
            for i in range(600):
                v = rng.uniform(-1, 11, 2) + rng.uniform(-3, 3, (3, 2))
                if i % 3 == 0:
                    v[2] = v[0] + rng.random() * (v[1] - v[0])  # collinear
                pred = _tri(*v)
                assert safety_distance(env, pred) == ref.safety_distance(pred)

    @settings(max_examples=400, deadline=None)
    @given(v=st.lists(_lattice, min_size=3, max_size=3))
    def test_lattice_triangles(self, scenes, v):
        # vertices on wall lines and boundary vertices on triangle edges take
        # the zero-orientation branch; repeated lattice points give collinear
        # and point triangles
        for env, ref in scenes:
            pred = _tri(*v)
            assert safety_distance(env, pred) == ref.safety_distance(pred)

    def test_branches_taken(self, scenes):
        env, ref = scenes[1]
        cases = {
            # clear, one vertex on the line of the obstacle's bottom face
            "zero orientation": _tri((1, 4), (2, 1.5), (2.5, 2.5)),
            # an edge touching the obstacle only at its corner (4, 4)
            "vertex on edge": _tri((6, 2), (2, 6), (1.5, 1.5)),
            "collinear along a face line": _tri((1, 4), (2, 4), (3, 4)),
            "swallowed obstacle": _tri((1.3, 2.85), (8.7, 2.85), (5, 9.3)),
            "margin <= 0": _tri((0.2, 5), (2, 5), (2, 6)),
        }
        got = {name: safety_distance(env, pred) for name, pred in cases.items()}
        assert got == {name: ref.safety_distance(pred) for name, pred in cases.items()}
        assert got["zero orientation"] > 0.0 and got["collinear along a face line"] > 0.0
        assert got["vertex on edge"] == got["swallowed obstacle"] == got["margin <= 0"] == 0.0

    def test_swallowing_triangles(self, scenes):
        # near-equilateral triangles about the square obstacle, wide enough
        # to hold it whole, with every vertex in free space
        env, ref = scenes[1]
        rng = np.random.default_rng(93)
        for _ in range(200):
            angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi / 3 * np.arange(3)
            angles += rng.uniform(-0.1, 0.1, 3)
            radius = rng.uniform(2.9, 4.3)
            pred = _tri(*(5 + radius * np.column_stack([np.cos(angles), np.sin(angles)])))
            assert safety_distance(env, pred) == ref.safety_distance(pred) == 0.0

    def test_point_sets(self, scenes):
        rng = np.random.default_rng(91)
        params = ControllerParams(headway_coeff=0.5)
        config = SimConfig(step=0.02)
        for env, ref in scenes:
            for _ in range(40):
                goal = Vec2(*rng.uniform(1, 9, 2))
                state = UnicycleState(goal + Vec2(*rng.uniform(-2, 2, 2)), rng.uniform(-3, 3))
                for method in METHODS:
                    pred = prediction_set(method, state, goal, params, config)
                    assert safety_distance(env, pred) == ref.safety_distance(pred)

    def test_path_clearance(self, scenes):
        rng = np.random.default_rng(92)
        for env, ref in scenes:
            for i in range(300):
                if i % 2:
                    pts = [Vec2(*p) for p in rng.integers(0, 21, (int(rng.integers(2, 6)), 2)) / 2]
                else:
                    pts = [Vec2(*p) for p in rng.uniform(-1, 11, (int(rng.integers(2, 6)), 2))]
                try:
                    path = ReferencePath(pts)
                except ValueError:
                    continue  # repeated waypoints
                assert path_clearance(env, path) == ref.path_clearance(path)

    def test_margin_points_in_blocks(self, scenes):
        # several row blocks, lattice points on walls and faces among them
        rng = np.random.default_rng(95)
        for env, ref in scenes:
            pts = np.vstack([rng.uniform(-1, 11, (3000, 2)),
                             rng.integers(-2, 23, (1000, 2)) / 2.0])
            expected = ref.margins(pts, _einsum_distance_matrix(pts, ref.edge_a, ref.edge_b))
            assert np.array_equal(margin_points(env, pts), expected)

    def test_axis_paths_through_boundary_vertices(self, scenes):
        # the vertex's orientation against the path is exactly zero, while
        # the rounded distance to it need not be
        rng = np.random.default_rng(94)
        for env, ref in scenes:
            for vx, vy in ref.edge_a:
                for _ in range(5):
                    lo, hi = -rng.uniform(0.1, 3), rng.uniform(0.1, 3)
                    for path in (ReferencePath([Vec2(vx + lo, vy), Vec2(vx + hi, vy)]),
                                 ReferencePath([Vec2(vx, vy + lo), Vec2(vx, vy + hi)])):
                        assert path_clearance(env, path) == ref.path_clearance(path)


class TestFilledSetTouches:
    """Past the margin gate a filled set's edges get the strict-sign crossing
    test only; each touch that test leaves out must still read 0.0, through
    the swallowed-vertex probe or a distance at rounding level."""

    @pytest.fixture
    def touch_env(self):
        # the obstacle's vertex (0.5, 0.18000000000000002) is exactly on the
        # line x = 0.5, while its rounded distance to a segment along it is not 0
        return Environment(square(20, -10, -10),
                           [Polygon([Vec2(0.5, 0.18000000000000002), Vec2(0.8, 0.1),
                                     Vec2(0.7, 0.5)])],
                           robot_radius=0.01)

    def test_edge_through_a_boundary_vertex(self, obstacle_env, touch_env):
        ref = _Reference(touch_env)
        for pred in (_tri((0.5, 0), (0.5, 1.8), (-0.5, 0.9)),    # obstacle on the right
                     _tri((0.5, 0), (-0.5, 0.9), (0.5, 1.8)),    # clockwise
                     _tri((0.5, 0), (0.5, 1.8), (0.5, 0.9)),     # collinear, no probe
                     _tri((0.5, -1), (0.5, 1.8), (-0.3, 0.9))):  # vertex mid-edge
            assert safety_distance(touch_env, pred) == ref.safety_distance(pred) == 0.0
        # the obstacle corner (4, 4) touches an edge on the line x + y = 8
        for pred in (_tri((6, 2), (2, 6), (1.5, 1.5)), _tri((2, 6), (6, 2), (1.5, 1.5)),
                     _tri((6, 2), (2, 6), (4, 4))):
            assert safety_distance(obstacle_env, pred) == 0.0

    def test_vertex_on_a_boundary_edge(self, obstacle_env, touch_env):
        # (5, 4) is on the obstacle's bottom face, (7, 5) on its line and off it
        assert safety_distance(obstacle_env, _tri((5, 4), (3, 2), (7, 2))) == 0.0
        assert safety_distance(obstacle_env, _tri((5, 4), (7, 2), (3, 2))) == 0.0
        assert safety_distance(obstacle_env, _tri((5, 4), (5, 1), (5, 2))) == 0.0
        assert safety_distance(obstacle_env, _tri((7, 4), (8, 2), (9, 3))) > 0.0
        # a vertex within rounding of the obstacle edge from (0.8, 0.1) to (0.7, 0.5)
        assert safety_distance(touch_env, _tri((0.75, 0.3), (2, 0), (2, 1))) == 0.0

    def test_swallowed_obstacle(self, obstacle_env):
        # every vertex and edge clear, in both vertex orders
        for v in ([(1.3, 2.85), (8.7, 2.85), (5, 9.3)], [(1.3, 2.85), (5, 9.3), (8.7, 2.85)]):
            pred = _tri(*v)
            assert margin_points(obstacle_env, pred.points).min() > 0.0
            assert safety_distance(obstacle_env, pred) == 0.0


class TestReferencePath:
    def test_midpoint(self):
        path = ReferencePath([Vec2(0, 0), Vec2(2, 0)])
        assert path.point_at(1.0) == Vec2(1, 0)

    def test_start(self):
        path = ReferencePath([Vec2(0, 0), Vec2(2, 0)])
        assert path.point_at(0.0) == Vec2(0, 0)

    def test_arc_length_walk(self):
        path = ReferencePath([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1)])
        p = path.point_at(1.5)
        assert p.x == pytest.approx(1.0, abs=1e-12)
        assert p.y == pytest.approx(0.5, abs=1e-12)

    def test_clamps_parameter(self):
        path = ReferencePath([Vec2(0, 0), Vec2(2, 0)])
        assert path.point_at(-1.0) == Vec2(0, 0)
        assert path.point_at(99.0) == Vec2(2, 0)

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError, match="2 waypoints"):
            ReferencePath([Vec2(0, 0)])

    def test_rejects_repeated_waypoints(self):
        with pytest.raises(ValueError, match="repeated"):
            ReferencePath([Vec2(0, 0), Vec2(0, 0), Vec2(1, 0)])

    def test_underflowing_gap_is_not_called_a_repeat(self):
        # the waypoints differ, but the gap 1.2e-274 squares to 0
        with pytest.raises(ValueError, match=r"^path has consecutive waypoints whose "
                           r"distance squares to 0; lengths must be at least about 2.2e-162 m$"):
            ReferencePath([Vec2(0, 0), Vec2(0, 1.2e-274)])

    def test_overflowing_coordinates_refused(self):
        # the length was inf, and point_at(1.0) returned the start
        with pytest.raises(ValueError, match=r"^path coordinates overflow: the bounding-box "
                           r"diagonal \(origin included\) 1e\+200 m squares to infinity$"):
            ReferencePath([Vec2(0, 0), Vec2(1e200, 0)])

    def test_cumulative_lengths_strictly_increasing(self):
        # each waypoint sits at the arc length of the segments before it
        path = ReferencePath([Vec2(0, 0), Vec2(1, 0), Vec2(1, 2)])
        assert path.point_at(1.0) == Vec2(1, 0)
        assert path.point_at(3.0) == Vec2(1, 2)
        assert path.length == pytest.approx(3.0)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(44)
        pts = [Vec2(0, 0)]
        for _ in range(6):
            pts.append(pts[-1] + Vec2(rng.uniform(0.1, 1), rng.uniform(-1, 1)))
        path = ReferencePath(pts)
        for _ in range(500):
            s1, s2 = rng.uniform(0, path.length, 2)
            d = (path.point_at(s1) - path.point_at(s2)).norm()
            assert d <= abs(s1 - s2) + 1e-9


class TestPathClearance:
    def test_straight_path_through_empty_square(self, empty_env):
        path = ReferencePath([Vec2(2, 5), Vec2(8, 5)])
        assert path_clearance(empty_env, path) > 0

    def test_path_touching_obstacle(self, obstacle_env):
        path = ReferencePath([Vec2(1, 5), Vec2(9, 5)])
        assert path_clearance(obstacle_env, path) <= 0

    # path segment against one boundary edge: the cases of the exact
    # segment-segment distance, with a 0.01 m robot in a 100 m square
    @pytest.fixture
    def far_env(self):
        return Environment(square(100, -50, -50), [square(1, 0, 1)], robot_radius=0.01)

    def test_parallel_unit_apart(self, far_env):
        path = ReferencePath([Vec2(0, 0), Vec2(1, 0)])
        assert path_clearance(far_env, path) == pytest.approx(1 - 0.01, abs=1e-12)

    def test_crossing_diagonals(self, far_env):
        # crosses the left and top faces; both waypoints stay clear
        path = ReferencePath([Vec2(-0.5, 1.25), Vec2(0.5, 2.25)])
        assert path_clearance(far_env, path) == pytest.approx(-0.01, abs=1e-12)

    def test_collinear_gap(self, far_env):
        path = ReferencePath([Vec2(-3, 1), Vec2(-2, 1)])
        assert path_clearance(far_env, path) == pytest.approx(2 - 0.01, abs=1e-12)

    def test_touching_endpoint(self, far_env):
        path = ReferencePath([Vec2(-1, 0), Vec2(0, 1)])
        assert path_clearance(far_env, path) == pytest.approx(-0.01, abs=1e-12)

    def test_sliver_between_samples_is_rejected(self):
        # a 4 cm sliver crossed far from every path vertex
        env = Environment(square(100), [Polygon([Vec2(49.98, 49.6), Vec2(50.02, 49.6),
                                                 Vec2(50.02, 50.4), Vec2(49.98, 50.4)])],
                          robot_radius=0.01)
        path = ReferencePath([Vec2(1, 1), Vec2(99, 99)])
        assert path_clearance(env, path) <= -0.01

    def test_path_through_obstacle_vertex_touches(self):
        # the path meets the vertex exactly; the rounded point-segment
        # distance there is not zero, the orientation is.  With the obstacle
        # on the path's left a zero orientation counting as negative makes a
        # crossing; on its right only the box tests find the touch
        vertex = Vec2(0.5, 0.18000000000000002)
        path = ReferencePath([Vec2(0.5, 0), Vec2(0.5, 1.8)])
        for others in ([Vec2(0.3, 0.5), Vec2(0.2, 0.1)], [Vec2(0.8, 0.1), Vec2(0.7, 0.5)]):
            env = Environment(square(20, -10, -10), [Polygon([vertex, *others])],
                              robot_radius=0.01)
            assert path_clearance(env, path) == -0.01


@pytest.fixture(scope="module")
def oracle_scenes(bench_modules):
    """Each scene as the simulator's Environment and as the independent
    geometry oracle of the benchmark, ``bench/oracle.Scene``."""
    oracle, scenes = bench_modules
    docs = {"office": yaml.safe_load((ROOT / "scenarios" / "office.yaml").read_text()),
            "cluttered": scenes.cluttered_scene(1),
            "degenerate": _DEGENERATE}
    return {name: (scenario_from_dict(doc).environment,
                   oracle.Scene(doc["workspace"], doc.get("obstacles") or [],
                                doc["robot_radius"]))
            for name, doc in docs.items()}


# a workspace and an obstacle with a collinear run of three vertices, and an
# obstacle with a needle spike 8e-7 m wide at its base and 4 m long
_DEGENERATE = {
    "workspace": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]],
    "obstacles": [[[2, 2], [3, 2], [4, 2], [4, 3], [2, 3]],
                  [[6, 2], [8, 2], [8, 3], [7.0000004, 3], [7, 7], [6.9999996, 3], [6, 3]]],
    "robot_radius": 0.2,
    "path": [[1, 8.5], [9, 8.5]],
}

_unit = st.floats(0.0, 1.0)
_offset = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
# a path waypoint: a point of the workspace's bounding box, away from its
# sides; a point on the line of boundary edge k at parameter t (a vertex at
# 0, a midpoint at 1/2) moved h m along the edge's normal; such a point on
# the previous such edge's line moved the same h, which runs the path along
# that edge (on it when h is 0); or a step of up to 0.5 m in x and y from
# the previous waypoint
_edge_t = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-0.5, 1.5)
_waypoint = st.one_of(
    st.tuples(st.just("box"), st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
    st.tuples(st.just("edge"), st.integers(0, 10**6), _edge_t,
              st.just(0.0) | st.floats(0.01, 0.8) | st.floats(-0.8, -0.01)),
    st.tuples(st.just("along"), _edge_t),
    st.tuples(st.just("step"), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))


def _path_points(spec, edge_a, edge_b, lo, hi):
    """The waypoints a list of ``_waypoint`` draws names, dropping each one
    within 1e-9 m of the one before."""
    pts, k, h = [0.5 * (lo + hi)], 0, 0.0
    for kind, *args in spec:
        if kind == "box":
            p = lo + np.array(args) * (hi - lo)
        elif kind == "step":
            p = pts[-1] + np.array(args)
        else:
            if kind == "edge":
                k, t, h = args[0] % len(edge_a), args[1], args[2]
            else:
                t = args[0]
            d = edge_b[k] - edge_a[k]
            p = edge_a[k] + t * d + h / np.hypot(*d) * np.array([-d[1], d[0]])
        if np.hypot(*(p - pts[-1])) > 1e-9:
            pts.append(p)
    return pts[1:]


class TestAgreesWithOracle:
    """Set and point clearances against the oracle's exact ones.  The sets
    are at most a few robot radii across, so many of them are clear."""

    @pytest.mark.parametrize("name", ["office", "cluttered"])
    @settings(max_examples=150, deadline=None)
    @given(at=st.tuples(_unit, _unit), size=st.floats(0.0, 0.6),
           offsets=st.tuples(_offset, _offset, _offset),
           batch=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=20))
    def test_set_and_point_clearances(self, oracle_scenes, name, at, size, offsets, batch):
        env, truth = oracle_scenes[name]
        lo, hi = truth.workspace.min(axis=0), truth.workspace.max(axis=0)
        c = lo + np.array(at) * (hi - lo)
        assert abs(safety_distance(env, Disk(Vec2(*c), size))
                   - truth.disk_clearance(c, size)) <= 1e-9
        v = c + size * np.array(offsets)
        assert abs(safety_distance(env, Tri(v)) - truth.triangle_clearance(*v)) <= 1e-9
        pts = lo + np.array(batch) * (hi - lo)
        assert np.abs(margin_points(env, pts) - truth.margins(pts)).max() <= 1e-9

    @pytest.mark.parametrize("name", ["office", "cluttered", "degenerate"])
    @settings(max_examples=300, deadline=None)
    @given(spec=st.lists(_waypoint, min_size=2, max_size=5))
    def test_path_clearance(self, oracle_scenes, name, spec):
        # paths through boundary vertices and along boundary edges; a path
        # that meets the boundary reads at or below minus the radius
        env, truth = oracle_scenes[name]
        pts = _path_points(spec, truth.edge_a, truth.edge_b,
                           truth.workspace.min(axis=0), truth.workspace.max(axis=0))
        assume(len(pts) >= 2)
        got = path_clearance(env, ReferencePath([Vec2(*p) for p in pts]))
        want = truth.path_clearance(pts)
        if want > -env.robot_radius:
            assert abs(got - want) <= 1e-9
        else:
            assert got <= -env.robot_radius


# a run of consecutive points: it starts on the line of boundary edge k at
# parameter t (a vertex at 0 or 1) moved h m along the edge's left normal
# (into the edge's polygon for h > 0: inside an obstacle, or back into the
# workspace), and takes n steps of the given length at the given angle to
# the edge: along it (grazing), across it (crossing into or out of a
# polygon) or any; after `lead` sparse points of the box, so run anchors
# fall anywhere along the walk
_walk = st.tuples(
    st.integers(0, 10**6), _edge_t,
    st.just(0.0) | st.floats(-0.8, 0.8) | st.floats(-1e-6, 1e-6),
    st.sampled_from([0.0, np.pi, 0.5 * np.pi, -0.5 * np.pi]) | st.floats(-np.pi, np.pi),
    st.floats(1e-5, 0.05), st.integers(1, 100))


class TestNearEdgeMargins:
    """``margin_points`` on a boundary above ``_NEAR_EDGES`` (cluttered, 580
    edges) measures runs of points against their nearby edges only; below it
    (office, 20 edges) every row is full width.  Either way the margins are
    the full-width blocks', bit for bit."""

    @pytest.mark.parametrize("name", ["office", "cluttered"])
    @settings(max_examples=300, deadline=None)
    @given(walks=st.lists(_walk, min_size=1, max_size=3),
           lead=st.lists(st.tuples(_unit, _unit), max_size=40))
    def test_equal_to_full_width(self, oracle_scenes, name, walks, lead):
        env, truth = oracle_scenes[name]
        lo, hi = truth.workspace.min(axis=0), truth.workspace.max(axis=0)
        pts = [lo + np.array(lead).reshape(-1, 2) * (hi - lo)]
        for k, t, h, angle, step, n in walks:
            k %= len(truth.edge_a)
            d = truth.edge_b[k] - truth.edge_a[k]
            u = d / np.hypot(*d)
            start = truth.edge_a[k] + t * d + h * np.array([-u[1], u[0]])
            c, s = np.cos(angle), np.sin(angle)
            heading = np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
            pts.append(start + step * np.arange(n)[:, None] * heading)
        pts = np.vstack(pts)
        full = _signed_distances(env, pts) - env.robot_radius
        assert np.array_equal(margin_points(env, pts), full)

    def test_scenes_lie_on_both_sides_of_the_threshold(self, oracle_scenes):
        assert len(oracle_scenes["office"][0]._edge_a) <= _NEAR_EDGES
        assert len(oracle_scenes["cluttered"][0]._edge_a) > _NEAR_EDGES
