import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headway_sim.environment import (
    Environment,
    ReferencePath,
    free_space_margin,
    margin_points,
    path_clearance,
    safety_distance,
)
from headway_sim.geom import Polygon, Triangle, Vec2
from headway_sim.ode import SimConfig
from headway_sim.prediction import Disk, PredictionSet, Tri
from headway_sim.simulation import METHODS, prediction_set
from headway_sim.unicycle import ControllerParams, UnicycleState


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


class TestFreeSpaceMargin:
    def test_center_of_empty_square(self, empty_env):
        assert free_space_margin(empty_env, Vec2(5, 5)) == pytest.approx(4.0, abs=1e-12)

    def test_on_workspace_boundary(self, empty_env):
        assert free_space_margin(empty_env, Vec2(0, 5)) == pytest.approx(-1.0, abs=1e-12)

    def test_inside_obstacle_negative(self, obstacle_env):
        # 1 m deep inside the obstacle, minus the 0.5 m radius
        assert free_space_margin(obstacle_env, Vec2(5, 5)) == pytest.approx(-1.5, abs=1e-12)

    def test_outside_workspace_negative(self, empty_env):
        assert free_space_margin(empty_env, Vec2(12, 5)) < 0

    def test_near_obstacle(self, obstacle_env):
        # 1 m from the obstacle face, minus the 0.5 m radius
        assert free_space_margin(obstacle_env, Vec2(3, 5)) == pytest.approx(0.5, abs=1e-12)
        # on the obstacle face
        assert free_space_margin(obstacle_env, Vec2(4, 5)) == pytest.approx(-0.5, abs=1e-12)

    def test_batch_matches_scalar(self, obstacle_env):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-1, 11, (100, 2))
        batch = margin_points(obstacle_env, pts)
        for (x, y), m in zip(pts, batch):
            assert m == pytest.approx(free_space_margin(obstacle_env, Vec2(x, y)),
                                      abs=1e-12)


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
            m = free_space_margin(obstacle_env, p)
            expected = max(m, 0.0)
            assert safety_distance(obstacle_env, Disk(p, 0.0)) == expected
            point = PredictionSet(np.array([[p.x, p.y]]), 0.0)
            assert safety_distance(obstacle_env, point) == expected

    def test_triangle_clear_of_obstacle(self, obstacle_env):
        tri = Tri(Triangle(Vec2(1, 1), Vec2(2.5, 1), Vec2(1, 2.5)))
        d = safety_distance(obstacle_env, tri)
        # nearest features: workspace walls at distance 1, minus radius
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_triangle_crossing_obstacle_is_zero(self, obstacle_env):
        tri = Tri(Triangle(Vec2(3, 5), Vec2(7, 5), Vec2(5, 8)))
        assert safety_distance(obstacle_env, tri) == 0.0

    def test_triangle_swallowing_obstacle_is_zero(self, obstacle_env):
        tri = Tri(Triangle(Vec2(2, 2), Vec2(9, 3), Vec2(5, 9.5)))
        assert safety_distance(obstacle_env, tri) == 0.0

    def test_degenerate_triangle(self, obstacle_env):
        tri = Tri(Triangle(Vec2(1, 1), Vec2(2, 1), Vec2(3, 1)))
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
    def _triangle_samples(rng, tri):
        v = tri.vertex_array()
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
            tri = Triangle(Vec2(*v[0]), Vec2(*v[1]), Vec2(*v[2]))
            fast = safety_distance(lshape_env, Tri(tri))
            pts = self._triangle_samples(rng, tri)
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
        # distance there is not zero, the orientation is
        env = Environment(square(20, -10, -10),
                          [Polygon([Vec2(0.5, 0.18000000000000002), Vec2(0.3, 0.5),
                                    Vec2(0.2, 0.1)])],
                          robot_radius=0.01)
        path = ReferencePath([Vec2(0.5, 0), Vec2(0.5, 1.8)])
        assert path_clearance(env, path) == -0.01
