import math

import numpy as np
import pytest

from headway_sim.geom import Vec2, min_distance_to_segments
from headway_sim.ode import rollout, simulate_to_goal
from headway_sim.properties import (
    check_fixed_headway_offset,
    check_global_convergence,
    check_headway_reference_consistency,
)
from headway_sim.unicycle import (
    ControllerParams,
    UnicycleState,
    _adaptive_control,
    _fixed_control,
    _turning_frame,
    headway_point,
    wrap_angle,
)

PARAMS = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)


def state(x, y, th):
    return UnicycleState(Vec2(x, y), th)


def adaptive(st, goal, params):
    *_, w, v = _adaptive_control(st.position.x, st.position.y, st.orientation, goal.x, goal.y,
                                 (params.headway_coeff, params.ref_gain, params.goal_tolerance))
    return v, w


def fixed(st, goal, gain, distance):
    *_, w, v = _fixed_control(st.position.x, st.position.y, st.orientation, goal.x, goal.y,
                              (gain, distance))
    return v, w


class TestWrapAngle:
    def test_range(self):
        assert wrap_angle(math.pi) == -math.pi
        assert wrap_angle(-math.pi) == -math.pi
        assert wrap_angle(0.0) == 0.0
        assert abs(wrap_angle(3 * math.pi / 2) + math.pi / 2) < 1e-15

    def test_state_wraps_on_construction(self):
        assert state(0, 0, math.pi).orientation == -math.pi
        assert abs(state(0, 0, 5 * math.pi / 2).orientation - math.pi / 2) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            state(0, 0, math.inf)
        with pytest.raises(ValueError):
            state(0, 0, math.nan)


class TestControllerParams:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.2, -0.1])
    def test_headway_coeff_strictly_inside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="headway_coeff"):
            ControllerParams(headway_coeff=eps)

    def test_positive_gain(self):
        with pytest.raises(ValueError, match="ref_gain"):
            ControllerParams(ref_gain=0.0)


class TestHeadwayDistance:
    """The headway point sits ``eps * |position - goal|`` ahead of the robot."""

    @staticmethod
    def distance(st, goal):
        return (headway_point(st, goal, PARAMS) - st.position).norm()

    def test_direct_evaluation(self):
        assert self.distance(state(0, 0, 0), Vec2(2, 0)) == 1

    def test_zero_at_goal(self):
        assert self.distance(state(1, 1, 0.3), Vec2(1, 1)) == 0

    def test_three_four_five(self):
        assert self.distance(state(3, 4, 0), Vec2(0, 0)) == 2.5


class TestHeadwayPoint:
    def test_ahead_along_heading(self):
        assert headway_point(state(0, 0, 0), Vec2(2, 0), PARAMS) == Vec2(1, 0)

    def test_at_goal_coincides_with_position(self):
        assert headway_point(state(2, -1, 1.1), Vec2(2, -1), PARAMS) == Vec2(2, -1)

    def test_sideways_heading(self):
        h = headway_point(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS)
        assert abs(h.x) < 1e-15 and abs(h.y - 0.5) < 1e-15


class TestAdaptiveHeadwayControl:
    def test_facing_goal(self):
        v, w = adaptive(state(0, 0, 0), Vec2(1, 0), PARAMS)
        assert v == pytest.approx(1.0, abs=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_stops_at_goal(self):
        assert adaptive(state(1, 0, 0.4), Vec2(1, 0), PARAMS) == (0.0, 0.0)

    def test_stops_inside_tolerance_ball(self):
        params = ControllerParams(goal_tolerance=1e-3)
        assert adaptive(state(0, 0, 0.4), Vec2(5e-4, 0), params) == (0.0, 0.0)

    def test_perpendicular_heading(self):
        v, w = adaptive(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS)
        assert v == pytest.approx(-0.5, abs=1e-12)
        assert w == pytest.approx(-2.0, abs=1e-12)

    def test_denominator_never_singular(self):
        # 1 - eps * alignment >= 1 - eps > 0 for any heading
        rng = np.random.default_rng(12)
        for _ in range(2000):
            eps = rng.uniform(0.05, 0.95)
            params = ControllerParams(headway_coeff=eps)
            st = state(rng.uniform(-4, 4), rng.uniform(-4, 4),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            v, w = adaptive(st, goal, params)
            assert math.isfinite(v) and math.isfinite(w)


class TestFixedHeadwayControl:
    def test_hand_evaluation(self):
        v, w = fixed(state(0, 0, 0), Vec2(1, 0), 1.0, 0.5)
        assert v == pytest.approx(0.5, abs=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_offset(self):
        # one headway distance behind the goal, facing it: zero speed
        v, _ = fixed(state(0.5, 0, 0), Vec2(1, 0), 1.0, 0.5)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_pushed_backward_off_goal(self):
        v, w = fixed(state(1, 0, 0), Vec2(1, 0), 1.0, 0.5)
        assert v == pytest.approx(-0.5, abs=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)


def headway_frame(st, goal, params=PARAMS):
    """``_turning_frame`` of a state off the goal as Vec2s: the headway
    point, tangent, normal, projected and extended positions."""
    p, th = st.position, st.orientation
    hx, hy, tx, ty, nx, ny, qx, qy, k = _turning_frame(
        p.x, p.y, math.cos(th), math.sin(th), goal.x, goal.y, params.headway_coeff,
        math.hypot(goal.x - p.x, goal.y - p.y))
    return (Vec2(hx, hy), Vec2(tx, ty), Vec2(nx, ny), Vec2(qx, qy),
            Vec2(qx + nx * k, qy + ny * k))


class TestHeadwayFrame:
    def test_perpendicular_case(self):
        h, t, n, q, e = headway_frame(state(0, 0, math.pi / 2), Vec2(1, 0))
        assert h.x == pytest.approx(0.0, abs=1e-12)
        assert h.y == pytest.approx(0.5, abs=1e-12)
        assert t.x == pytest.approx(0.8944271909999159, abs=1e-12)
        assert t.y == pytest.approx(-0.4472135954999579, abs=1e-12)
        # the robot lies clockwise of the travel line, and so does the normal
        assert n == Vec2(t.y, -t.x)
        assert q.x == pytest.approx(0.2, abs=1e-12)
        assert q.y == pytest.approx(0.4, abs=1e-12)
        assert e.x == pytest.approx(-0.030940107675850306, abs=1e-9)
        assert e.y == pytest.approx(-0.06188021535170061, abs=1e-9)

    def test_aligned_case(self):
        h, t, n, q, e = headway_frame(state(0, 0, 0), Vec2(1, 0))
        assert h == Vec2(0.5, 0)
        assert t == Vec2(1, 0)
        # on the travel line the normal's sign tie resolves counterclockwise
        assert n == Vec2(0, 1)
        assert q.x == pytest.approx(0.0, abs=1e-12)
        assert q.y == pytest.approx(0.0, abs=1e-12)
        assert (e - Vec2(1, 0)).norm() == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-12)

    def test_unit_or_zero_frame_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            st = state(rng.uniform(-4, 4), rng.uniform(-4, 4),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            _, t, n, _, _ = headway_frame(st, goal)
            assert t.norm() == pytest.approx(1.0, abs=1e-12)
            assert n.norm() == pytest.approx(1.0, abs=1e-12)
            assert abs(t.dot(n)) < 1e-12

    def test_position_between_projected_and_extended(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            eps = rng.uniform(0.1, 0.9)
            params = ControllerParams(headway_coeff=eps)
            st = state(rng.uniform(-4, 4), rng.uniform(-4, 4),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-4, 4), rng.uniform(-4, 4))
            *_, q, e = headway_frame(st, goal, params)
            p = st.position
            assert min_distance_to_segments([[p.x, p.y]], np.array([[q.x, q.y]]),
                                            np.array([[e.x, e.y]]))[0] <= 1e-9


class TestUnicycleDerivative:
    """The rollout integrates a law's derivative x' = v cos(theta),
    y' = v sin(theta), theta' = w; constant inputs have closed-form
    solutions."""

    @staticmethod
    def final(st, v, w, horizon=1.0):
        def law(px, py, th, *_):
            return v * math.cos(th), v * math.sin(th), w, v

        traj = rollout(law, (), st, Vec2(100.0, 100.0), step=0.01, max_time=horizon, tol=0.0)
        return traj.states[-1]

    def test_forward_motion(self):
        x, y, th = self.final(state(0, 0, 0), 1.0, 0.0)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == 0 and th == 0

    def test_pure_rotation(self):
        x, y, th = self.final(state(1, 1, 0.3), 0.0, 2.0)
        assert (x, y) == (1, 1)
        assert th == pytest.approx(2.3, abs=1e-12)

    def test_forward_along_y(self):
        # a clockwise circle of radius 2: x = 2 (1 - cos t), y = 2 sin t
        x, y, th = self.final(state(0, 0, math.pi / 2), 2.0, -1.0)
        assert x == pytest.approx(2.0 * (1.0 - math.cos(1.0)), abs=1e-9)
        assert y == pytest.approx(2.0 * math.sin(1.0), abs=1e-9)
        assert th == pytest.approx(math.pi / 2 - 1.0, abs=1e-12)


class TestClosedLoopProperties:
    def test_global_convergence_within_budget(self):
        result = check_global_convergence(seed=21, n=100)
        assert result.passed, result.detail

    def test_headway_point_follows_reference_dynamics(self):
        result = check_headway_reference_consistency(seed=22, n=5)
        assert result.passed, result.detail

    def test_fixed_headway_terminal_offset(self):
        result = check_fixed_headway_offset(seed=23, n=20)
        assert result.passed, result.detail

    def test_adaptive_controller_reaches_goal_exactly(self):
        # contrast with the fixed-offset baseline: terminal distance ~ 0
        traj = simulate_to_goal(state(2.0, 1.0, 2.5), Vec2(0, 0), PARAMS, step=0.01)
        assert traj.converged
        final = traj.positions[-1]
        assert math.hypot(final[0], final[1]) <= PARAMS.goal_tolerance
