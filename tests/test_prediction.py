import math

import numpy as np
import pytest

from headway_sim.geom import Triangle, Vec2
from headway_sim.ode import SimConfig, simulate_to_goal
from headway_sim.prediction import (
    Disk,
    Hull,
    Tri,
    circular_prediction,
    forward_sim_prediction,
    goal_alignment,
    prediction_distance,
    prediction_goal_radius,
    triangular_bound,
    triangular_prediction,
)
from headway_sim.properties import (
    check_branch_continuity,
    check_distance_lipschitz,
    check_positive_inclusion,
    check_radius_decay,
    check_trajectory_containment,
    sample_trajectory_cases,
)
from headway_sim.unicycle import ControllerParams, UnicycleState

PARAMS = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)
ORIGIN = Vec2(0.0, 0.0)


def state(x, y, th):
    return UnicycleState(Vec2(x, y), th)


class TestPredictionTypes:
    def test_disk_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Disk(ORIGIN, -0.1)

    def test_hull_needs_points_and_padding(self):
        with pytest.raises(ValueError, match="point"):
            Hull(np.zeros((0, 2)), 0.0)
        with pytest.raises(ValueError, match="padding"):
            Hull(np.zeros((1, 2)), -1.0)


class TestCircularPrediction:
    def test_facing_goal_uses_position_distance(self):
        disk = circular_prediction(state(1, 0, math.pi), ORIGIN, PARAMS)
        assert disk.center == ORIGIN
        assert disk.radius == pytest.approx(1.0, abs=1e-12)

    def test_at_goal_collapses(self):
        disk = circular_prediction(state(0, 0, 1.0), ORIGIN, PARAMS)
        assert disk.radius == 0.0

    def test_misaligned_uses_extended_distance(self):
        disk = circular_prediction(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS)
        assert disk.radius == pytest.approx(1.0327955589886444, abs=1e-9)


class TestTriangularBound:
    def test_head_on_degenerates_to_segment(self):
        tri = triangular_bound(state(1, 0, math.pi), ORIGIN, PARAMS)
        assert tri.v0 == ORIGIN
        assert tri.v1 == Vec2(1, 0)
        assert tri.v2.x == pytest.approx(0.5, abs=1e-12)
        assert abs(tri.v2.y) < 1e-15
        assert abs(tri.double_signed_area()) < 1e-15

    def test_at_goal_is_a_point(self):
        tri = triangular_bound(state(0, 0, 0.2), ORIGIN, PARAMS)
        assert tri.v0 == tri.v1 == tri.v2 == ORIGIN

    def test_misaligned_uses_projected_extended(self):
        tri = triangular_bound(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS)
        assert tri.v0 == Vec2(1, 0)
        assert tri.v1.x == pytest.approx(0.2, abs=1e-12)
        assert tri.v1.y == pytest.approx(0.4, abs=1e-12)
        assert tri.v2.x == pytest.approx(-0.030940107675850306, abs=1e-9)
        assert tri.v2.y == pytest.approx(-0.06188021535170061, abs=1e-9)


class TestTriangularPrediction:
    def test_aligned_head_on_keeps_headway_vertex(self):
        # alignment is 1, so the stretch term vanishes and the third vertex
        # stays at the headway point
        tri = triangular_prediction(state(1, 0, math.pi), ORIGIN, PARAMS).triangle
        assert tri.v0 == ORIGIN
        assert tri.v1 == Vec2(1, 0)
        assert tri.v2.x == pytest.approx(0.5, abs=1e-12)
        assert abs(tri.v2.y) < 1e-15

    def test_at_goal_is_a_point(self):
        tri = triangular_prediction(state(0, 0, -1.0), ORIGIN, PARAMS).triangle
        assert tri.v0 == tri.v1 == tri.v2 == ORIGIN

    def test_branches_coincide_on_alignment_boundary(self):
        result = check_branch_continuity(seed=31, n=300)
        assert result.passed, result.detail

    def test_contains_tight_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            eps = rng.uniform(0.2, 0.8)
            params = ControllerParams(headway_coeff=eps)
            st = state(rng.uniform(-3, 3), rng.uniform(-3, 3),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            bound = triangular_bound(st, goal, params)
            pred = triangular_prediction(st, goal, params)
            for v in bound.vertices:
                assert prediction_distance(pred, v) <= 1e-9


class TestForwardSimPrediction:
    def test_at_goal_single_point(self):
        hull = forward_sim_prediction(state(0, 0, 0.5), ORIGIN, PARAMS, SimConfig())
        assert hull.points.shape == (1, 2)
        assert hull.padding == 0.0
        assert hull.converged

    def test_head_on_stays_on_segment(self):
        hull = forward_sim_prediction(state(1, 0, math.pi), ORIGIN, PARAMS,
                                      SimConfig(step=0.01))
        assert hull.converged
        assert np.all(hull.points[:, 0] >= -1e-9)
        assert np.all(hull.points[:, 0] <= 1.0 + 1e-9)
        assert np.all(np.abs(hull.points[:, 1]) <= 1e-9)

    def test_hull_inside_circular_prediction(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            st = state(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            hull = forward_sim_prediction(st, goal, PARAMS, SimConfig(step=0.01))
            disk = circular_prediction(st, goal, PARAMS)
            dists = np.hypot(hull.points[:, 0] - goal.x, hull.points[:, 1] - goal.y)
            assert float(dists.max()) <= disk.radius + 1e-6

    def test_budget_exhaustion_flag(self, monkeypatch):
        import headway_sim.ode as ode_mod

        monkeypatch.setattr(ode_mod, "convergence_budget", lambda *args: 0.05)
        hull = forward_sim_prediction(state(3, 0, 0), ORIGIN, PARAMS, SimConfig(step=0.01))
        assert not hull.converged

    def test_inner_horizon_independent_of_episode_horizon(self):
        hull = forward_sim_prediction(state(3, 0, 0), ORIGIN, PARAMS,
                                      SimConfig(step=0.01, max_time=0.05))
        assert hull.converged


class TestPredictionDistance:
    def test_disk(self):
        assert prediction_distance(Disk(ORIGIN, 1.0), Vec2(3, 0)) == 2

    def test_triangle_interior(self):
        tri = Tri(Triangle(ORIGIN, Vec2(1, 0), Vec2(0, 1)))
        assert prediction_distance(tri, Vec2(0.2, 0.2)) == 0

    def test_hull_with_padding(self):
        hull = Hull(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.1)
        assert prediction_distance(hull, Vec2(1, 1)) == pytest.approx(0.9, abs=1e-12)

    def test_degenerate_triangle_uses_segment_distance(self):
        tri = Tri(Triangle(ORIGIN, Vec2(2, 0), Vec2(1, 0)))
        assert prediction_distance(tri, Vec2(1, 0.5)) == pytest.approx(0.5, abs=1e-12)
        assert prediction_distance(tri, Vec2(1.5, 0)) == 0


class TestPredictionGoalRadius:
    def test_disk(self):
        assert prediction_goal_radius(Disk(ORIGIN, 0.7), ORIGIN) == 0.7

    def test_triangle_max_vertex(self):
        tri = Tri(Triangle(ORIGIN, Vec2(1, 0), Vec2(0, 2)))
        assert prediction_goal_radius(tri, ORIGIN) == 2

    def test_point_set(self):
        assert prediction_goal_radius(Hull(np.array([[1.0, 1.0]]), 0.0),
                                      Vec2(1, 1)) == 0

    def test_hull_adds_padding(self):
        hull = Hull(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.25)
        assert prediction_goal_radius(hull, ORIGIN) == pytest.approx(1.25, abs=1e-12)


class TestGoalAlignment:
    def test_facing_goal(self):
        assert goal_alignment(state(0, 0, 0), Vec2(2, 0)) == pytest.approx(1.0)

    def test_perpendicular(self):
        assert goal_alignment(state(0, 0, math.pi / 2), Vec2(2, 0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_at_goal_defaults_aligned(self):
        assert goal_alignment(state(1, 1, 0.3), Vec2(1, 1)) == 1.0


@pytest.fixture(scope="module")
def cases():
    # smaller sample size here; the acceptance suite runs the full sizes
    return sample_trajectory_cases(seed=34, n=30)


class TestTrajectoryLevelProperties:
    def test_containment(self, cases):
        result = check_trajectory_containment(cases)
        assert result.passed, result.detail

    def test_positive_inclusion(self, cases):
        result = check_positive_inclusion(cases)
        assert result.passed, result.detail

    def test_radius_decay(self, cases):
        result = check_radius_decay(cases)
        assert result.passed, result.detail

    def test_distance_lipschitz(self):
        result = check_distance_lipschitz(seed=35, n=800)
        assert result.passed, result.detail


class TestDecayAlongTrajectory:
    def test_radius_shrinks_to_zero(self):
        case_state = state(2.0, -1.0, 2.8)
        goal = ORIGIN
        traj = simulate_to_goal(case_state, goal, PARAMS, step=0.01)
        assert traj.converged
        final = traj.final_state()
        for pred in (circular_prediction(final, goal, PARAMS),
                     triangular_prediction(final, goal, PARAMS)):
            assert prediction_goal_radius(pred, goal) < 1e-3
