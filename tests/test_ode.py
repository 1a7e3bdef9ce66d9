import math

import numpy as np
import pytest

from headway_sim.geom import Vec2
from headway_sim.ode import SimConfig, rollout, simulate_to_goal
from headway_sim.properties import check_rk4_order
from headway_sim.unicycle import ControllerParams, UnicycleState, wrap_angle


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            SimConfig(step=0.0)
        with pytest.raises(ValueError, match="max_time"):
            SimConfig(max_time=-1.0)
        with pytest.raises(ValueError, match="prediction_step"):
            SimConfig(prediction_step=0.0)

    def test_inner_step_defaults_to_step(self):
        assert SimConfig(step=0.01).inner_step() == 0.01
        assert SimConfig(step=0.01, prediction_step=0.05).inner_step() == 0.05


def constant_law(v, w):
    """Stub control law returning the same input everywhere."""
    return lambda px, py, th, gx, gy, coeffs: (v, w)


def run(law, step, max_time, goal=Vec2(100.0, 0.0), tol=0.0):
    return rollout(law, (), UnicycleState(Vec2(0.0, 0.0), 0.0), goal, step, max_time, tol)


class TestIntegrate:
    """The RK4 rollout under stub laws with known solutions."""

    def test_constant_input_is_exact(self):
        traj = run(constant_law(1.0, 0.0), step=0.01, max_time=1.0)
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-9)
        assert traj.states[-1, 1] == pytest.approx(0.0, abs=1e-9)
        assert not traj.converged

    def test_pure_rotation_advances_angle(self):
        traj = run(constant_law(0.0, 1.0), step=0.01, max_time=math.pi)
        theta = traj.states[-1, 2]
        assert theta == pytest.approx(math.pi, abs=1e-9)
        assert abs(abs(wrap_angle(theta)) - math.pi) < 1e-9
        assert np.all(traj.positions == 0.0)

    def test_final_partial_step_lands_on_horizon(self):
        traj = run(constant_law(1.0, 0.0), step=0.3, max_time=1.0)
        assert len(traj.t) == 5
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_stop_radius_ends_run(self):
        traj = run(constant_law(1.0, 0.0), step=0.1, max_time=10.0,
                   goal=Vec2(1.0, 0.0), tol=0.45)
        assert traj.converged
        assert traj.states[-1, 0] == pytest.approx(0.6, abs=1e-12)
        assert traj.t[-1] == pytest.approx(0.6, abs=1e-12)

    def test_step_halving_changes_little_on_smooth_run(self):
        goal = Vec2(0.0, 0.0)
        params = ControllerParams(headway_coeff=0.5)

        def finals(step):
            traj = simulate_to_goal(UnicycleState(Vec2(-2.0, 0.7), 2.0), goal,
                                    params, step=step, max_time=2.0)
            return traj.states[-1]

        diff = np.linalg.norm(finals(0.01) - finals(0.005))
        assert diff < 1e-6

    def test_steps_match_rk4_polynomial(self):
        # v = x along heading 0 is x' = x; each step multiplies x by the
        # degree-4 Taylor polynomial of exp(dt)
        traj = rollout(lambda px, py, th, gx, gy, coeffs: (px, 0.0), (),
                       UnicycleState(Vec2(1.0, 0.0), 0.0), Vec2(100.0, 0.0),
                       step=0.1, max_time=1.0, tol=0.0)
        h = 0.1
        growth = 1.0 + h + h * h / 2.0 + h ** 3 / 6.0 + h ** 4 / 24.0
        assert traj.states[-1, 0] == pytest.approx(growth ** 10, rel=1e-14)
        assert traj.states[-1, 0] == pytest.approx(math.e, rel=1e-5)


class TestSimulateToGoal:
    def test_converges_and_flags(self):
        traj = simulate_to_goal(UnicycleState(Vec2(1.5, -0.5), 0.3), Vec2(0, 0),
                                ControllerParams(), step=0.01)
        assert traj.converged
        assert np.hypot(*traj.positions[-1]) <= 1e-4

    def test_budget_exhaustion_flag(self):
        traj = simulate_to_goal(UnicycleState(Vec2(3.0, 0.0), 0.0), Vec2(0, 0),
                                ControllerParams(), step=0.01, max_time=0.05)
        assert not traj.converged

    def test_fourth_order_convergence(self):
        result = check_rk4_order()
        assert result.passed, result.detail
