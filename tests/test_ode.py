import math

import numpy as np
import pytest

from headway_sim.geom import Vec2
from headway_sim.ode import SimConfig, require_stable_step, rollout, simulate_to_goal
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

    @pytest.mark.parametrize("field", ["clearance_gain", "endpoint_gain", "prediction_step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_gains_and_prediction_step_finite_positive(self, field, value):
        # an infinite gain passed validation and gave a NaN path rate (inf * 0)
        with pytest.raises(ValueError, match=rf"^{field} must be positive and finite, got"):
            SimConfig(**{field: value})

    def test_inner_step_defaults_to_step(self):
        assert SimConfig(step=0.01).inner_step() == 0.01
        assert SimConfig(step=0.01, prediction_step=0.05).inner_step() == 0.05


class TestStableStep:
    """Steps are refused once step x decay rate exceeds 2.785; at k = 1 and
    eps = 0.5 the turning rate is 3 /s and the endpoint gain 4 /s."""

    PARAMS = ControllerParams(headway_coeff=0.5, ref_gain=1.0)

    def test_shipped_settings_pass(self):
        require_stable_step(self.PARAMS, SimConfig(step=0.01, prediction_step=0.02))

    def test_endpoint_gain_bounds_the_outer_step(self):
        require_stable_step(self.PARAMS, SimConfig(step=0.69, prediction_step=0.9))
        with pytest.raises(ValueError, match=r"^step 0.7 s .* 4 1/s .* limit 2.785"):
            require_stable_step(self.PARAMS, SimConfig(step=0.7, prediction_step=0.9))

    def test_turning_rate_bounds_the_outer_step(self):
        config = SimConfig(step=0.6, endpoint_gain=1.0, prediction_step=0.5)
        require_stable_step(self.PARAMS, config)
        with pytest.raises(ValueError, match=r"^step 0.6 s .* 5 1/s is 3,"):
            require_stable_step(ControllerParams(headway_coeff=0.25), config)

    def test_prediction_step(self):
        with pytest.raises(ValueError, match=r"^prediction_step 0.95 s .* 3 1/s"):
            require_stable_step(self.PARAMS, SimConfig(step=0.01, prediction_step=0.95))

    def test_clearance_gain_bounds_the_outer_step(self):
        # office at clearance gain 1e4 validated, then collided at step 0.01
        require_stable_step(self.PARAMS, SimConfig(step=0.01, clearance_gain=278.0))
        with pytest.raises(ValueError, match=r"^step 0.01 s .* 279 1/s is 2.79,"):
            require_stable_step(self.PARAMS, SimConfig(step=0.01, clearance_gain=279.0))

    def test_stop_ball_inside_the_freeze_ball_refused(self):
        # the robot parked 9.999e-05 m from the goal and never stopped
        require_stable_step(self.PARAMS, SimConfig(goal_tolerance=1e-4))
        with pytest.raises(ValueError, match=r"^goal_tolerance 1e-06 m is below the "
                           r"controller's goal_tolerance 0.0001 m"):
            require_stable_step(self.PARAMS, SimConfig(goal_tolerance=1e-6))

    def test_zero_stop_radius_refused(self):
        # both radii 0 passed the freeze-ball rule, and the run ended at its
        # horizon 9.9e-14 m from the goal
        with pytest.raises(ValueError, match=r"^goal_tolerance 0 m: the robot approaches the "
                           r"path end exponentially and never reaches distance 0"):
            require_stable_step(ControllerParams(goal_tolerance=0.0),
                                SimConfig(goal_tolerance=0.0))

    def test_default_prediction_step_follows_step(self):
        config = SimConfig(step=0.95, endpoint_gain=1.0)
        with pytest.raises(ValueError, match=r"^step 0.95 s"):
            require_stable_step(self.PARAMS, config)


def constant_law(v, w):
    """Stub control law with the same inputs everywhere, returning the
    unicycle derivative."""
    return lambda px, py, th, gx, gy, coeffs: (v * math.cos(th), v * math.sin(th), w, v)


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
        traj = rollout(lambda px, py, th, gx, gy, coeffs: (px, 0.0, 0.0, px), (),
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
