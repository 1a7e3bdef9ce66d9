import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headway_sim.geom import Vec2
from headway_sim.ode import (
    SimConfig,
    require_stable_step,
    rollout,
    simulate_many,
    simulate_to_goal,
)
from headway_sim.properties import check_rk4_order
from headway_sim.unicycle import (
    ControllerParams,
    UnicycleState,
    _adaptive_control,
    _adaptive_control_many,
    wrap_angle,
)


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


def same_run(a, b):
    """Equal to the bit: ``np.array_equal`` would pass a -0.0 for a 0.0."""
    return (a.t.tobytes() == b.t.tobytes() and a.states.tobytes() == b.states.tobytes()
            and a.converged == b.converged)


def assert_batch_matches(runs, step, goal_tol=None, max_times=None):
    """``simulate_many`` of ``runs``, ``(state, goal, params)`` each, yields
    every scalar run's trajectory once, under its index."""
    states, goals, params = ([run[k] for run in runs] for k in range(3))
    stopped = list(simulate_many(states, goals, params, step, goal_tol, max_times))
    assert sorted(i for i, _ in stopped) == list(range(len(runs)))
    batch = [traj for _, traj in sorted(stopped, key=lambda pair: pair[0])]
    horizons = max_times if max_times is not None else [None] * len(runs)
    scalar = [simulate_to_goal(*run, step, goal_tol, horizon)
              for run, horizon in zip(runs, horizons)]
    assert all(same_run(a, b) for a, b in zip(batch, scalar))
    return batch


def start(x, y, th, eps=0.5, freeze=1e-4):
    return (UnicycleState(Vec2(x, y), th), Vec2(0.0, 0.0),
            ControllerParams(headway_coeff=eps, goal_tolerance=freeze))


coord = st.floats(-3.0, 3.0)
runs = st.lists(st.tuples(coord, coord, st.floats(-math.pi, math.pi), st.floats(0.1, 0.9),
                          st.sampled_from([0.0, 1e-4, 0.3])).map(lambda r: start(*r)),
                max_size=5)


class TestSimulateMany:
    """Lockstep runs yield the scalar runs' trajectories byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(runs=runs, step=st.sampled_from([0.02, 0.05, 0.3]),
           goal_tol=st.none() | st.sampled_from([1e-3, 0.25]),
           horizons=st.none() | st.lists(st.floats(0.01, 9.0), min_size=5, max_size=5))
    @example(runs=[start(0.0, 0.0, 1.0), start(2.0, -1.0, 3.0)], step=0.05, goal_tol=None,
             horizons=None)
    def test_matches_scalar_runs(self, runs, step, goal_tol, horizons):
        max_times = None if horizons is None else horizons[:len(runs)]
        assert_batch_matches(runs, step, goal_tol, max_times)

    def test_no_runs_and_one_run(self):
        assert list(simulate_many([], [], [], 0.01)) == []
        assert_batch_matches([start(1.5, -0.5, 0.3)], 0.01)

    def test_start_inside_the_stop_ball(self):
        inside, outside = start(0.0, 0.05, -2.0), start(-2.0, 0.7, 2.0)
        batch = assert_batch_matches([inside, outside], 0.01, goal_tol=0.1)
        assert len(batch[0].t) == 1 and batch[0].converged
        assert len(batch[1].t) > 1

    def test_horizons_end_on_shortened_steps(self):
        runs = [start(3.0, 0.0, 0.0), start(-2.0, 0.7, 2.0, eps=0.8)]
        batch = assert_batch_matches(runs, 0.3, max_times=[1.0, 0.95])
        assert [traj.t[-1] for traj in batch] == pytest.approx([1.0, 0.95], abs=1e-12)
        assert not any(traj.converged for traj in batch)

    def test_runs_past_one_block_beside_one_step_runs(self):
        # the long run spans several 128-step blocks; the others stop after
        # their first step, at a horizon or at the stop ball
        runs = [start(-2.0, 0.7, 2.0, eps=0.3), start(1.0, 1.0, 0.5), start(0.1005, 0.0, math.pi)]
        batch = assert_batch_matches(runs, 0.01, goal_tol=0.1, max_times=[20.0, 0.01, 5.0])
        assert len(batch[0].t) > 2 * 128
        assert [len(traj.t) for traj in batch[1:]] == [2, 2]

    def test_refuses_a_step_that_cannot_advance_a_horizon(self):
        runs = [start(1.0, 0.0, 0.0), start(2.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match=r"^step 1e-05 s cannot advance the clock at "
                           r"the 1e\+12 s horizon"):
            next(simulate_many(*zip(*runs), 1e-5, max_times=[1.0, 1e12]))


class TestAdaptiveControlMany:
    def test_matches_the_scalar_law(self):
        rng = np.random.default_rng(7)
        n = 400
        state, goal = rng.uniform(-4.0, 4.0, (3, n)), rng.uniform(-2.0, 2.0, (2, n))
        # every fourth robot on its goal, and every fourth inside its freeze ball
        state[:2, ::4] = goal[:, ::4]
        tol = np.where(np.arange(n) % 4 == 1, 5.0, 1e-4)
        eps, gain = rng.uniform(0.1, 0.9, n), rng.uniform(0.5, 2.0, n)
        many = _adaptive_control_many(state, goal, (eps, gain, tol))
        scalar = np.array([_adaptive_control(*row[:5], tuple(row[5:]))[:3] for row in
                           np.vstack([state, goal, eps, gain, tol]).T.tolist()]).T
        assert many.tobytes() == scalar.tobytes()
        assert np.signbit(many[:2, ::4]).any()  # the frozen rates keep their zero signs
