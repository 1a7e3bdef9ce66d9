import math
from pathlib import Path

import numpy as np
import pytest

from headway_sim import simulation
from headway_sim.environment import ClearanceError, Environment, ReferencePath
from headway_sim.geom import Polygon, Vec2
from headway_sim.ode import SimConfig
from headway_sim.scenario import load_scenario
from headway_sim.simulation import (
    CSV_COLUMNS,
    METHODS,
    governor_field,
    read_trajectory_csv,
    run_episode,
)
from headway_sim.unicycle import ControllerParams

def square(side, x0=0.0, y0=0.0):
    return Polygon([Vec2(x0, y0), Vec2(x0 + side, y0),
                    Vec2(x0 + side, y0 + side), Vec2(x0, y0 + side)])


@pytest.fixture
def simple_setup():
    env = Environment(square(10), [], robot_radius=0.5)
    path = ReferencePath([Vec2(2, 5), Vec2(8, 5)])
    params = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)
    config = SimConfig(step=0.01, max_time=40.0, goal_tolerance=2e-4)
    return env, path, params, config


class TestGovernorDerivative:
    def test_endpoint_rate_when_clear(self, simple_setup):
        env, path, params, config = simple_setup
        # near the path end with plenty of clearance: the endpoint pull binds
        s = path.length - 0.1
        k = governor_field(env, path, params, "circle", config, s, 7.9, 5.0, 0.0)
        assert k[0] == pytest.approx(config.endpoint_gain * 0.1, rel=1e-9)

    def test_clearance_rate_when_binding(self, simple_setup):
        env, path, params, config = simple_setup
        k = governor_field(env, path, params, "circle", config, 0.0, 2.0, 5.0, 0.0)
        # point prediction at (2,5): margin 2 - 0.5, scaled by the gain
        assert k[0] == pytest.approx(config.clearance_gain * 1.5, rel=1e-9)
        assert k[5] == pytest.approx(1.5, rel=1e-9)

    def test_zero_rate_when_prediction_touches_boundary(self, simple_setup):
        env, path, params, config = simple_setup
        # a state whose circular prediction reaches the inflated wall
        k = governor_field(env, path, params, "circle", config, 0.0, 2.0, 9.2, -math.pi / 2)
        assert k[0] == 0.0
        assert math.hypot(k[1], k[2]) > 0  # the robot still steers toward the path

    def test_zero_rate_at_path_end(self, simple_setup):
        env, path, params, config = simple_setup
        k = governor_field(env, path, params, "circle", config, path.length, 8.0, 5.0, 0.0)
        assert k[0] == 0.0

    def test_rate_nonnegative_inside_range(self, simple_setup):
        env, path, params, config = simple_setup
        rng = np.random.default_rng(51)
        for _ in range(50):
            s = rng.uniform(0, path.length)
            x, y = rng.uniform(1, 9), rng.uniform(1, 9)
            th = rng.uniform(-math.pi, math.pi)
            k = governor_field(env, path, params, "triangle", config, s, x, y, th)
            assert k[0] >= 0.0


class TestRunEpisode:
    def test_rejects_path_without_clearance(self):
        env = Environment(square(10), [square(2, 4, 4)], robot_radius=0.5)
        path = ReferencePath([Vec2(1, 5), Vec2(9, 5)])
        with pytest.raises(ClearanceError):
            run_episode(env, path, ControllerParams(), "circle", SimConfig())

    def test_rejects_path_crossing_sliver_obstacle(self):
        # the straight path crosses a 4 cm sliver far from both waypoints
        sliver = Polygon([Vec2(49.98, 49.6), Vec2(50.02, 49.6),
                          Vec2(50.02, 50.4), Vec2(49.98, 50.4)])
        env = Environment(square(100), [sliver], robot_radius=0.01)
        path = ReferencePath([Vec2(1, 1), Vec2(99, 99)])
        with pytest.raises(ClearanceError):
            run_episode(env, path, ControllerParams(), "triangle", SimConfig())

    def test_rejects_unknown_method(self, simple_setup):
        env, path, params, config = simple_setup
        with pytest.raises(ValueError, match="method"):
            run_episode(env, path, params, "octagon", config)

    def test_converges_safely_on_empty_square(self, simple_setup):
        env, path, params, config = simple_setup
        result = run_episode(env, path, params, "triangle", config)
        assert result.converged
        assert not result.collision_flag
        assert result.final_goal_distance < 1e-3
        assert np.all(np.diff(result.s) >= -1e-12)
        assert result.min_margin > 0
        assert result.collision_flag == (result.margin.min() < 0)
        assert result.travel_time == result.t[-1]
        assert len(result.t) == len(result.v) == len(result.margin)

    def test_non_convergence_reported(self, simple_setup):
        env, path, params, _ = simple_setup
        result = run_episode(env, path, params, "circle",
                             SimConfig(step=0.01, max_time=0.5, goal_tolerance=2e-4))
        assert not result.converged
        assert result.travel_time == pytest.approx(0.5, abs=0.011)
        assert all(len(col) == len(result.t) for col in result.columns())

    def test_logged_columns_replay_the_governor(self):
        # each node's v, omega, delta_F and pred_radius are the first-stage
        # governor_field results at the logged s and pose, in that order
        sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "open.yaml")
        res = run_episode(sc.environment, sc.path, sc.controller, "triangle", sc.sim)
        for i in range(0, len(res.t), 50):
            k = governor_field(sc.environment, sc.path, sc.controller, "triangle", sc.sim,
                               res.s[i], res.x[i], res.y[i], res.theta[i])
            assert res.v[i] == k[4]
            assert res.omega[i] == k[3]
            assert res.delta_f[i] == k[5]
            assert res.pred_radius[i] == k[6]

    def test_inner_budget_fault_raises(self, simple_setup, monkeypatch):
        # an unconverged inner simulation means the hull may miss part of
        # the future motion; the governor must refuse to trust it
        import headway_sim.simulation as sim_mod
        from headway_sim.prediction import PredictionSet
        from headway_sim.simulation import NonConvergenceError

        real = sim_mod.forward_sim_prediction

        def truncated(state, goal, params, sim):
            hull = real(state, goal, params, sim)
            return PredictionSet(hull.points, hull.padding, converged=False)

        monkeypatch.setattr(sim_mod, "forward_sim_prediction", truncated)
        env, path, params, config = simple_setup
        # the message names the stage pose and the path point, here the start
        with pytest.raises(NonConvergenceError,
                           match=r"stage pose x=2\.0000 y=5\.0000 theta=0\.0000, "
                                 r"path point s=0\.0000 at \(2\.0000, 5\.0000\)"):
            run_episode(env, path, params, "forward-sim", config)

    def test_initial_theta_defaults_to_path_direction(self, simple_setup):
        env, path, params, config = simple_setup
        result = run_episode(env, path, params, "circle", config)
        assert result.theta[0] == pytest.approx(0.0, abs=1e-12)
        result2 = run_episode(env, path, params, "circle", config,
                              initial_theta=math.pi / 2)
        assert result2.theta[0] == pytest.approx(math.pi / 2)
        assert result2.converged and not result2.collision_flag


class TestEpisodeCsv:
    def test_round_trip(self, simple_setup, tmp_path):
        env, path, params, config = simple_setup
        result = run_episode(env, path, params, "circle", config)
        csv_path = tmp_path / "traj.csv"
        result.write_csv(csv_path)
        data = read_trajectory_csv(csv_path)
        assert tuple(data.keys()) == CSV_COLUMNS
        np.testing.assert_array_equal(data["x"], result.x)
        np.testing.assert_array_equal(data["delta_F"], result.delta_f)

    def test_header_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="bad header"):
            read_trajectory_csv(bad)

    def test_row_length_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n1,2\n")
        with pytest.raises(ValueError, match="row 2"):
            read_trajectory_csv(bad)

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.csv"
        row = ["1"] * len(CSV_COLUMNS)
        row[4] = "oops"
        bad.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match="column 'theta'"):
            read_trajectory_csv(bad)

    def test_empty_file_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trajectory_csv(bad)


class TestDeterminism:
    def test_identical_runs_identical_series(self, simple_setup):
        env, path, params, config = simple_setup
        r1 = run_episode(env, path, params, "triangle", config)
        r2 = run_episode(env, path, params, "triangle", config)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.delta_f, r2.delta_f)


class TestCompareMethods:
    def test_obstacle_free_travel_times_nearly_identical(self, simple_setup):
        # with clearance dominated by distant walls the prediction shape
        # barely matters
        env, path, params, _ = simple_setup
        config = SimConfig(step=0.01, max_time=40.0, goal_tolerance=2e-4,
                           prediction_step=0.02)
        results = [run_episode(env, path, params, method, config) for method in METHODS]
        times = [r.travel_time for r in results]
        assert all(r.converged and not r.collision_flag for r in results)
        assert (max(times) - min(times)) / min(times) < 0.15


class TestPauseSignals:
    def test_open_triangle_pause_window(self, monkeypatch):
        # clearance forced to zero for evaluations 100-199, the four stages
        # of steps 25-49: the path parameter stands still for 25 node
        # intervals, one pause, and resumes
        sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "open.yaml")
        calls = []
        real = simulation.safety_distance

        def windowed(env, pred):
            calls.append(None)
            return 0.0 if 100 < len(calls) <= 200 else real(env, pred)

        monkeypatch.setattr(simulation, "safety_distance", windowed)
        res = run_episode(sc.environment, sc.path, sc.controller, "triangle", sc.sim)
        summary = res.summary()
        steps = len(res.t) - 1
        assert res.converged
        assert summary["pause_intervals"] == 1
        assert summary["paused_fraction"] == 25 / steps
        assert summary["min_delta_f"] == 0.0 and summary["min_delta_f_t"] == res.t[25]
        assert np.all(res.s[25:51] == res.s[25])
        assert res.s[24] < res.s[25] < res.s[51]
