import dataclasses
import math
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headway_sim import environment, simulation
from headway_sim.environment import (
    ClearanceChain,
    ClearanceError,
    Environment,
    ReferencePath,
    _rounding_bound,
    path_clearance,
    safety_distance,
)
from headway_sim.geom import _BLOCK_PAIRS, Polygon, Vec2
from headway_sim.ode import SimConfig
from headway_sim.prediction import Disk, PredictionSet, Tri
from headway_sim.scenario import load_scenario, scenario_from_dict
from headway_sim.simulation import (
    CSV_COLUMNS,
    METHODS,
    governor_field,
    prediction_set,
    read_trajectory_csv,
    run_episode,
)
from headway_sim.unicycle import ControllerParams, UnicycleState, wrap_angle

ROOT = Path(__file__).resolve().parent.parent


def square(side, x0=0.0, y0=0.0):
    return Polygon([Vec2(x0, y0), Vec2(x0 + side, y0),
                    Vec2(x0 + side, y0 + side), Vec2(x0, y0 + side)])


def _must_not_run(*args, **kwargs):
    raise AssertionError("a field evaluation ran before the settings were checked")


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

    @pytest.mark.parametrize("change, says", [
        ({"clearance_gain": 1e4}, r"^step 0.01 s .* 1e\+04 1/s is 100, beyond RK4's stability"),
        ({"goal_tolerance": 1e-6}, r"^goal_tolerance 1e-06 m is below the controller's "
                                   r"goal_tolerance 0.0001 m"),
        ({"goal_tolerance": 0.0}, r"^goal_tolerance 0 m: the robot approaches the path end "
                                  r"exponentially"),
    ], ids=["clearance-gain", "stop-radius", "zero-stop-radius"])
    def test_rejects_settings_that_cannot_end_safely(self, change, says, simple_setup,
                                                      monkeypatch):
        env, path, params, config = simple_setup
        if change.get("goal_tolerance") == 0.0:  # with the freeze radius at 0 as well
            params = dataclasses.replace(params, goal_tolerance=0.0)
        monkeypatch.setattr(simulation, "governor_field", _must_not_run)
        with pytest.raises(ValueError, match=says):
            run_episode(env, path, params, "triangle", dataclasses.replace(config, **change))

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
        sc = load_scenario(ROOT / "scenarios" / "open.yaml")
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

    def test_inner_budget_fault_keeps_the_logged_nodes(self, simple_setup, monkeypatch):
        # the 41st prediction set is stage 1 of node 10: nodes 0-9 are
        # logged, as a run without the fault logs them, and the partial
        # result is not converged
        env, path, params, _ = simple_setup
        config = SimConfig(step=0.01, max_time=0.2, goal_tolerance=2e-4)
        full = run_episode(env, path, params, "forward-sim", config)
        real, calls = simulation.forward_sim_prediction, []

        def failing(*args):
            calls.append(None)
            hull = real(*args)
            return PredictionSet(hull.points, hull.padding, converged=len(calls) <= 40)

        monkeypatch.setattr(simulation, "forward_sim_prediction", failing)
        with pytest.raises(simulation.NonConvergenceError, match=r"from t=0\.100s") as info:
            run_episode(env, path, params, "forward-sim", config)
        partial = info.value.result
        assert not partial.converged and partial.n_governor_evals == 40
        assert len(partial.t) == 10 and partial.travel_time == full.t[9]
        for got, want in zip(partial.columns(), full.columns()):
            assert got.tobytes() == want[:10].tobytes()

    def test_inner_budget_fault_at_the_start_has_no_result(self, simple_setup, monkeypatch):
        real = simulation.forward_sim_prediction

        def failing(*args):
            hull = real(*args)
            return PredictionSet(hull.points, hull.padding, converged=False)

        monkeypatch.setattr(simulation, "forward_sim_prediction", failing)
        with pytest.raises(simulation.NonConvergenceError) as info:
            run_episode(*simple_setup[:3], "forward-sim", simple_setup[3])
        assert info.value.result is None

    def test_initial_theta_defaults_to_path_direction(self, simple_setup):
        env, path, params, config = simple_setup
        result = run_episode(env, path, params, "circle", config)
        assert result.theta[0] == pytest.approx(0.0, abs=1e-12)
        result2 = run_episode(env, path, params, "circle", config,
                              initial_theta=math.pi / 2)
        assert result2.theta[0] == pytest.approx(math.pi / 2)
        assert result2.converged and not result2.collision_flag

    @pytest.mark.parametrize("theta, first", [
        (math.pi, math.pi), (-3.0, -3.0), (-math.pi, -math.pi), (3 * math.pi, -math.pi),
        (-2.5 - 4 * math.pi, -2.5)])
    def test_initial_heading_outside_the_range_is_wrapped(self, theta, first, simple_setup,
                                                          monkeypatch):
        # the first evaluation sees a heading in (-pi, pi] as given, and
        # wrap_angle's value of any other one
        seen = []

        def stop(env, path, params, method, config, s, x, y, th, *rest):
            seen.append(th)
            raise RuntimeError("stop")

        monkeypatch.setattr(simulation, "governor_field", stop)
        with pytest.raises(RuntimeError, match="stop"):
            run_episode(*simple_setup[:3], "circle", simple_setup[3], initial_theta=theta)
        assert seen == [pytest.approx(first, abs=1e-12)]
        if not -math.pi < theta <= math.pi:
            assert seen == [wrap_angle(theta)]

    @pytest.mark.parametrize("method", ["circle", "triangle"])
    @pytest.mark.parametrize("theta", [1.0e300, 1.0e17])
    def test_huge_initial_heading_converges(self, theta, method):
        # unwrapped, RK4's heading increments rounded away while the sets
        # saw the wrapped heading: at 1e300 the triangle run collided
        # (min_margin -2.13 m), and at 1e17 both methods ran out their
        # horizon
        sc = load_scenario(ROOT / "scenarios" / "open.yaml")
        res = run_episode(sc.environment, sc.path, sc.controller, method, sc.sim, theta)
        assert res.theta[0] == wrap_angle(theta)
        assert res.converged and not res.collision_flag and res.min_margin >= 0.6995


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_diagnostic(self, cell, tmp_path):
        bad = tmp_path / "bad.csv"
        row = ["1"] * len(CSV_COLUMNS)
        row[2] = cell
        bad.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match="row 2, column 'x': not a finite number"):
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
        # of steps 25-49 (each evaluation builds one prediction set): the
        # path parameter stands still for 25 node intervals and resumes, and
        # the clearance term binds on each of them
        sc = load_scenario(ROOT / "scenarios" / "open.yaml")
        evals = []
        real_set, real_clearance = simulation.prediction_set, simulation.safety_distance

        def counted(*args):
            evals.append(None)
            return real_set(*args)

        def windowed(env, pred, free_side=False):
            return 0.0 if 100 < len(evals) <= 200 else real_clearance(env, pred, free_side)

        monkeypatch.setattr(simulation, "prediction_set", counted)
        monkeypatch.setattr(simulation, "safety_distance", windowed)
        res = run_episode(sc.environment, sc.path, sc.controller, "triangle", sc.sim)
        summary = res.summary()
        assert res.converged
        assert summary["min_delta_f"] == 0.0 and summary["min_delta_f_t"] == res.t[25]
        assert np.all(res.s[25:51] == res.s[25])
        assert res.s[24] < res.s[25] < res.s[51]
        # the share of steps whose logged clearance rate is below the
        # endpoint pull, the window's 25 among them
        bound = (sc.sim.clearance_gain * res.delta_f[:-1]
                 < sc.sim.endpoint_gain * (sc.path.length - res.s[:-1]))
        assert bound[25:50].all()
        assert summary["clearance_bound_fraction"] == bound.mean()
        assert "paused_fraction" not in summary and "pause_intervals" not in summary

    def test_reads_across_shipped_scenes(self):
        # the clearance term binds on a tenth of open/triangle's steps and
        # on most of office/circle's
        fractions = {}
        for scene, method in (("open", "triangle"), ("office", "circle")):
            sc = load_scenario(ROOT / "scenarios" / f"{scene}.yaml")
            res = run_episode(sc.environment, sc.path, sc.controller, method, sc.sim)
            fractions[scene] = res.summary()["clearance_bound_fraction"]
        assert 0.05 < fractions["open"] < 0.2 and 0.8 < fractions["office"] < 0.95


@pytest.fixture(scope="module")
def certificate_scenes(bench_modules):
    scenes = bench_modules[1]
    return {"office": load_scenario(ROOT / "scenarios" / "office.yaml"),
            "cluttered": scenario_from_dict(scenes.cluttered_scene(1))}


def _spread(p1, p2):
    """The certificate's h: the largest distance between points of the same
    index plus the difference of the paddings."""
    return (float(np.hypot(*(p2.points - p1.points).T).max())
            + abs(p2.padding - p1.padding))


_unit = st.floats(0.0, 1.0)
_nudge = st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2), st.floats(-1e-6, 1e-6))


class TestStageCertificate:
    """Stages 2-4 of a step skip their clearance query when the chain's
    last queried set certifies that the endpoint pull binds, and a chained
    query skips its side tests when the last queried set certifies the free
    side and the binding columns (module docstring of ``environment``)."""

    @pytest.mark.parametrize("name", ["office", "cluttered"])
    @pytest.mark.parametrize("method", ["circle", "triangle"])
    @settings(max_examples=150, deadline=None)
    @given(at=_unit, offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           th=st.floats(-math.pi, math.pi), nudge=st.tuples(_nudge, _nudge, _nudge, _nudge),
           ulp=st.booleans(), earlier=st.booleans())
    def test_clearance_bound_is_sound(self, certificate_scenes, name, method, at, offset,
                                      th, nudge, ulp, earlier):
        # nearby states, or states one ulp apart in every coordinate; all
        # nudges 0 gives h = 0
        sc = certificate_scenes[name]
        env, path = sc.environment, sc.path
        s = at * path.length
        goal = path.point_at(s)
        x, y = goal.x + offset[0], goal.y + offset[1]
        if ulp:
            s0, x0, y0, th0 = (math.nextafter(v, -math.inf) for v in (s, x, y, th))
            s2, x2, y2, th2 = (math.nextafter(v, math.inf) for v in (s, x, y, th))
        else:
            s0, x0, y0, th0 = (v - d for v, d in zip((s, x, y, th), nudge))
            s2, x2, y2, th2 = (v + d for v, d in zip((s, x, y, th), nudge))
        p1 = prediction_set(method, UnicycleState(Vec2(x, y), th), goal, sc.controller,
                            sc.sim)
        p2 = prediction_set(method, UnicycleState(Vec2(x2, y2), th2), path.point_at(s2),
                            sc.controller, sc.sim)
        clearance, tau = safety_distance(env, p1), _rounding_bound(env)
        bound = clearance - 2.0 * _spread(p1, p2) - tau
        assert bound <= 0.0 or safety_distance(env, p2) >= bound
        # the run's certificate is this bound from the chain's last queried
        # set, p1, also when p1 is a later stage's set after p0's query: it
        # passes an endpoint pull just below it and refuses one just above
        chain = ClearanceChain(env)
        if earlier:
            p0 = prediction_set(method, UnicycleState(Vec2(x0, y0), th0), path.point_at(s0),
                                sc.controller, sc.sim)
            safety_distance(env, p0, chain)
        assert safety_distance(env, p1, chain) == clearance
        gain = sc.sim.clearance_gain
        assert chain.pull_binds(p2, gain * bound - 1e-9, gain)
        assert not chain.pull_binds(p2, gain * bound + 1e-9, gain)

    @pytest.mark.parametrize("name", ["office", "cluttered"])
    @pytest.mark.parametrize("method", ["circle", "triangle"])
    @settings(max_examples=150, deadline=None)
    @given(at=_unit, anywhere=st.one_of(st.none(), st.tuples(_unit, _unit)),
           offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           th=st.floats(-math.pi, math.pi),
           nudge=st.tuples(*[st.one_of(_nudge, st.floats(-1.0, 1.0))] * 5))
    def test_free_side_is_sound(self, certificate_scenes, name, method, at, anywhere,
                                offset, th, nudge):
        # goals on the path, or anywhere in the scene's box grown by half
        # its size on each side, so that many first sets are on the wrong
        # side; the later goal moves with the path parameter or by a nudge,
        # and nudges up to 1 m reach past the certified distance
        sc = certificate_scenes[name]
        env, path = sc.environment, sc.path
        if anywhere is None:
            s = at * path.length
            goal, goal2 = path.point_at(s), path.point_at(s + nudge[4])
        else:
            lo, hi = env.workspace.xy.min(axis=0), env.workspace.xy.max(axis=0)
            gx, gy = (lo + (np.array(anywhere) * 2.0 - 0.5) * (hi - lo)).tolist()
            goal, goal2 = Vec2(gx, gy), Vec2(gx + nudge[4], gy - nudge[3])
        x, y = goal.x + offset[0], goal.y + offset[1]
        p1 = prediction_set(method, UnicycleState(Vec2(x, y), th), goal, sc.controller, sc.sim)
        p2 = prediction_set(method, UnicycleState(Vec2(x + nudge[0], y + nudge[1]),
                                                  th + nudge[2]),
                            goal2, sc.controller, sc.sim)
        chain = ClearanceChain(env)
        clearance = safety_distance(env, p1, chain)
        assert chain.kind == "full" and clearance.hex() == safety_distance(env, p1).hex()
        later = safety_distance(env, p2, chain)
        free = chain.kind == "culled"  # the side tests were skipped
        assert later.hex() == safety_distance(env, p2).hex()
        # a first set on the wrong side or at the boundary never certifies
        assert clearance > 0.0 or not free

    @pytest.mark.parametrize("name", ["office", "cluttered"])
    @pytest.mark.parametrize("method", ["circle", "triangle"])
    @settings(max_examples=150, deadline=None)
    @given(anywhere=st.tuples(_unit, _unit),
           offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           th=st.floats(-math.pi, math.pi), heading=st.floats(-math.pi, math.pi),
           reach=st.one_of(st.floats(0.0, 2.0), st.floats(0.999, 1.0),
                           st.floats(0.4999, 0.5001)))
    def test_free_side_is_sound_at_its_bound(self, certificate_scenes, name, method,
                                             anywhere, offset, th, heading, reach):
        # the later set is the first one moved by ``reach`` times the
        # distance its points keep from the boundary, d = clearance_1 +
        # robot_radius + padding_1: up to d the move is certified and may
        # end a rounding allowance from the boundary, beyond it the set
        # may cross.  The first query is a full one, whose least column
        # lies at d, so the kept columns can bind up to a move of d / 2
        sc = certificate_scenes[name]
        env = sc.environment
        lo, hi = env.workspace.xy.min(axis=0), env.workspace.xy.max(axis=0)
        gx, gy = (lo + (np.array(anywhere) * 2.0 - 0.5) * (hi - lo)).tolist()
        p1 = prediction_set(method, UnicycleState(Vec2(gx + offset[0], gy + offset[1]), th),
                            Vec2(gx, gy), sc.controller, sc.sim)
        chain = ClearanceChain(env)
        clearance = safety_distance(env, p1, chain)
        limit, best = chain.limit, chain.best
        move = reach * (clearance + env.robot_radius + p1.padding)
        moved = p1.points + [move * math.cos(heading), move * math.sin(heading)]
        p2 = Tri(moved) if p1.filled else PredictionSet(moved, p1.padding)
        later = safety_distance(env, p2, chain)
        free = chain.kind == "culled"  # the side tests were skipped
        assert later.hex() == safety_distance(env, p2).hex()
        # the sides are skipped exactly when both the side bound and the
        # column bound hold for the measured m
        m = max(math.hypot(bx - ax, by - ay)
                for (bx, by), (ax, ay) in zip(moved.tolist(), p1.points.tolist()))
        side = clearance > 0.0 and m + chain.tau < clearance + env.robot_radius + p1.padding
        columns = limit - m >= best + m + chain.tau
        assert free == (side and columns)
        # d >= robot_radius, so tau / d < 1e-7: the side certificate holds
        # for every move below d but the last part in a million, and no
        # further, and the column certificate likewise up to d / 2
        if abs(reach - 1.0) > 1e-6:
            assert side == (clearance > 0.0 and reach < 1.0)
        if clearance > 0.0 and abs(reach - 0.5) > 1e-6:
            assert columns == (reach < 0.5)

    @pytest.mark.parametrize("method", ["circle", "triangle"])
    def test_wrong_side_first_stage_never_certifies(self, certificate_scenes, method):
        # office's first obstacle spans x 3.0-3.8: a point at its middle
        # lies 0.4 m inside, deeper than the 0.3 m robot radius, and the
        # triangle's long edge crosses it with every vertex 0.5 m clear.
        # Both sets report clearance 0.0, and the later set, 0.01 m away,
        # lies within robot_radius + padding_1 of it; without the guard
        # clearance_1 > 0 it would certify, and its shortened query would
        # report a positive clearance
        env = certificate_scenes["office"].environment
        if method == "circle":
            p1, p2 = Disk(Vec2(3.4, 3.2), 0.0), Disk(Vec2(3.41, 3.2), 0.0)
        else:
            p1 = Tri([[2.5, 1.0], [4.3, 1.0], [2.5, 1.2]])
            p2 = Tri([[2.5, 1.01], [4.3, 1.01], [2.5, 1.21]])
        chain = ClearanceChain(env)
        clearance = safety_distance(env, p1, chain)
        assert clearance == 0.0 == safety_distance(env, p2)
        assert 0.01 + chain.tau < env.robot_radius + p1.padding
        assert not chain.pull_binds(p2, 0.0, 4.0)
        # with every column kept and a column certificate that always holds,
        # only the guard keeps p2's query full
        chain.limit, chain._a, chain._d, chain._safe = math.inf, env._a, env._d, env._safe
        assert safety_distance(env, p2, chain) == 0.0 and chain.kind == "full"
        # a chain that took p1's clearance for positive would skip p2's side
        # tests and report a positive clearance
        chain.points, chain.clearance = p1.points, math.ulp(0.0)
        assert safety_distance(env, p2, chain) > 0.0 and chain.kind == "culled"

    def test_rounding_bound_scales_with_the_scene(self):
        env = Environment(Polygon([Vec2(3, 4), Vec2(6, 4), Vec2(6, 8), Vec2(3, 8)]), [], 0.1)
        # the box of the workspace and the origin: (0, 0) to (6, 8)
        assert _rounding_bound(env) == 1e-9 * 10.0


def _passage_case():
    """A straight path through a passage 0.02 m wider than the robot's
    diameter: 0.01 m of path clearance."""
    walls = [Polygon([Vec2(3, 0.2), Vec2(7, 0.2), Vec2(7, 1.69), Vec2(3, 1.69)]),
             Polygon([Vec2(3, 2.31), Vec2(7, 2.31), Vec2(7, 3.8), Vec2(3, 3.8)])]
    env = Environment(Polygon([Vec2(0, 0), Vec2(10, 0), Vec2(10, 4), Vec2(0, 4)]), walls,
                      robot_radius=0.3)
    return env, ReferencePath([Vec2(0.5, 2.0), Vec2(9.5, 2.0)]), ControllerParams(), SimConfig()


def _chain_walk(env, path, params, config, seed):
    """A seeded walk of prediction sets, as (set, aligned) pairs; aligned is
    the triangle's branch, None for a disk.

    In order: triangles drifting along the path by steps of a fraction of
    its clearance; a sweep of the heading across the alignment boundary; a
    switch to disks (point count 1), the first of them moved by three
    quarters of the distance it keeps from the boundary, which certifies
    its side but not its columns, so its query is a full one too; a
    triangle whose goal is a
    boundary vertex (clearance 0.0); triangles drifting again, the last one
    moved like the disk.
    """
    rng = np.random.default_rng(seed)
    eps = params.headway_coeff
    step = min(3e-3, 0.05 * path_clearance(env, path))
    s = rng.uniform(0.0, path.length)
    goal = path.point_at(s)
    x, y = goal.x + rng.uniform(-step, step), goal.y + rng.uniform(-step, step)
    th = rng.uniform(-math.pi, math.pi)
    walk = []

    def add(method, goal, x, y, th):
        pred = prediction_set(method, UnicycleState(Vec2(x, y), th), goal, params, config)
        dx, dy = goal.x - x, goal.y - y
        r = math.hypot(dx, dy)
        aligned = None if method == "circle" else r > 0.0 and (
            math.cos(th) * dx + math.sin(th) * dy) / r >= eps
        walk.append((pred, aligned))

    def drift(method, n):
        nonlocal s, x, y, th
        for _ in range(n):
            s = min(s + rng.uniform(0.0, 3.0 * step), path.length)
            x, y = x + rng.uniform(-step, step), y + rng.uniform(-step, step)
            th += rng.uniform(-0.02, 0.02)
            add(method, path.point_at(s), x, y, th)

    def move_last():
        pred, aligned = walk[-1]
        reach = safety_distance(env, pred) + env.robot_radius + pred.padding
        heading = rng.uniform(-math.pi, math.pi)
        moved = pred.points + [0.75 * reach * math.cos(heading), 0.75 * reach * math.sin(heading)]
        walk[-1] = (Tri(moved) if pred.filled else PredictionSet(moved, pred.padding), aligned)

    drift("triangle", 12)
    goal = path.point_at(s)
    bearing = math.atan2(goal.y - y, goal.x - x)
    for turn in np.linspace(-0.05, 0.05, 8):
        add("triangle", goal, x, y, bearing + math.acos(eps) + turn)
    drift("circle", 1)
    walk.append(walk[-1])
    move_last()
    drift("circle", 6)
    vertex = env._edge_a[rng.integers(len(env._edge_a))].tolist()
    add("triangle", Vec2(*vertex), vertex[0] + step, vertex[1] - step, th)
    drift("triangle", 8)
    walk.append(walk[-1])
    move_last()
    return walk


_WALK_SCENES = ("office", "cluttered", "passage")


@pytest.fixture(scope="module")
def walk_scenes(certificate_scenes):
    scenes = {name: (sc.environment, sc.path, sc.controller, sc.sim)
              for name, sc in certificate_scenes.items()}
    scenes["passage"] = _passage_case()
    return scenes


class TestClearanceChain:
    """Chained queries along seeded walks equal the full query bit for bit,
    and each makes the kind of query the ``environment`` docstring's
    argument allows: full or culled."""

    @staticmethod
    def _run(env, walk):
        """Query the walk through one chain; returns the events seen."""
        chain = ClearanceChain(env)
        seen = set()
        last = None  # the last queried set and its clearance
        for pred, aligned in walk:
            before = (chain.limit, chain.moved, chain.best)
            clearance = safety_distance(env, pred, chain)
            assert clearance.hex() == safety_distance(env, pred).hex()
            rows = pred.points.tolist()
            # the side certificate: the last set's clearance is positive,
            # it has as many points and the same fill, and it lies within
            # m + tau < clearance + robot_radius + padding
            side = last is not None and last[1] > 0.0 and len(rows) == len(last[0].points)
            if side and pred.filled == last[0].filled:
                m = max(math.hypot(bx - ax, by - ay)
                        for (bx, by), (ax, ay) in zip(rows, last[0].points.tolist()))
                side = m + chain.tau < last[1] + env.robot_radius + last[0].padding
            else:
                side = False
            culled = False
            if side:  # the kept columns can bind while limit - D >= best + m + tau
                limit, moved, best = before
                culled = limit - (moved + m) >= best + m + chain.tau
                if not culled:
                    seen.add("side only")
            assert chain.kind == ("culled" if culled else "full")
            seen.add(chain.kind)
            if last is not None:
                if last[1] == 0.0:
                    seen.add("after zero")
                if len(rows) != len(last[0].points):
                    seen.add("count change")
                if aligned is not None and last[2] is not None and aligned != last[2] \
                        and chain.kind != "full":
                    seen.add("branch switch")
            last = (pred, clearance, aligned)
        return seen

    @pytest.mark.parametrize("name", _WALK_SCENES)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_query(self, walk_scenes, name, seed):
        env, path, params, config = walk_scenes[name]
        self._run(env, _chain_walk(env, path, params, config, seed))

    @pytest.mark.parametrize("name", _WALK_SCENES)
    def test_walks_reach_every_kind(self, walk_scenes, name):
        # the first seeds' walks make both kinds of query, certify a side
        # but not the columns, break the chain at a boundary vertex, change
        # the point count and cross the triangle's alignment boundary
        # inside the chain
        env, path, params, config = walk_scenes[name]
        seen = set()
        for seed in range(3):
            seen |= self._run(env, _chain_walk(env, path, params, config, seed))
        assert seen == {"full", "culled", "side only", "after zero", "count change",
                        "branch switch"}

    @pytest.mark.parametrize("case", ["open/triangle", "office/circle"])
    def test_measures_each_move_once(self, case, monkeypatch):
        # one m an evaluation after the first: a later stage's pull test
        # measures it and the query that follows reuses it
        scene, method = case.split("/")
        sc = load_scenario(ROOT / "scenarios" / f"{scene}.yaml")
        calls = []
        real = environment._index_move
        monkeypatch.setattr(environment, "_index_move",
                            lambda b, a: calls.append(None) or real(b, a))
        res = run_episode(sc.environment, sc.path, sc.controller, method, sc.sim)
        assert len(calls) == res.n_governor_evals - 1

    def test_refuses_a_chain_of_another_environment(self, walk_scenes):
        env, other = walk_scenes["office"][0], walk_scenes["passage"][0]
        with pytest.raises(ValueError, match="another environment"):
            safety_distance(env, Disk(Vec2(1.0, 1.0), 0.1), ClearanceChain(other))


def _reference_episode(env, path, params, method, config):
    """``run_episode``'s loop as it was before the stage certificate: the
    full ``governor_field`` at every stage.  Returns the node columns up to
    ``pred_radius``, the final time, the evaluation count and whether the
    run converged."""
    goal_end = path.point_at(path.length)
    x, y, th = path.point_at(0.0).x, path.point_at(0.0).y, simulation._default_initial_theta(path)
    t = s = 0.0
    log = array("d")
    evals = 0
    converged = False

    def field(*state):
        nonlocal evals
        evals += 1
        return governor_field(env, path, params, method, config, *state)

    while True:
        k1 = field(s, x, y, th)
        log.extend((t, s, x, y, th, k1[4], k1[3], k1[5], k1[6]))
        dist_end = math.hypot(goal_end.x - x, goal_end.y - y)
        if path.length - s <= config.goal_tolerance and dist_end <= config.goal_tolerance:
            converged = True
            break
        if t >= config.max_time - 1e-12:
            break
        dt = min(config.step, config.max_time - t)
        half = 0.5 * dt
        sixth = dt / 6.0
        k2 = field(s + half * k1[0], x + half * k1[1], y + half * k1[2], th + half * k1[3])
        k3 = field(s + half * k2[0], x + half * k2[1], y + half * k2[2], th + half * k2[3])
        k4 = field(s + dt * k3[0], x + dt * k3[1], y + dt * k3[2], th + dt * k3[3])
        s += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        x += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        y += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        th += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        s = min(max(s, 0.0), path.length)
        t += dt
    return np.frombuffer(log).reshape(-1, 9).T, t, evals, converged


def _short_forward_sim_case():
    env = Environment(square(10), [Polygon([Vec2(3, 6), Vec2(5, 6), Vec2(5, 7), Vec2(3, 7)])],
                      robot_radius=0.5)
    path = ReferencePath([Vec2(2, 5), Vec2(5, 5)])
    params = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)
    config = SimConfig(step=0.01, max_time=40.0, goal_tolerance=2e-4, prediction_step=0.05)
    return env, path, params, config


class TestStagesMatchFullEvaluations:
    """``run_episode`` with the stage certificate and the clearance chain
    equals, bit for bit, the loop that runs the full governor at every
    stage, while later stages make fewer clearance queries and no
    goal-radius calls, and the parity runs once per full query."""

    @pytest.mark.parametrize("case", ["open/triangle", "office/circle", "short/forward-sim"])
    def test_identical_to_full_evaluations(self, case, monkeypatch):
        scene, method = case.split("/")
        if scene == "short":
            env, path, params, config = _short_forward_sim_case()
        else:
            sc = load_scenario(ROOT / "scenarios" / f"{scene}.yaml")
            env, path, params, config = sc.environment, sc.path, sc.controller, sc.sim
        columns, t, evals, converged = _reference_episode(env, path, params, method, config)

        counts = {"safety_distance": 0, "prediction_goal_radius": 0, "_wrong_side": 0,
                  "_crossings": 0, "full": 0, "culled": 0}
        for name in list(counts)[:4]:
            module = environment if name.startswith("_") else simulation
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                value = _real(*args)
                if _name == "safety_distance":  # every query passes the episode's chain
                    counts[args[2].kind] += 1
                return value

            monkeypatch.setattr(module, name, counted)
        res = run_episode(env, path, params, method, config)

        assert res.converged == converged and res.travel_time == t
        assert res.n_governor_evals == evals
        for got, want in zip(res.columns(), columns):
            assert got.tobytes() == want.tobytes()
        nodes = len(res.t)
        later = evals - nodes  # three stages a step
        assert counts["prediction_goal_radius"] == nodes
        # each node's first stage queries and some later stages skip; on
        # open/triangle, where the endpoint pull binds on nine steps in
        # ten, more than three quarters of them skip
        assert nodes <= counts["safety_distance"] < evals
        if case == "open/triangle":
            assert counts["safety_distance"] < nodes + 0.25 * later
        # the parity runs once per margin block: the path clearance's vertex
        # margins take ceil(waypoints / rows) blocks, one on these three
        # scenes, and the node margins ceil(nodes / rows); and once per full
        # query of the chain, whose culled queries inherit the free side; a
        # triangle's crossings follow a parity that passed
        rows = max(1, _BLOCK_PAIRS // len(env._edge_a))
        path_blocks, blocks = -(-len(path.waypoints) // rows), -(-nodes // rows)
        assert path_blocks == 1
        parity = counts["_wrong_side"] - path_blocks - blocks
        assert counts["full"] + counts["culled"] == counts["safety_distance"]
        assert parity == counts["full"]
        assert counts["_crossings"] == (parity if method == "triangle" else 0)
        if case != "short/forward-sim":
            # a full query for fewer than one query in fifty, and the rest
            # read only the kept columns
            assert counts["full"] < 0.02 * counts["safety_distance"]
        else:  # a set whose inner run differs in length re-seeds the chain
            assert 1 < counts["full"] < counts["culled"]
