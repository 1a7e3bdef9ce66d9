import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from headway_sim import cli, simulation
from headway_sim import scenario as scenario_module
from headway_sim.cli import (
    EXIT_CLEARANCE,
    EXIT_COLLISION,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_SCHEMA,
    _episode_exit,
    main,
)
from headway_sim.prediction import PredictionSet
from headway_sim.simulation import EpisodeResult, read_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _cli_subprocess(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so a run that never ends fails the
    test at the timeout instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "headway_sim.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_import_loads_no_undeclared_packages():
    # scipy, sympy and hypothesis are installed here but are not
    # dependencies; importing one would add its load time to every run
    # (scipy.spatial alone takes most of a second)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    code = ("import sys, headway_sim, headway_sim.cli; "
            "print(*sorted({'scipy', 'sympy', 'hypothesis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def _must_not_run(*args, **kwargs):
    raise AssertionError("an episode ran before the options were checked")


@pytest.fixture
def corridor(tmp_path):
    target = tmp_path / "corridor.yaml"
    shutil.copy(SCENARIO_DIR / "corridor.yaml", target)
    return target


def _edit_scenario(path, mutate):
    data = yaml.safe_load(path.read_text())
    mutate(data)
    text = yaml.safe_dump(data)
    path.write_text(text)
    # the scenario module's loader reads what was written as PyYAML's own does
    assert (yaml.load(text, Loader=scenario_module._LOADER)
            == yaml.load(text, Loader=yaml.SafeLoader))


class TestValidate:
    def test_ok(self, corridor):
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_OK

    def test_schema_exit(self, corridor):
        _edit_scenario(corridor, lambda d: d["controller"].update(headway_coeff=1.2))
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_SCHEMA

    def test_clearance_exit(self, corridor):
        _edit_scenario(corridor, lambda d: d.update(path=[[0.1, 1.2], [9.9, 1.2]]))
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_CLEARANCE

    def test_path_through_obstacle_says_so(self, corridor, capsys):
        _edit_scenario(corridor, lambda d: d.update(
            obstacles=[[[4, 0.2], [8, 0.2], [8, 2.2], [4, 2.2]]]))
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_CLEARANCE
        err = capsys.readouterr().err
        assert "touches or crosses an obstacle or the workspace boundary" in err
        assert "-0.300000" not in err

    def test_path_through_obstacle_vertex_says_so(self, corridor, capsys):
        _edit_scenario(corridor, lambda d: d.update(
            workspace=[[-10, -10], [10, -10], [10, 10], [-10, 10]],
            obstacles=[[[0.5, 0.18000000000000002], [0.3, 0.5], [0.2, 0.1]]],
            robot_radius=0.01, path=[[0.5, 0], [0.5, 1.8]]))
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_CLEARANCE
        assert "touches or crosses" in capsys.readouterr().err

    @pytest.mark.parametrize("gain", ["clearance_gain", "endpoint_gain"])
    def test_infinite_gain_refused(self, gain, tmp_path, capsys):
        # passed validation, then `run` died on a NaN path rate (inf * 0)
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)
        _edit_scenario(scenario, lambda d: d["governor"].update({gain: float("inf")}))
        assert main(["validate", "--scenario", str(scenario)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [
            "scenario validation failed:",
            f"  - integrator/governor: {gain} must be positive and finite, got inf"]

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("section, key, message", [
        (None, "robot_radius", "robot_radius: must be positive and finite"),
        ("integrator", "step", "integrator/governor: step must be positive and finite"),
        ("integrator", "max_time", "integrator/governor: max_time must be positive and finite"),
        ("integrator", "goal_tolerance",
         "integrator/governor: goal_tolerance must be finite and >= 0"),
        ("controller", "ref_gain", "controller: ref_gain must be positive and finite"),
        ("controller", "goal_tolerance", "controller: goal_tolerance must be finite and >= 0"),
    ])
    def test_non_finite_value_refused(self, section, key, message, value, corridor, capsys):
        # the message says "finite" wherever the check refuses inf and nan;
        # written directly, as a nan never compares equal across two loads
        data = yaml.safe_load(corridor.read_text())
        (data if section is None else data[section])[key] = value
        corridor.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(corridor)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [
            "scenario validation failed:", f"  - {message}, got {value}"]

    def test_misspelled_obstacles_refused(self, tmp_path, capsys):
        # a typo must not drop every obstacle
        scenario = tmp_path / "office.yaml"
        shutil.copy(SCENARIO_DIR / "office.yaml", scenario)
        _edit_scenario(scenario, lambda d: d.update(obstacle=d.pop("obstacles")))
        assert main(["validate", "--scenario", str(scenario)]) == EXIT_SCHEMA
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "scenario validation failed:"
        assert err[1].startswith("  - obstacle: unknown key; expected one of [")
        assert len(err) == 2

    def test_parse_exit(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nope: [unclosed\n")
        assert main(["validate", "--scenario", str(bad)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("loader", ["module", "pure-python"])
    def test_parse_error_names_path_line_and_column(self, loader, tmp_path, capsys,
                                                    monkeypatch):
        # libyaml's message drops the source snippet PyYAML's own prints
        if loader == "pure-python":
            monkeypatch.setattr(scenario_module, "_LOADER", yaml.SafeLoader)
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [1, 2\n")
        assert main(["validate", "--scenario", str(bad)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"scenario parse error: {bad}: YAML parse error: ")
        assert "while parsing a flow sequence" in err
        assert "line 1, column 4" in err


class TestRun:
    def test_writes_outputs(self, corridor, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--scenario", str(corridor), "--out", str(out)])
        assert code == EXIT_OK
        run_dir = out / "corridor_triangle"
        assert (run_dir / "trajectory.csv").exists()
        assert (run_dir / "summary.yaml").exists()
        assert (run_dir / "trajectory.svg").exists()
        summary = yaml.safe_load((run_dir / "summary.yaml").read_text())
        assert summary["converged"] is True
        assert summary["collision"] is False

    def test_output_path_that_is_a_file_refused(self, corridor, tmp_path, capsys, monkeypatch):
        # refused before the episode, not after it
        monkeypatch.setattr(cli, "run_episode", _must_not_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["run", "--scenario", str(corridor), "--out", str(taken)])
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err
        assert err.count("\n") == 1

    def test_nonconvergence_exit(self, corridor, tmp_path):
        code = main(["run", "--scenario", str(corridor), "--out", str(tmp_path / "o"),
                     "--max-time", "0.5"])
        assert code == EXIT_NONCONVERGENCE

    def test_forward_sim_nonconvergence_writes_partial_run(self, corridor, tmp_path):
        # the inner prediction horizon does not shrink with the episode horizon
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(corridor), "--method", "forward-sim",
                     "--out", str(out), "--max-time", "1"])
        assert code == EXIT_NONCONVERGENCE
        for name in ("trajectory.csv", "summary.yaml", "trajectory.svg"):
            assert (out / "corridor_forward-sim" / name).exists()

    def test_inner_budget_fault_writes_the_logged_nodes(self, corridor, tmp_path, capsys,
                                                        monkeypatch):
        # a forward simulation that fails at stage 1 of node 10 (the 41st
        # prediction set) ends the run with exit 3 and the ten nodes before
        # it written, as a max_time exit writes them
        real, calls = simulation.forward_sim_prediction, []

        def failing(*args):
            calls.append(None)
            hull = real(*args)
            return PredictionSet(hull.points, hull.padding, converged=len(calls) <= 40)

        monkeypatch.setattr(simulation, "forward_sim_prediction", failing)
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(corridor), "--method", "forward-sim",
                     "--out", str(out)])
        assert code == EXIT_NONCONVERGENCE
        assert capsys.readouterr().err.startswith("non-convergence: forward simulation")
        run = out / "corridor_forward-sim"
        for name in ("trajectory.csv", "summary.yaml", "trajectory.svg"):
            assert (run / name).exists()
        assert len(read_trajectory_csv(run / "trajectory.csv")["t"]) == 10
        summary = yaml.safe_load((run / "summary.yaml").read_text())
        assert summary["converged"] is False and summary["n_governor_evals"] == 40

    @pytest.mark.parametrize("dt", ["5", "1e300"])
    def test_oversized_step_refused(self, dt, tmp_path, capsys):
        # such a step used to diverge and exit 4 with speeds near 1e13 m/s
        code = main(["run", "--scenario", str(SCENARIO_DIR / "open.yaml"),
                     "--method", "triangle", "--dt", dt, "--out", str(tmp_path / "o")])
        assert code == EXIT_SCHEMA
        assert "RK4's stability limit 2.785" in capsys.readouterr().err
        assert not (tmp_path / "o" / "open_triangle").exists()

    def test_step_too_small_for_the_clock_refused(self, tmp_path):
        # at 1e-300 s, t += dt stops advancing t, so the run never reached max_time
        done = _cli_subprocess("run", "--scenario", str(SCENARIO_DIR / "open.yaml"),
                               "--method", "circle", "--dt", "1e-300",
                               "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_SCHEMA
        assert "step 1e-300 s cannot advance the clock at the 60 s horizon" in done.stderr

    def test_prediction_step_too_small_for_the_clock_refused(self, tmp_path):
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)
        _edit_scenario(scenario, lambda d: d["integrator"].update(prediction_step=1e-300))
        done = _cli_subprocess("run", "--scenario", str(scenario), "--method", "forward-sim",
                               "--out", str(tmp_path / "o"))
        assert done.returncode == EXIT_SCHEMA
        assert "step 1e-300 s cannot advance the clock" in done.stderr

    def test_prediction_step_too_small_for_the_clock_fails_validation(self, tmp_path, capsys):
        # every forward-sim horizon is at least 1 s, so the step is refused
        # at load instead of only by a forward-sim run
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)
        _edit_scenario(scenario, lambda d: d["integrator"].update(prediction_step=1e-300))
        assert main(["validate", "--scenario", str(scenario)]) == EXIT_SCHEMA
        assert ("prediction_step 1e-300 s cannot advance the clock at the 1 s horizon"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scene, section, change, says", [
        ("office", "governor", {"clearance_gain": 1e4},
         "integrator: step 0.01 s times the fastest closed-loop decay rate 1e+04 1/s is 100"),
        ("open", "integrator", {"goal_tolerance": 1e-6},
         "integrator: goal_tolerance 1e-06 m is below the controller's goal_tolerance 0.0001 m"),
    ], ids=["clearance-gain", "stop-radius"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_episode_that_cannot_end_safely_refused(self, command, scene, section, change,
                                                    says, tmp_path, capsys):
        # both validated; office at clearance gain 1e4 then collided (exit 4,
        # min_margin -0.022 m), and open at stop radius 1e-6 parked inside the
        # controller's 1e-4 m freeze ball until its 60 s horizon (exit 3)
        scenario = tmp_path / f"{scene}.yaml"
        shutil.copy(SCENARIO_DIR / f"{scene}.yaml", scenario)
        _edit_scenario(scenario, lambda d: d[section].update(change))
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, "--scenario", str(scenario), *out]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines()[1].startswith(f"  - {says}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_zero_stop_radius_refused(self, command, tmp_path, capsys):
        # validated (exit 0), and run --method circle then ended at its 60 s
        # horizon 9.9e-14 m from the goal (exit 3)
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)

        def stop_at_zero(d):
            d["controller"]["goal_tolerance"] = d["integrator"]["goal_tolerance"] = 0.0

        _edit_scenario(scenario, stop_at_zero)
        out = ["--method", "circle", "--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, "--scenario", str(scenario), *out]) == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines()[1].startswith(
            "  - integrator: goal_tolerance 0 m: the robot approaches the path end "
            "exponentially and never reaches distance 0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["robot_radius", "path"])
    def test_integer_too_large_for_a_float_refused(self, command, key, tmp_path, capsys):
        # a 401-digit integer ended in an OverflowError traceback
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)
        if key == "path":
            _edit_scenario(scenario, lambda d: d["path"][1].__setitem__(1, 10 ** 400))
        else:
            _edit_scenario(scenario, lambda d: d.update(robot_radius=10 ** 400))
        out = ["--method", "circle", "--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, "--scenario", str(scenario), *out]) == EXIT_SCHEMA
        label = "path[1]" if key == "path" else key
        assert capsys.readouterr().err.splitlines() == [
            "scenario validation failed:", f"  - {label}: int too large to convert to float"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scale, word", [(1e160, "overflows"), (1e-200, "underflows")])
    def test_out_of_range_scale_refused(self, scale, word, tmp_path, capsys):
        # exited 2 with a NaN clearance at 1e160 and 1 with "repeated
        # consecutive waypoints" at 1e-200
        scenario = tmp_path / "open.yaml"
        shutil.copy(SCENARIO_DIR / "open.yaml", scenario)

        def scale_scene(d):
            for key in ("workspace", "path"):
                d[key] = [[c * scale for c in p] for p in d[key]]
            d["robot_radius"] *= scale

        _edit_scenario(scenario, scale_scene)
        code = main(["run", "--scenario", str(scenario), "--method", "triangle",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_SCHEMA
        violations = capsys.readouterr().err.splitlines()[1:]
        assert len(violations) == 1
        assert word in violations[0]
        assert "lengths must lie between about 2.2e-162 and 1.3e+154 m" in violations[0]

    def test_method_override(self, corridor, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--scenario", str(corridor), "--method", "circle",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "corridor_circle" / "trajectory.csv").exists()

    def test_env_var_output_dir(self, corridor, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("HEADWAY_SIM_OUT", str(target))
        assert main(["run", "--scenario", str(corridor)]) == EXIT_OK
        assert (target / "corridor_triangle" / "trajectory.csv").exists()

    def test_byte_identical_reruns(self, corridor, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(corridor), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--scenario", str(corridor), "--out", str(out2)]) == EXIT_OK
        for rel in ("trajectory.csv", "trajectory.svg"):
            f1 = (out1 / "corridor_triangle" / rel).read_bytes()
            f2 = (out2 / "corridor_triangle" / rel).read_bytes()
            assert f1 == f2, f"{rel} differs between identical runs"
        # summaries agree except for the wall-clock cost measurement
        s1 = yaml.safe_load((out1 / "corridor_triangle" / "summary.yaml").read_text())
        s2 = yaml.safe_load((out2 / "corridor_triangle" / "summary.yaml").read_text())
        s1.pop("governor_eval_seconds")
        s2.pop("governor_eval_seconds")
        assert s1 == s2


class TestExitMapping:
    def test_collision_takes_priority(self):
        result = EpisodeResult(
            method="circle", epsilon=0.5,
            t=np.zeros(1), s=np.zeros(1), x=np.zeros(1), y=np.zeros(1),
            theta=np.zeros(1), v=np.zeros(1), omega=np.zeros(1),
            delta_f=np.zeros(1), pred_radius=np.zeros(1), margin=np.array([-0.1]),
            converged=False, travel_time=1.0, min_margin=-0.1, avg_speed=0.0,
            collision_flag=True, peak_angular_rate=0.0, final_goal_distance=1.0,
            governor_eval_seconds=0.0, n_governor_evals=1)
        assert _episode_exit(result) == EXIT_COLLISION

    def test_nonconvergence(self):
        result = EpisodeResult(
            method="circle", epsilon=0.5,
            t=np.zeros(1), s=np.zeros(1), x=np.zeros(1), y=np.zeros(1),
            theta=np.zeros(1), v=np.zeros(1), omega=np.zeros(1),
            delta_f=np.zeros(1), pred_radius=np.zeros(1), margin=np.array([0.2]),
            converged=False, travel_time=1.0, min_margin=0.2, avg_speed=0.0,
            collision_flag=False, peak_angular_rate=0.0, final_goal_distance=1.0,
            governor_eval_seconds=0.0, n_governor_evals=1)
        assert _episode_exit(result) == EXIT_NONCONVERGENCE


class TestCompare:
    def test_two_methods(self, corridor, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(corridor),
                     "--methods", "circle,triangle", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "corridor_compare.csv").exists()
        assert (out / "corridor_compare.svg").exists()
        speeds = (out / "corridor_speeds.svg").read_text()
        assert '<polyline class="speed-profile profile0"' in speeds
        assert '<polyline class="speed-profile profile1"' in speeds
        assert (out / "corridor_circle_eps0.5" / "trajectory.csv").exists()
        table = (out / "corridor_compare.csv").read_text().splitlines()
        assert table[0].startswith("method,epsilon,travel_time")
        assert len(table) == 3

    def test_unknown_method_rejected(self, corridor, tmp_path):
        code = main(["compare", "--scenario", str(corridor),
                     "--methods", "circle,pentagon", "--out", str(tmp_path / "x")])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("methods", [",", ""])
    def test_no_method_rejected(self, methods, corridor, tmp_path, capsys, monkeypatch):
        # "," used to print an empty table and write corridor_compare.svg
        # before failing to draw the speed plot
        monkeypatch.setattr(cli, "run_episode", _must_not_run)
        out = tmp_path / "x"
        code = main(["compare", "--scenario", str(corridor),
                     "--methods", methods, "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: --methods must name one or more of ['circle', 'triangle', "
            f"'forward-sim'], got {methods!r}\n")
        assert not out.exists()

    def test_bad_epsilon_refused_before_any_run(self, corridor, tmp_path, capsys,
                                                monkeypatch):
        # 0.5 used to run and write its directory before 1.5 was refused
        monkeypatch.setattr(cli, "run_episode", _must_not_run)
        out = tmp_path / "x"
        code = main(["compare", "--scenario", str(corridor), "--methods", "circle",
                     "--epsilons", "0.5,1.5", "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: headway_coeff must be strictly between 0 and 1, got 1.5\n")
        assert not out.exists()

    def test_epsilon_that_is_not_a_number_refused(self, corridor, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(cli, "run_episode", _must_not_run)
        out = tmp_path / "x"
        code = main(["compare", "--scenario", str(corridor), "--methods", "circle",
                     "--epsilons", "0.5,abc", "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: --epsilons must be a comma-separated list of numbers, "
            "got '0.5,abc'\n")
        assert not out.exists()

    def test_unstable_step_refused_before_any_run(self, corridor, tmp_path, capsys,
                                                  monkeypatch):
        # the step is stable at eps 0.5 and not at 0.05 (rate 21 /s at 0.2 s)
        monkeypatch.setattr(cli, "run_episode", _must_not_run)
        out = tmp_path / "x"
        code = main(["compare", "--scenario", str(corridor), "--methods", "circle",
                     "--epsilons", "0.5,0.05", "--dt", "0.2", "--out", str(out)])
        assert code == EXIT_SCHEMA
        assert "RK4's stability limit 2.785" in capsys.readouterr().err
        assert not out.exists()

    def test_single_method_degenerates_to_run_outputs(self, corridor, tmp_path):
        out = tmp_path / "single"
        code = main(["compare", "--scenario", str(corridor),
                     "--methods", "triangle", "--out", str(out)])
        assert code == EXIT_OK
        run_dir = out / "corridor_triangle_eps0.5"
        assert (run_dir / "trajectory.csv").exists()
        assert (run_dir / "summary.yaml").exists()
        assert (run_dir / "trajectory.svg").exists()
        table = (out / "corridor_compare.csv").read_text().splitlines()
        assert len(table) == 2  # header plus the single run


class TestRender:
    def _run_once(self, corridor, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--scenario", str(corridor), "--out", str(out)]) == EXIT_OK
        return out / "corridor_triangle" / "trajectory.csv"

    def test_snapshot_contains_triangle(self, corridor, tmp_path):
        csv = self._run_once(corridor, tmp_path)
        svg_path = tmp_path / "fig.svg"
        code = main(["render", "--scenario", str(corridor), "--csv", str(csv),
                     "--out", str(svg_path), "--snapshots", "1.0,2.0"])
        assert code == EXIT_OK
        svg = svg_path.read_text()
        assert svg.count('<polygon class="prediction"') == 2

    def test_two_csv_overlay(self, corridor, tmp_path):
        csv = self._run_once(corridor, tmp_path)
        svg_path = tmp_path / "overlay.svg"
        code = main(["render", "--scenario", str(corridor),
                     "--csv", str(csv), "--csv", str(csv), "--out", str(svg_path)])
        assert code == EXIT_OK
        svg = svg_path.read_text()
        assert "traj0" in svg and "traj1" in svg

    def test_empty_csv_is_schema_error(self, corridor, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,s,x,y,theta,v,omega,delta_F,pred_radius,margin\n")
        code = main(["render", "--scenario", str(corridor), "--csv", str(empty),
                     "--out", str(tmp_path / "fig.svg")])
        assert code == EXIT_SCHEMA

    def test_malformed_csv_is_schema_error(self, corridor, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,s\n1,2\n")
        code = main(["render", "--scenario", str(corridor), "--csv", str(bad),
                     "--out", str(tmp_path / "fig.svg")])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_cell_refused(self, cell, corridor, tmp_path, capsys):
        # a non-finite x would otherwise reach the SVG polyline as "nan,..."
        csv = tmp_path / "traj.csv"
        csv.write_text("t,s,x,y,theta,v,omega,delta_F,pred_radius,margin\n"
                       "0,0,1,1,0,0,0,0,0,0\n"
                       f"0.1,0.1,{cell},1,0,0,0,0,0,0\n")
        svg = tmp_path / "fig.svg"
        code = main(["render", "--scenario", str(corridor), "--csv", str(csv),
                     "--out", str(svg)])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"error: {csv}: row 3, column 'x': not a finite number\n")
        assert not svg.exists()

    def test_missing_csv_refused(self, corridor, tmp_path):
        missing = tmp_path / "missing.csv"
        done = _cli_subprocess("render", "--scenario", str(corridor), "--csv", str(missing),
                               "--out", str(tmp_path / "fig.svg"))
        assert done.returncode == EXIT_SCHEMA
        assert done.stderr.startswith("error: ") and str(missing) in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    @pytest.mark.parametrize("when", ["nan", "1.0,inf", "2,-inf"])
    def test_non_finite_snapshot_time_refused(self, when, corridor, tmp_path, capsys):
        one_row = tmp_path / "one.csv"
        one_row.write_text("t,s,x,y,theta,v,omega,delta_F,pred_radius,margin\n"
                           "0,0,0.5,1.2,0,0,0,0,0,0\n")
        svg = tmp_path / "fig.svg"
        code = main(["render", "--scenario", str(corridor), "--csv", str(one_row),
                     "--out", str(svg), "--snapshots", when])
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("render error: snapshot times must be finite")
        assert err.count("\n") == 1
        assert not svg.exists()

    def test_snapshot_time_that_is_not_a_number_refused(self, corridor, tmp_path, capsys):
        one_row = tmp_path / "one.csv"
        one_row.write_text("t,s,x,y,theta,v,omega,delta_F,pred_radius,margin\n"
                           "0,0,0.5,1.2,0,0,0,0,0,0\n")
        svg = tmp_path / "fig.svg"
        code = main(["render", "--scenario", str(corridor), "--csv", str(one_row),
                     "--out", str(svg), "--snapshots", "abc"])
        assert code == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "error: --snapshots must be a comma-separated list of numbers, got 'abc'\n")
        assert not svg.exists()


class TestCheck:
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_refused(self, samples, capsys):
        code = main(["check", "--samples", samples])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"

    @pytest.mark.parametrize("trajectories", ["1", "0", "-2"])
    def test_trajectories_below_two_refused(self, trajectories, capsys, monkeypatch):
        # the first half of the cases start goal-aligned; below 2 there is
        # none, and aligned-forward-motion used to fail as if the controller had
        monkeypatch.setattr(cli, "run_all", _must_not_run)
        code = main(["check", "--trajectories", trajectories])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --trajectories must be at least 2, "
                                f"got {trajectories}\n")

    def test_negative_seed_refused(self, capsys, monkeypatch):
        # numpy refused it as "expected non-negative integer", naming no option
        monkeypatch.setattr(cli, "run_all", _must_not_run)
        code = main(["check", "--seed", "-1"])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be at least 0, got -1\n"

    def test_samples_size_every_sampled_suite(self, capsys):
        code = main(["check", "--trajectories", "2", "--samples", "10"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert "PASS  nonholonomic-exact: 10 samples, constraint holds exactly" in lines
        assert "aligned-forward-motion: 1 aligned trajectories" in "\n".join(lines)

    def test_quick_suite_passes(self, capsys):
        code = main(["check", "--seed", "5", "--trajectories", "8",
                     "--samples", "400"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out
