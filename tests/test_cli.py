import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from headway_sim.cli import (
    EXIT_CLEARANCE,
    EXIT_COLLISION,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_SCHEMA,
    _episode_exit,
    main,
)
from headway_sim.simulation import EpisodeResult

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def corridor(tmp_path):
    target = tmp_path / "corridor.yaml"
    shutil.copy(SCENARIO_DIR / "corridor.yaml", target)
    return target


def _edit_scenario(path, mutate):
    data = yaml.safe_load(path.read_text())
    mutate(data)
    path.write_text(yaml.safe_dump(data))


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

    def test_parse_exit(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nope: [unclosed\n")
        assert main(["validate", "--scenario", str(bad)]) == EXIT_SCHEMA


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
                     "--out", str(svg_path), "--snapshots", "1.0"])
        assert code == EXIT_OK
        svg = svg_path.read_text()
        assert '<polygon class="prediction"' in svg

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


class TestCheck:
    def test_quick_suite_passes(self, capsys):
        code = main(["check", "--seed", "5", "--trajectories", "8",
                     "--samples", "400"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out
