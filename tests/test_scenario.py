from pathlib import Path

import pytest
import yaml

from headway_sim import scenario as scenario_module
from headway_sim.environment import ClearanceError
from headway_sim.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    scenario_from_dict,
    write_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = ("office", "corridor", "open", "slalom", "uturn")


def office_data():
    with open(SCENARIO_DIR / "office.yaml") as fh:
        return yaml.safe_load(fh)


def assert_loaders_agree(path):
    """The scenario module's loader and PyYAML's pure-Python one build the
    same document from the file, down to the type of every scalar."""
    text = Path(path).read_text()
    ours = yaml.load(text, Loader=scenario_module._LOADER)
    python = yaml.load(text, Loader=yaml.SafeLoader)
    assert ours == python
    assert repr(ours) == repr(python)


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_and_validates(self, name):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        assert scenario.name == name
        assert scenario.method in ("circle", "triangle", "forward-sim")
        assert scenario.path.length > 0

    @pytest.mark.parametrize("name", SHIPPED)
    def test_write_load_round_trip(self, name, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        out = tmp_path / f"{name}.yaml"
        write_scenario(scenario, out)
        assert_loaders_agree(out)
        assert load_scenario(out) == scenario

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_loaders_agree_on_every_scenario_file(self, path):
        assert_loaders_agree(path)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_with_the_pure_python_loader(self, name, monkeypatch):
        # PyYAML built without libyaml falls back to this loader
        scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        monkeypatch.setattr(scenario_module, "_LOADER", yaml.SafeLoader)
        assert load_scenario(SCENARIO_DIR / f"{name}.yaml") == scenario

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loaders_agree_on_the_cluttered_scene(self, seed, bench_modules, tmp_path):
        _, scenes = bench_modules
        data = scenes.cluttered_scene(seed)
        out = tmp_path / "cluttered.yaml"
        out.write_text(yaml.safe_dump(data))
        assert_loaders_agree(out)
        assert load_scenario(out) == scenario_from_dict(data, source=str(out))


class TestValidation:
    def test_headway_coeff_out_of_range(self):
        data = office_data()
        data["controller"]["headway_coeff"] = 1.2
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("headway_coeff" in v for v in err.value.violations)

    def test_clockwise_obstacle_reported(self):
        data = office_data()
        data["obstacles"][0] = list(reversed(data["obstacles"][0]))
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("counterclockwise" in v for v in err.value.violations)

    def test_missing_required_field(self):
        data = office_data()
        del data["robot_radius"]
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("robot_radius" in v for v in err.value.violations)

    def test_oversized_step_reported(self):
        data = office_data()
        data["integrator"]["step"] = 5.0
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("stability limit 2.785" in v for v in err.value.violations)

    def test_multiple_violations_collected(self):
        data = office_data()
        data["controller"]["headway_coeff"] = 2.0
        data["robot_radius"] = -1
        data["method"] = "warp"
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert len(err.value.violations) >= 3

    def test_bad_point_shape(self):
        data = office_data()
        data["path"][0] = [1.0]
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("path[0]" in v for v in err.value.violations)

    def test_path_through_obstacle_raises_clearance(self):
        data = office_data()
        # drive the path straight through the first wall
        data["path"] = [[1.0, 1.0], [11.0, 1.0], [11.0, 8.0]]
        with pytest.raises(ClearanceError):
            scenario_from_dict(data)

    def test_sliver_between_path_samples_raises_clearance(self):
        # the straight path crosses a 4 cm sliver far from both waypoints
        data = office_data()
        data.update(workspace=[[0, 0], [100, 0], [100, 100], [0, 100]],
                    obstacles=[[[49.98, 49.6], [50.02, 49.6], [50.02, 50.4], [49.98, 50.4]]],
                    robot_radius=0.01, path=[[1, 1], [99, 99]])
        with pytest.raises(ClearanceError):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section, value", [
        ("integrator", 0), ("controller", []), ("governor", False), ("controller", "")])
    def test_non_mapping_section_refused(self, section, value):
        # none of these may run on every default
        data = office_data()
        data[section] = value
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert err.value.violations == [f"{section}: expected a mapping"]

    def test_bad_governor_does_not_hide_bad_integrator(self):
        data = office_data()
        data.update(governor=0, integrator=[1.0])
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert err.value.violations == ["governor: expected a mapping",
                                        "integrator: expected a mapping"]

    def test_misspelled_obstacles_refused(self):
        # a typo must not drop every obstacle
        data = office_data()
        data["obstacle"] = data.pop("obstacles")
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith("obstacle: unknown key; expected one of [")

    def test_misspelled_section_key_refused(self):
        # a typo must not leave the gain at its default
        data = office_data()
        data["governor"] = {"clearance_gian": 8.0}
        data["controller"]["headway"] = 0.6
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert err.value.violations == [
            "controller.headway: unknown key; expected one of "
            "['headway_coeff', 'ref_gain', 'goal_tolerance']",
            "governor.clearance_gian: unknown key; expected one of "
            "['clearance_gain', 'endpoint_gain']"]

    def test_null_section_takes_defaults(self):
        data = office_data()
        data["governor"] = None
        assert scenario_from_dict(data).sim.clearance_gain == 4.0

    @pytest.mark.parametrize("key", ["name", "obstacles", "initial_theta", "method",
                                     "controller", "governor", "integrator"])
    def test_null_optional_key_takes_its_default(self, key):
        data = office_data()
        data[key] = None
        absent = office_data()
        del absent[key]
        assert scenario_from_dict(data) == scenario_from_dict(absent)

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in (
            ("controller", ("headway_coeff", "ref_gain", "goal_tolerance")),
            ("governor", ("clearance_gain", "endpoint_gain")),
            ("integrator", ("step", "max_time", "goal_tolerance", "prediction_step")))
        for key in keys])
    def test_null_section_key_takes_its_default(self, section, key):
        data = office_data()
        data.setdefault(section, {})[key] = None
        absent = office_data()
        absent.setdefault(section, {}).pop(key, None)
        assert scenario_from_dict(data) == scenario_from_dict(absent)

    @pytest.mark.parametrize("key", ["workspace", "robot_radius", "path"])
    def test_null_required_key_refused_as_missing(self, key):
        data = office_data()
        data[key] = None
        with pytest.raises(ScenarioValidationError) as null:
            scenario_from_dict(data)
        absent = office_data()
        del absent[key]
        with pytest.raises(ScenarioValidationError) as missing:
            scenario_from_dict(absent)
        assert null.value.violations == missing.value.violations == [
            f"{key}: missing required value"]

    def test_null_unknown_key_still_refused(self):
        data = office_data()
        data["obstacle"] = None
        data["integrator"]["stepp"] = None
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert [v.split(":")[0] for v in err.value.violations] == [
            "obstacle", "integrator.stepp"]

    def test_non_mapping_document(self):
        with pytest.raises(ScenarioParseError):
            scenario_from_dict([1, 2, 3])


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "nope.yaml")

    def test_yaml_parse_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("workspace: [[0,0], [1\n")
        with pytest.raises(ScenarioParseError, match="YAML"):
            load_scenario(bad)

    def test_defaults_applied(self, tmp_path):
        data = office_data()
        del data["controller"]
        del data["governor"]
        del data["integrator"]
        del data["initial_theta"]
        f = tmp_path / "min.yaml"
        f.write_text(yaml.safe_dump(data))
        assert_loaders_agree(f)
        scenario = load_scenario(f)
        assert scenario.controller.headway_coeff == 0.5
        assert scenario.controller.ref_gain == 1.0
        assert scenario.controller.goal_tolerance == 1e-4
        assert scenario.sim.clearance_gain == 4.0
        assert scenario.sim.endpoint_gain == 4.0
        assert scenario.sim.step == 0.005
        assert scenario.sim.max_time == 60.0
        # files end episodes at 2e-4, not at SimConfig's own 1e-4
        assert scenario.sim.goal_tolerance == 2e-4
        assert scenario.sim.prediction_step is None
        assert scenario.initial_theta is None

    def test_defaults_round_trip(self, tmp_path):
        data = office_data()
        for section in ("controller", "governor", "integrator"):
            del data[section]
        scenario = scenario_from_dict(data)
        out = tmp_path / "written.yaml"
        write_scenario(scenario, out)
        assert_loaders_agree(out)
        assert "prediction_step" not in out.read_text()
        assert load_scenario(out) == scenario


class TestOverrides:
    def test_with_overrides(self):
        scenario = load_scenario(SCENARIO_DIR / "corridor.yaml")
        changed = scenario.with_overrides(method="circle", epsilon=0.75,
                                          step=0.02, max_time=10.0)
        assert changed.method == "circle"
        assert changed.controller.headway_coeff == 0.75
        assert changed.sim.step == 0.02
        assert changed.sim.max_time == 10.0
        # original untouched
        assert scenario.method == "triangle"
        assert scenario.controller.headway_coeff == 0.5

    def test_unknown_method_refused(self):
        scenario = load_scenario(SCENARIO_DIR / "corridor.yaml")
        with pytest.raises(ValueError, match="unknown prediction method 'bogus'"):
            scenario.with_overrides(method="bogus")

    def test_step_beyond_rk4_limit_refused(self):
        # stable at eps 0.5, not at 0.05 (rate 21 /s at 0.2 s)
        scenario = load_scenario(SCENARIO_DIR / "corridor.yaml")
        scenario.with_overrides(step=0.2)
        with pytest.raises(ValueError, match="RK4's stability limit"):
            scenario.with_overrides(epsilon=0.05, step=0.2)
