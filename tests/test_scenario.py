from pathlib import Path

import pytest
import yaml

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
        assert load_scenario(out) == scenario


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
        scenario = load_scenario(f)
        assert scenario.controller.headway_coeff == 0.5
        assert scenario.sim.clearance_gain == 4.0
        assert scenario.initial_theta is None


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
