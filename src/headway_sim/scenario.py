"""Scenario files: loading, validation, and writing.

A scenario is a YAML document with these sections (lengths in meters,
angles in radians):

.. code-block:: yaml

    name: office                 # optional label
    workspace: [[0,0],[12,0],[12,9],[0,9]]   # CCW simple polygon
    obstacles:                   # zero or more CCW simple polygons
      - [[3,0],[3.8,0],[3.8,6.5],[3,6.5]]
    robot_radius: 0.3
    path: [[1.2,1.2],[1.6,6.9]]  # at least two waypoints
    initial_theta: 0.0           # optional; default faces the first segment
    method: triangle             # circle | triangle | forward-sim
    controller:
      headway_coeff: 0.5         # in (0, 1)
      ref_gain: 1.0
      goal_tolerance: 0.0001
    governor:
      clearance_gain: 4.0
      endpoint_gain: 4.0
    integrator:
      step: 0.01
      max_time: 90.0
      goal_tolerance: 0.0002
      prediction_step: 0.02      # optional inner step for forward-sim sets

Validation failures are collected and reported together; a syntactically
valid scenario whose reference path lacks free-space clearance raises a
separate clearance error so callers can distinguish the two.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from .environment import Environment, ReferencePath, path_clearance, require_path_clearance
from .geom import Polygon, Vec2
from .ode import SimConfig
from .simulation import METHODS
from .unicycle import ControllerParams

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "write_scenario",
]


class ScenarioError(Exception):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The file is not parseable YAML or not a mapping."""


class ScenarioValidationError(ScenarioError):
    """One or more schema invariants are violated."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class Scenario:
    """Fully validated simulation setup."""

    name: str
    environment: Environment
    path: ReferencePath
    controller: ControllerParams
    sim: SimConfig
    method: str
    initial_theta: Optional[float] = None

    def with_overrides(self, method: Optional[str] = None,
                       epsilon: Optional[float] = None,
                       step: Optional[float] = None,
                       max_time: Optional[float] = None) -> "Scenario":
        controller = self.controller
        if epsilon is not None:
            controller = dataclasses.replace(controller, headway_coeff=epsilon)
        sim = self.sim
        if step is not None:
            sim = dataclasses.replace(sim, step=step)
        if max_time is not None:
            sim = dataclasses.replace(sim, max_time=max_time)
        return dataclasses.replace(self, method=method or self.method,
                                   controller=controller, sim=sim)


def _coerce_points(raw, label: str, violations: list[str]) -> list[Vec2] | None:
    if not isinstance(raw, (list, tuple)) or not raw:
        violations.append(f"{label}: expected a non-empty list of [x, y] pairs")
        return None
    pts = []
    for i, item in enumerate(raw):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           for c in item)):
            violations.append(f"{label}[{i}]: expected an [x, y] number pair, got {item!r}")
            return None
        try:
            pts.append(Vec2(float(item[0]), float(item[1])))
        except ValueError as exc:
            violations.append(f"{label}[{i}]: {exc}")
            return None
    return pts


def _get_number(section: dict, key: str, label: str, violations: list[str],
                default=None):
    if key not in section:
        if default is not None:
            return default
        violations.append(f"{label}.{key}: missing required value")
        return None
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{label}.{key}: expected a number, got {value!r}")
        return None
    return float(value)


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Build and validate a Scenario from parsed YAML data."""
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{source}: scenario document must be a mapping")
    violations: list[str] = []

    name = data.get("name", Path(source).stem if source != "<dict>" else "scenario")
    if not isinstance(name, str):
        violations.append(f"name: expected a string, got {name!r}")
        name = "scenario"

    workspace = None
    ws_pts = _coerce_points(data.get("workspace"), "workspace", violations)
    if ws_pts is not None:
        try:
            workspace = Polygon(ws_pts)
        except ValueError as exc:
            violations.append(f"workspace: {exc}")

    obstacles: list[Polygon] = []
    raw_obstacles = data.get("obstacles", [])
    if raw_obstacles is None:
        raw_obstacles = []
    if not isinstance(raw_obstacles, (list, tuple)):
        violations.append("obstacles: expected a list of polygons")
        raw_obstacles = []
    for i, raw in enumerate(raw_obstacles):
        pts = _coerce_points(raw, f"obstacles[{i}]", violations)
        if pts is None:
            continue
        try:
            obstacles.append(Polygon(pts))
        except ValueError as exc:
            violations.append(f"obstacles[{i}]: {exc}")

    radius = _get_number(data, "robot_radius", "scenario", violations)
    if radius is not None and radius <= 0.0:
        violations.append(f"robot_radius: must be positive, got {radius}")
        radius = None

    path = None
    path_pts = _coerce_points(data.get("path"), "path", violations)
    if path_pts is not None:
        try:
            path = ReferencePath(path_pts)
        except ValueError as exc:
            violations.append(f"path: {exc}")

    method = data.get("method", "triangle")
    if method not in METHODS:
        violations.append(f"method: expected one of {list(METHODS)}, got {method!r}")

    theta = data.get("initial_theta")
    if theta is not None:
        if isinstance(theta, bool) or not isinstance(theta, (int, float)):
            violations.append(f"initial_theta: expected a number, got {theta!r}")
            theta = None
        elif not math.isfinite(float(theta)):
            violations.append(f"initial_theta: must be finite, got {theta}")
            theta = None
        else:
            theta = float(theta)

    ctl_raw = data.get("controller", {}) or {}
    controller = None
    if not isinstance(ctl_raw, dict):
        violations.append("controller: expected a mapping")
    else:
        eps = _get_number(ctl_raw, "headway_coeff", "controller", violations, default=0.5)
        gain = _get_number(ctl_raw, "ref_gain", "controller", violations, default=1.0)
        tol = _get_number(ctl_raw, "goal_tolerance", "controller", violations, default=1e-4)
        if None not in (eps, gain, tol):
            try:
                controller = ControllerParams(eps, gain, tol)
            except ValueError as exc:
                violations.append(f"controller: {exc}")

    gov_raw = data.get("governor", {}) or {}
    integ_raw = data.get("integrator", {}) or {}
    sim = None
    if not isinstance(gov_raw, dict):
        violations.append("governor: expected a mapping")
    elif not isinstance(integ_raw, dict):
        violations.append("integrator: expected a mapping")
    else:
        k_clear = _get_number(gov_raw, "clearance_gain", "governor", violations, default=4.0)
        k_end = _get_number(gov_raw, "endpoint_gain", "governor", violations, default=4.0)
        step = _get_number(integ_raw, "step", "integrator", violations, default=0.005)
        max_time = _get_number(integ_raw, "max_time", "integrator", violations, default=60.0)
        sim_tol = _get_number(integ_raw, "goal_tolerance", "integrator", violations,
                              default=2e-4)
        pred_step = None
        if "prediction_step" in integ_raw:
            pred_step = _get_number(integ_raw, "prediction_step", "integrator", violations)
        if None not in (k_clear, k_end, step, max_time, sim_tol):
            try:
                sim = SimConfig(step=step, max_time=max_time, goal_tolerance=sim_tol,
                                clearance_gain=k_clear, endpoint_gain=k_end,
                                prediction_step=pred_step)
            except ValueError as exc:
                violations.append(f"integrator/governor: {exc}")

    env = None
    if workspace is not None and radius is not None:
        try:
            env = Environment(workspace, obstacles, radius)
        except ValueError as exc:
            violations.append(f"environment: {exc}")

    if violations:
        raise ScenarioValidationError(violations)
    assert env is not None and path is not None and controller is not None and sim is not None

    require_path_clearance(path_clearance(env, path), env.robot_radius, source)

    return Scenario(name=name, environment=env, path=path, controller=controller,
                    sim=sim, method=method, initial_theta=theta)


def load_scenario(path: Path | str) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: YAML parse error: {exc}") from exc
    return scenario_from_dict(data, source=str(path))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-data form of a scenario, inverse of ``scenario_from_dict``."""
    env = scenario.environment
    data = {
        "name": scenario.name,
        "workspace": [[v.x, v.y] for v in env.workspace.vertices],
        "obstacles": [[[v.x, v.y] for v in o.vertices] for o in env.obstacles],
        "robot_radius": env.robot_radius,
        "path": [[p.x, p.y] for p in scenario.path.waypoints],
        "method": scenario.method,
        "controller": {
            "headway_coeff": scenario.controller.headway_coeff,
            "ref_gain": scenario.controller.ref_gain,
            "goal_tolerance": scenario.controller.goal_tolerance,
        },
        "governor": {
            "clearance_gain": scenario.sim.clearance_gain,
            "endpoint_gain": scenario.sim.endpoint_gain,
        },
        "integrator": {
            "step": scenario.sim.step,
            "max_time": scenario.sim.max_time,
            "goal_tolerance": scenario.sim.goal_tolerance,
        },
    }
    if scenario.sim.prediction_step is not None:
        data["integrator"]["prediction_step"] = scenario.sim.prediction_step
    if scenario.initial_theta is not None:
        data["initial_theta"] = scenario.initial_theta
    return data


def write_scenario(scenario: Scenario, path: Path | str) -> None:
    """Serialize a scenario so that loading it back compares equal."""
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)
