"""Scenario files: loading, validation, and writing.

A scenario is a YAML document (lengths in meters, angles in radians):

.. code-block:: yaml

    name: office                 # optional label
    workspace: [[0,0],[12,0],[12,9],[0,9]]   # CCW simple polygon
    obstacles:                   # zero or more CCW simple polygons
      - [[3,0],[3.8,0],[3.8,6.5],[3,6.5]]
    robot_radius: 0.3
    path: [[1.2,1.2],[1.6,6.9]]  # at least two waypoints
    initial_theta: 0.0           # optional; default faces the first segment
    method: triangle             # circle | triangle | forward-sim
    controller:                  # optional sections; keys and defaults
      headway_coeff: 0.75        # are listed once, in _SECTIONS
    integrator:
      step: 0.01

Validation failures, unknown keys and non-mapping sections included, are
collected and reported together; a syntactically valid scenario whose
reference path lacks free-space clearance raises a separate clearance error
so callers can distinguish the two.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from .environment import Environment, ReferencePath, path_clearance, require_path_clearance
from .geom import _LENGTH_FLOOR, Polygon, Vec2
from .ode import SimConfig, require_stable_step
from .simulation import METHODS
from .unicycle import ControllerParams


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
        """The scenario with the given values replaced; ``ValueError`` for an
        unknown method, an invalid value or a step beyond RK4's limit."""
        if method is not None and method not in METHODS:
            raise ValueError(f"unknown prediction method {method!r}; "
                             f"expected one of {METHODS}")
        controller = self.controller
        if epsilon is not None:
            controller = dataclasses.replace(controller, headway_coeff=epsilon)
        sim = self.sim
        if step is not None:
            sim = dataclasses.replace(sim, step=step)
        if max_time is not None:
            sim = dataclasses.replace(sim, max_time=max_time)
        require_stable_step(controller, sim)
        return dataclasses.replace(self, method=method or self.method,
                                   controller=controller, sim=sim)


def _coerce_points(raw, label: str, violations: list[str]) -> list[Vec2] | None:
    if raw is None:
        violations.append(f"{label}: missing required value")
        return None
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


# each section's keys with their file defaults, in file order; the keys are
# the ControllerParams / SimConfig field names, and a None default marks a key
# that files may leave out.  A null value reads as a missing key, here and at
# the top level.  Files end episodes at goal_tolerance 2e-4, not at
# SimConfig's own 1e-4.
_SECTIONS = {
    "controller": (("headway_coeff", 0.5), ("ref_gain", 1.0), ("goal_tolerance", 1e-4)),
    "governor": (("clearance_gain", 4.0), ("endpoint_gain", 4.0)),
    "integrator": (("step", 0.005), ("max_time", 60.0), ("goal_tolerance", 2e-4),
                   ("prediction_step", None)),
}
_TOP_KEYS = ("name", "workspace", "obstacles", "robot_radius", "path", "initial_theta",
             "method", *_SECTIONS)
_REQUIRED = object()

# libyaml's scanner and parser where PyYAML was built with them, about three
# times faster on the shipped scenes; the resolver and constructor stay
# PyYAML's own safe ones, so both loaders build equal documents.  Only parse
# error messages differ: libyaml's give the line and column without the
# source snippet.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _get_number(section: dict, key: str, prefix: str, violations: list[str],
                default=_REQUIRED):
    if key not in section:
        if default is _REQUIRED:
            violations.append(f"{prefix}{key}: missing required value")
            return None
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{prefix}{key}: expected a number, got {value!r}")
        return None
    return float(value)


def _present(mapping: dict) -> dict:
    """The keys of ``mapping`` whose value is not null."""
    return {key: value for key, value in mapping.items() if value is not None}


def _refuse_unknown(mapping: dict, known, prefix: str, violations: list[str]) -> None:
    violations.extend(f"{prefix}{key}: unknown key; expected one of {list(known)}"
                      for key in mapping if key not in known)


# the shortest and longest lengths whose squares are non-zero and finite
# (about 2.2e-162 and 1.3e154 m); distance, area and orientation arithmetic
# squares lengths and multiplies coordinates
_LENGTH_RANGE = (_LENGTH_FLOOR, math.sqrt(sys.float_info.max))


def _scale_violation(polygons: list[list[Vec2]], path: list[Vec2] | None) -> str | None:
    """Why the scene's lengths are out of range, or None.

    Out of range means the diagonal of the bounding box of every scene
    point and the origin squares to infinity, or the shortest non-zero
    polygon edge or waypoint gap squares to zero.
    """
    chains = [pts + pts[:1] for pts in polygons] + ([path] if path is not None else [])
    xs = [p.x for pts in chains for p in pts] + [0.0]
    ys = [p.y for pts in chains for p in pts] + [0.0]
    diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    gaps = [math.hypot(b.x - a.x, b.y - a.y) for pts in chains for a, b in zip(pts, pts[1:])]
    shortest = min((g for g in gaps if g > 0.0), default=1.0)
    if diag * diag == math.inf:
        what = f"bounding-box diagonal (origin included) {diag:.3g} m overflows"
    elif shortest * shortest == 0.0:
        what = f"shortest edge or waypoint gap {shortest:.3g} m underflows to 0"
    else:
        return None
    lo, hi = _LENGTH_RANGE
    return (f"scene: the {what} when squared; lengths must lie between about "
            f"{lo:.2g} and {hi:.2g} m")


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Build and validate a Scenario from parsed YAML data."""
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{source}: scenario document must be a mapping")
    violations: list[str] = []
    _refuse_unknown(data, _TOP_KEYS, "", violations)
    # null means missing: an optional key takes its default, and a required
    # one (workspace, robot_radius, path) is refused as missing
    data = _present(data)

    name = data.get("name", Path(source).stem if source != "<dict>" else "scenario")
    if not isinstance(name, str):
        violations.append(f"name: expected a string, got {name!r}")
        name = "scenario"

    ws_pts = _coerce_points(data.get("workspace"), "workspace", violations)

    raw_obstacles = data.get("obstacles", [])
    if not isinstance(raw_obstacles, (list, tuple)):
        violations.append("obstacles: expected a list of polygons")
        raw_obstacles = []
    obstacle_pts = {}
    for i, raw in enumerate(raw_obstacles):
        pts = _coerce_points(raw, f"obstacles[{i}]", violations)
        if pts is not None:
            obstacle_pts[i] = pts

    radius = _get_number(data, "robot_radius", "", violations)
    if radius is not None and not (radius > 0.0 and math.isfinite(radius)):
        violations.append(f"robot_radius: must be positive and finite, got {radius}")
        radius = None

    path_pts = _coerce_points(data.get("path"), "path", violations)

    workspace = None
    obstacles: list[Polygon] = []
    path = None
    polygon_pts = ([ws_pts] if ws_pts is not None else []) + list(obstacle_pts.values())
    out_of_range = _scale_violation(polygon_pts, path_pts)
    if out_of_range is not None:
        # squared lengths that overflow or underflow would be misread as
        # crossings, repeated vertices or a NaN clearance below
        violations.append(out_of_range)
    else:
        if ws_pts is not None:
            try:
                workspace = Polygon(ws_pts)
            except ValueError as exc:
                violations.append(f"workspace: {exc}")
        for i, pts in obstacle_pts.items():
            try:
                obstacles.append(Polygon(pts))
            except ValueError as exc:
                violations.append(f"obstacles[{i}]: {exc}")
        if path_pts is not None:
            try:
                path = ReferencePath(path_pts)
            except ValueError as exc:
                violations.append(f"path: {exc}")

    method = data.get("method", "triangle")
    if method not in METHODS:
        violations.append(f"method: expected one of {list(METHODS)}, got {method!r}")

    theta = _get_number(data, "initial_theta", "", violations, None)
    if theta is not None and not math.isfinite(theta):
        violations.append(f"initial_theta: must be finite, got {theta}")
        theta = None

    # only an absent or null section takes every default
    sections = {}
    for section, fields in _SECTIONS.items():
        raw = data.get(section, {})
        if not isinstance(raw, dict):
            violations.append(f"{section}: expected a mapping")
            continue
        before = len(violations)
        present = _present(raw)
        values = {key: _get_number(present, key, f"{section}.", violations, default)
                  for key, default in fields}
        if len(violations) == before:
            sections[section] = values
        _refuse_unknown(raw, values, f"{section}.", violations)

    controller = None
    if "controller" in sections:
        try:
            controller = ControllerParams(**sections["controller"])
        except ValueError as exc:
            violations.append(f"controller: {exc}")
    sim = None
    if "governor" in sections and "integrator" in sections:
        try:
            sim = SimConfig(**sections["governor"], **sections["integrator"])
        except ValueError as exc:
            violations.append(f"integrator/governor: {exc}")

    if controller is not None and sim is not None:
        try:
            require_stable_step(controller, sim)
        except ValueError as exc:
            violations.append(f"integrator: {exc}")

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
        data = yaml.load(text, Loader=_LOADER)
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
    }
    for section, fields in _SECTIONS.items():
        params = scenario.controller if section == "controller" else scenario.sim
        data[section] = {key: getattr(params, key) for key, _ in fields
                         if getattr(params, key) is not None}
    if scenario.initial_theta is not None:
        data["initial_theta"] = scenario.initial_theta
    return data


def write_scenario(scenario: Scenario, path: Path | str) -> None:
    """Serialize a scenario so that loading it back compares equal."""
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)
