"""Time-governed safe path following and episode execution.

The coupled system advances a path parameter ``s`` at a rate proportional
to the clearance of the current feedback motion prediction set, while the
adaptive headway controller drives the robot toward the moving path point.
Progress pauses automatically when the predicted motion nears the
free-space boundary, which is exactly what makes the scheme safe: the
prediction set always contains the future closed-loop motion toward the
current path point.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .environment import (
    Environment,
    ReferencePath,
    margin_points,
    path_clearance,
    require_path_clearance,
    safety_distance,
)
from .geom import Vec2
from .ode import SimConfig
from .prediction import (
    Hull,
    PredictionSet,
    circular_prediction,
    forward_sim_prediction,
    prediction_goal_radius,
    triangular_prediction,
)
from .unicycle import ControllerParams, UnicycleState, _adaptive_control

__all__ = [
    "METHODS",
    "EpisodeResult",
    "NonConvergenceError",
    "prediction_set",
    "governor_field",
    "run_episode",
    "compare_methods",
    "read_trajectory_csv",
    "CSV_COLUMNS",
]

METHODS = ("circle", "triangle", "forward-sim")

CSV_COLUMNS = ("t", "s", "x", "y", "theta", "v", "omega", "delta_F",
               "pred_radius", "margin")


class NonConvergenceError(Exception):
    """An inner forward simulation exhausted its contraction-time budget.

    Should be unreachable with valid parameters; it indicates an
    integration or configuration fault rather than a controller failure.
    """


def prediction_set(method: str, state: UnicycleState, goal: Vec2,
                   params: ControllerParams, config: SimConfig) -> PredictionSet:
    """Build the named feedback motion prediction set."""
    if method == "circle":
        return circular_prediction(state, goal, params)
    if method == "triangle":
        return triangular_prediction(state, goal, params)
    if method == "forward-sim":
        return forward_sim_prediction(state, goal, params, config)
    raise ValueError(f"unknown prediction method {method!r}; expected one of {METHODS}")


def governor_field(env: Environment, path: ReferencePath, params: ControllerParams,
                   method: str, config: SimConfig, s: float, x: float, y: float,
                   th: float) -> tuple:
    """Time derivative of the coupled path-parameter / robot-pose state.

    Returns ``(s_rate, x_rate, y_rate, th_rate, v, clearance, radius, pred)``:
    the derivative, the forward speed, the prediction-set clearance and goal
    radius logged per node, and the prediction set itself.  The path
    parameter advances at the smaller of the clearance-driven rate and the
    endpoint pull, so it never overshoots the path end and freezes whenever
    the predicted motion touches the free-space boundary.
    """
    goal = path.point_at(s)
    pred = prediction_set(method, UnicycleState(Vec2(x, y), th), goal, params, config)
    clearance = safety_distance(env, pred)
    radius = prediction_goal_radius(pred, goal)
    s_rate = min(config.clearance_gain * clearance, config.endpoint_gain * (path.length - s))
    v, w = _adaptive_control(x, y, th, goal.x, goal.y,
                             (params.headway_coeff, params.ref_gain, params.goal_tolerance))
    return (s_rate, v * math.cos(th), v * math.sin(th), w, v, clearance, radius, pred)


@dataclass
class EpisodeResult:
    """Dense episode record plus the summary quantities of interest."""

    method: str
    epsilon: float
    t: np.ndarray
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    delta_f: np.ndarray
    pred_radius: np.ndarray
    margin: np.ndarray
    converged: bool
    travel_time: float
    min_margin: float
    avg_speed: float
    collision_flag: bool
    peak_angular_rate: float
    final_goal_distance: float
    governor_eval_seconds: float
    n_governor_evals: int

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.t, self.s, self.x, self.y, self.theta, self.v, self.omega,
                self.delta_f, self.pred_radius, self.margin)

    def write_csv(self, path: Path | str) -> None:
        cols = self.columns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i in range(len(self.t)):
                # repr is the shortest exact form, so reads reproduce the run
                writer.writerow([repr(float(col[i])) for col in cols])

    def summary(self) -> dict:
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "converged": bool(self.converged),
            "travel_time": float(self.travel_time),
            "avg_speed": float(self.avg_speed),
            "min_margin": float(self.min_margin),
            "collision": bool(self.collision_flag),
            "final_goal_distance": float(self.final_goal_distance),
            "peak_angular_rate": float(self.peak_angular_rate),
            "governor_eval_seconds": float(self.governor_eval_seconds),
            "n_governor_evals": int(self.n_governor_evals),
            "steps": int(len(self.t) - 1),
        }

    def write_summary(self, path: Path | str) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.summary(), fh, sort_keys=True)


def read_trajectory_csv(path: Path | str) -> dict[str, np.ndarray]:
    """Load an episode CSV back into column arrays.

    Raises ValueError with a row/column diagnostic on malformed content.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(CSV_COLUMNS)}")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: bad header {header!r}, expected {list(CSV_COLUMNS)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, "
                                 f"expected {len(CSV_COLUMNS)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(name for name, cell in zip(CSV_COLUMNS, row)
                           if not _is_float(cell))
                raise ValueError(f"{path}: row {lineno}, column {bad!r}: "
                                 "not a number") from None
    data = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _default_initial_theta(path: ReferencePath) -> float:
    first = path.waypoints[1] - path.waypoints[0]
    return math.atan2(first.y, first.x)


def run_episode(env: Environment, path: ReferencePath, params: ControllerParams,
                method: str, config: SimConfig,
                initial_theta: Optional[float] = None) -> EpisodeResult:
    """Integrate the governed path-following loop from the path start.

    The run terminates once the path parameter has essentially reached the
    path end and the robot is inside the endpoint tolerance ball; hitting
    ``config.max_time`` first marks the result as non-converged.  Scenarios
    whose reference path lacks positive clearance are rejected outright.
    """
    require_path_clearance(path_clearance(env, path), env.robot_radius)
    if method not in METHODS:
        raise ValueError(f"unknown prediction method {method!r}; expected one of {METHODS}")

    theta0 = _default_initial_theta(path) if initial_theta is None else initial_theta
    start = path.point_at(0.0)
    goal_end = path.point_at(path.length)
    length = path.length
    stop_tol = config.goal_tolerance

    eval_time = 0.0
    eval_count = 0

    def field(s: float, x: float, y: float, th: float) -> tuple:
        nonlocal eval_time, eval_count
        t0 = time.perf_counter()
        k = governor_field(env, path, params, method, config, s, x, y, th)
        pred = k[7]
        if isinstance(pred, Hull) and not pred.converged:
            raise NonConvergenceError(
                f"forward simulation from t={t:.3f}s failed to reach the "
                "path point within its contraction budget")
        eval_time += time.perf_counter() - t0
        eval_count += 1
        return k

    t = 0.0
    s = 0.0
    x, y, th = start.x, start.y, theta0
    ts, ss, xs, ys, ths = [t], [s], [x], [y], [th]
    vs, ws, dfs, radii = [], [], [], []
    converged = False
    while True:
        k1 = field(s, x, y, th)
        vs.append(k1[4])
        ws.append(k1[3])
        dfs.append(k1[5])
        radii.append(k1[6])
        dist_end = math.hypot(goal_end.x - x, goal_end.y - y)
        if length - s <= stop_tol and dist_end <= stop_tol:
            converged = True
            break
        if t >= config.max_time - 1e-12:
            break
        dt = min(config.step, config.max_time - t)  # land exactly on the horizon
        half = 0.5 * dt
        sixth = dt / 6.0
        k2 = field(s + half * k1[0], x + half * k1[1], y + half * k1[2], th + half * k1[3])
        k3 = field(s + half * k2[0], x + half * k2[1], y + half * k2[2], th + half * k2[3])
        k4 = field(s + dt * k3[0], x + dt * k3[1], y + dt * k3[2], th + dt * k3[3])
        s += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        x += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        y += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        th += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        s = min(max(s, 0.0), length)  # guard the parameter range against overshoot
        t += dt
        ts.append(t)
        ss.append(s)
        xs.append(x)
        ys.append(y)
        ths.append(th)

    n = len(ts)
    positions = np.column_stack([np.array(xs), np.array(ys)])
    margins = margin_points(env, positions)
    v_arr = np.array(vs[:n])
    w_arr = np.array(ws[:n])
    result = EpisodeResult(
        method=method,
        epsilon=params.headway_coeff,
        t=np.array(ts),
        s=np.array(ss),
        x=np.array(xs),
        y=np.array(ys),
        theta=np.array(ths),
        v=v_arr,
        omega=w_arr,
        delta_f=np.array(dfs[:n]),
        pred_radius=np.array(radii[:n]),
        margin=margins,
        converged=converged,
        travel_time=float(ts[-1]),
        min_margin=float(margins.min()),
        avg_speed=float(np.mean(np.abs(v_arr))),
        collision_flag=bool(margins.min() < 0.0),
        peak_angular_rate=float(np.max(np.abs(w_arr))) if len(w_arr) else 0.0,
        final_goal_distance=float(math.hypot(goal_end.x - xs[-1], goal_end.y - ys[-1])),
        governor_eval_seconds=eval_time / max(1, eval_count),
        n_governor_evals=eval_count,
    )
    return result


def compare_methods(env: Environment, path: ReferencePath, params: ControllerParams,
                    config: SimConfig, methods: tuple[str, ...] = METHODS,
                    initial_theta: Optional[float] = None) -> dict[str, EpisodeResult]:
    """Run one episode per prediction method on the same scenario."""
    return {m: run_episode(env, path, params, m, config, initial_theta)
            for m in methods}
