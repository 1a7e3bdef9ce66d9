"""Time-governed safe path following and episode execution.

The coupled system advances a path parameter ``s`` at a rate proportional
to the clearance of the current feedback motion prediction set, while the
adaptive headway controller drives the robot toward the moving path point.
Progress pauses automatically when the predicted motion nears the
free-space boundary, which is exactly what makes the scheme safe: the
prediction set always contains the future closed-loop motion toward the
current path point.

``run_episode`` integrates the loop with RK4.  The first stage of each step
is a full ``governor_field`` evaluation: its clearance and goal radius are
logged with the node.  The three later stages feed only their rates to the
integrator, so they compute no goal radius, and they make no clearance
query when the episode's ``environment.ClearanceChain`` certifies from the
last queried set that the endpoint pull binds (``pull_binds``).  Every
query that runs, at any stage of any step, goes through that chain, which
certifies the set's free side and reads only the boundary columns that
can bind.  The three arguments are in the ``environment`` docstring;
either way every output is unchanged.
"""

from __future__ import annotations

import csv
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .environment import (
    ClearanceChain,
    Environment,
    ReferencePath,
    margin_points,
    path_clearance,
    require_path_clearance,
    safety_distance,
)
from .geom import Vec2
from .ode import SimConfig, require_stable_step
from .prediction import (
    PredictionSet,
    circular_prediction,
    forward_sim_prediction,
    prediction_goal_radius,
    triangular_prediction,
)
from .unicycle import ControllerParams, UnicycleState, _adaptive_control

METHODS = ("circle", "triangle", "forward-sim")

CSV_COLUMNS = ("t", "s", "x", "y", "theta", "v", "omega", "delta_F",
               "pred_radius", "margin")


class NonConvergenceError(Exception):
    """An inner forward simulation exhausted its contraction-time budget.

    The message names the step start time, the stage pose the simulation
    started from and the path point it aimed at.

    Should be unreachable with valid parameters; it indicates an
    integration or configuration fault rather than a controller failure.
    ``run_episode`` sets ``result`` to the non-converged ``EpisodeResult`` of
    the nodes logged before the fault; it stays None when there are none.
    """

    result: Optional["EpisodeResult"] = None


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
                   th: float, later: bool = False,
                   chain: Optional[ClearanceChain] = None) -> tuple:
    """Time derivative of the coupled path-parameter / robot-pose state.

    Returns ``(s_rate, x_rate, y_rate, th_rate, v, clearance, radius, pred)``:
    the derivative, the forward speed, the prediction-set clearance and goal
    radius logged per node, and the prediction set itself.  The path
    parameter advances at the smaller of the clearance-driven rate and the
    endpoint pull, so it never overshoots the path end and freezes whenever
    the predicted motion touches the free-space boundary.

    ``later`` marks a later RK4 stage, whose caller reads only the rates and
    the set, and needs the episode's ``chain``: ``radius`` is then None, and
    so is ``clearance`` when ``chain.pull_binds`` certifies that the
    endpoint pull binds; the pull is then the path rate, bit for bit what
    the full evaluation's ``min`` returns.  A query that runs passes
    ``chain`` on to ``safety_distance``.
    """
    goal = path.point_at(s)
    pred = prediction_set(method, UnicycleState(Vec2(x, y), th), goal, params, config)
    endpoint = config.endpoint_gain * (path.length - s)
    if later and chain.pull_binds(pred, endpoint, config.clearance_gain):
        clearance, s_rate = None, endpoint
    else:
        clearance = safety_distance(env, pred, chain)
        s_rate = min(config.clearance_gain * clearance, endpoint)
    radius = None if later else prediction_goal_radius(pred, goal)
    x_rate, y_rate, w, v = _adaptive_control(
        x, y, th, goal.x, goal.y, (params.headway_coeff, params.ref_gain, params.goal_tolerance))
    return (s_rate, x_rate, y_rate, w, v, clearance, radius, pred)


@dataclass
class EpisodeResult:
    """Dense episode record plus the summary quantities of interest.

    ``clearance_bound_fraction`` is read from the logged nodes after the
    run: the share of node intervals (steps) whose first-stage path rate is
    below the endpoint pull, so that the clearance term binds.  ``summary``
    adds ``min_delta_f``, the least logged clearance, and ``min_delta_f_t``,
    the time of the first node that reaches it.
    """

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
    clearance_bound_fraction: float = 0.0

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.t, self.s, self.x, self.y, self.theta, self.v, self.omega,
                self.delta_f, self.pred_radius, self.margin)

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            # repr is the shortest exact form, so reads reproduce the run;
            # row by row, as a whole-table tolist() holds every cell as a
            # float object at once
            for row in np.column_stack(self.columns()):
                writer.writerow([repr(v) for v in row.tolist()])

    def summary(self) -> dict:
        i = int(np.argmin(self.delta_f))  # the first node of least clearance
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
            "clearance_bound_fraction": float(self.clearance_bound_fraction),
            "min_delta_f": float(self.delta_f[i]),
            "min_delta_f_t": float(self.t[i]),
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
            values = []
            for name, cell in zip(CSV_COLUMNS, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"{path}: row {lineno}, column {name!r}: "
                                     "not a finite number")
                values.append(value)
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def _default_initial_theta(path: ReferencePath) -> float:
    first = path.waypoints[1] - path.waypoints[0]
    return math.atan2(first.y, first.x)


def run_episode(env: Environment, path: ReferencePath, params: ControllerParams,
                method: str, config: SimConfig,
                initial_theta: Optional[float] = None) -> EpisodeResult:
    """Integrate the governed path-following loop from the path start.

    The run terminates once the path parameter has essentially reached the
    path end and the robot is inside the endpoint tolerance ball; hitting
    ``config.max_time`` first marks the result as non-converged.  A path
    without positive clearance, a step beyond RK4's stability limit and a
    stop ball inside the freeze ball (``require_stable_step``) are refused.

    Each step's first stage is a full ``governor_field`` evaluation, logged
    with the node; stages 2-4 pass it ``later`` and get the rates only, and
    every stage's query goes through the episode's ``ClearanceChain`` (see
    the module docstring).  Every stage builds its prediction set and checks
    that a forward simulation converged, and every stage counts in
    ``n_governor_evals`` and ``governor_eval_seconds``.  A
    ``NonConvergenceError`` carries the result of the nodes logged before it.
    """
    require_path_clearance(path_clearance(env, path), env.robot_radius)
    if method not in METHODS:
        raise ValueError(f"unknown prediction method {method!r}; expected one of {METHODS}")
    require_stable_step(params, config)

    theta0 = _default_initial_theta(path) if initial_theta is None else initial_theta
    start = path.point_at(0.0)
    goal_end = path.point_at(path.length)
    length = path.length
    stop_tol = config.goal_tolerance
    chain = ClearanceChain(env)

    eval_time = 0.0
    eval_count = 0

    def field(s: float, x: float, y: float, th: float, later: bool = False) -> tuple:
        nonlocal eval_time, eval_count
        t0 = time.perf_counter()
        k = governor_field(env, path, params, method, config, s, x, y, th, later, chain)
        if not k[7].converged:
            goal = path.point_at(s)
            exc = NonConvergenceError(
                f"forward simulation from t={t:.3f}s failed to reach the path point "
                f"within its contraction budget; stage pose x={x:.4f} y={y:.4f} "
                f"theta={th:.4f}, path point s={s:.4f} at ({goal.x:.4f}, {goal.y:.4f})")
            if log:  # the nodes logged before the fault
                exc.result = result(converged=False)
            raise exc
        eval_time += time.perf_counter() - t0
        eval_count += 1
        return k

    # one row of C doubles a node: the CSV columns up to pred_radius, then
    # the node's first-stage path rate
    log = array("d")

    def result(converged: bool) -> EpisodeResult:
        # a contiguous copy of each column, so no result array holds the rates
        ts, ss, xs, ys, ths, vs, ws, dfs, radii, rate = map(
            np.array, np.frombuffer(log).reshape(-1, 10).T)
        margins = margin_points(env, np.column_stack([xs, ys]))
        bound = rate[:-1] < config.endpoint_gain * (length - ss[:-1])
        return EpisodeResult(
            method=method,
            epsilon=params.headway_coeff,
            t=ts,
            s=ss,
            x=xs,
            y=ys,
            theta=ths,
            v=vs,
            omega=ws,
            delta_f=dfs,
            pred_radius=radii,
            margin=margins,
            converged=converged,
            travel_time=float(ts[-1]),
            min_margin=float(margins.min()),
            avg_speed=float(np.mean(np.abs(vs))),
            collision_flag=bool(margins.min() < 0.0),
            peak_angular_rate=float(np.max(np.abs(ws))),
            final_goal_distance=math.hypot(goal_end.x - float(xs[-1]),
                                           goal_end.y - float(ys[-1])),
            governor_eval_seconds=eval_time / max(1, eval_count),
            n_governor_evals=eval_count,
            clearance_bound_fraction=float(bound.mean()) if len(bound) else 0.0,
        )

    t = 0.0
    s = 0.0
    x, y, th = start.x, start.y, theta0
    converged = False
    while True:
        k1 = field(s, x, y, th)
        log.extend((t, s, x, y, th, k1[4], k1[3], k1[5], k1[6], k1[0]))
        dist_end = math.hypot(goal_end.x - x, goal_end.y - y)
        if length - s <= stop_tol and dist_end <= stop_tol:
            converged = True
            break
        if t >= config.max_time - 1e-12:
            break
        dt = min(config.step, config.max_time - t)  # land exactly on the horizon
        half = 0.5 * dt
        sixth = dt / 6.0
        k2 = field(s + half * k1[0], x + half * k1[1], y + half * k1[2], th + half * k1[3], True)
        k3 = field(s + half * k2[0], x + half * k2[1], y + half * k2[2], th + half * k2[3], True)
        k4 = field(s + dt * k3[0], x + dt * k3[1], y + dt * k3[2], th + dt * k3[3], True)
        s += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        x += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        y += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        th += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        s = min(max(s, 0.0), length)  # guard the parameter range against overshoot
        t += dt
    return result(converged)
