"""Deterministic fixed-step RK4 integration of the unicycle closed loop.

``rollout`` is the one RK4 loop for a robot driven toward a fixed goal by
a scalar control law; the adaptive-headway entry point ``simulate_to_goal``
(forward-sim predictions, the property suite) and the fixed-headway
baseline check both run on it.  ``simulation.run_episode`` keeps its own
loop: its governed state carries the path parameter ``s`` and it logs each
node's first-stage results, which the rollout could only serve through a
per-stage closure, and the rollout is most of forward-sim's time.

A fixed step keeps runs bit-reproducible (golden CSV/SVG files diff
cleanly).  Every shipped scenario steps at 10 ms; the 5 ms default is not
validated on its own.  What is checked: the acceptance gate's criterion 8
requires the step-halving error ratio of a closed-loop ``simulate_to_goal``
run (0.1 s against 0.05 s) to lie in [12, 20], around RK4's 16, so it
certifies the loop that predictions and episodes' inner runs use; and the
benchmark checks the closed-loop headway point against its closed form
h(t) = g + exp(-k t) (h0 - g), with worst relative errors of 1.4e-9 at
dt = 0.01 and 1.6e-8 at dt = 0.02 over the 200 property-suite runs
(``bench/README.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .unicycle import ControllerParams, UnicycleState, _adaptive_control
from .geom import Vec2

__all__ = ["SimConfig", "rollout", "simulate_to_goal", "convergence_budget",
           "Trajectory"]


@dataclass(frozen=True)
class SimConfig:
    """Integration and governor settings for an episode.

    step: outer RK4 time step (s).
    max_time: simulated-time horizon (s) after which a run reports
        non-convergence; forward-sim predictions keep their own inner
        horizon from ``convergence_budget``.
    goal_tolerance: termination radius (m) for episode endpoints.
    clearance_gain: rate gain multiplying the prediction-set clearance in
        the path-parameter dynamics.
    endpoint_gain: rate gain pulling the path parameter to the path end.
    prediction_step: inner step used when a prediction method needs its own
        forward simulation; defaults to ``step`` when None.
    """

    step: float = 0.005
    max_time: float = 60.0
    goal_tolerance: float = 1e-4
    clearance_gain: float = 4.0
    endpoint_gain: float = 4.0
    prediction_step: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step}")
        if not (self.max_time > 0.0 and math.isfinite(self.max_time)):
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if not (self.goal_tolerance >= 0.0 and math.isfinite(self.goal_tolerance)):
            raise ValueError(f"goal_tolerance must be >= 0, got {self.goal_tolerance}")
        if not (self.clearance_gain > 0.0 and self.endpoint_gain > 0.0):
            raise ValueError("governor gains must be positive")
        if self.prediction_step is not None and not self.prediction_step > 0.0:
            raise ValueError(f"prediction_step must be positive, got {self.prediction_step}")

    def inner_step(self) -> float:
        return self.step if self.prediction_step is None else self.prediction_step


@dataclass
class Trajectory:
    """Closed-loop unicycle run: times (K,), states (K, 3) as x, y, theta."""

    t: np.ndarray
    states: np.ndarray
    converged: bool

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, :2]

    def final_state(self) -> UnicycleState:
        x, y, th = self.states[-1]
        return UnicycleState(Vec2(float(x), float(y)), float(th))


def convergence_budget(state: UnicycleState, goal: Vec2, params: ControllerParams,
                       tol: float) -> float:
    """Time horizon sufficient to reach the ``tol`` ball around the goal.

    The headway point contracts exponentially at the feedback gain and the
    goal distance is at most its distance over ``1 - headway_coeff``, so the
    log bound plus slack covers every start; exceeding it signals a fault.
    """
    eps = params.headway_coeff
    h0 = (1.0 + eps) * (state.position - goal).norm()
    if h0 <= tol:
        return 1.0
    return 1.5 * math.log(h0 / ((1.0 - eps) * tol)) / params.ref_gain + 5.0


def rollout(law: Callable[..., tuple[float, float]], coeffs: tuple, state: UnicycleState,
            goal: Vec2, step: float, max_time: float, tol: float) -> Trajectory:
    """Integrate the unicycle under ``law(px, py, theta, gx, gy, coeffs) ->
    (v, w)`` toward a fixed goal.

    Stops once the goal distance is at most ``tol`` (flagged as converged)
    or at ``max_time``, which the last, shortened step lands on exactly.
    """
    px, py, th = state.position.x, state.position.y, state.orientation
    gx, gy = goal.x, goal.y
    times = [0.0]
    rows = [(px, py, th)]
    t = 0.0
    converged = math.hypot(gx - px, gy - py) <= tol
    while not converged and t < max_time - 1e-12:
        dt = min(step, max_time - t)
        half = 0.5 * dt
        sixth = dt / 6.0
        v1, w1 = law(px, py, th, gx, gy, coeffs)
        k1x = v1 * math.cos(th)
        k1y = v1 * math.sin(th)
        x2, y2, th2 = px + half * k1x, py + half * k1y, th + half * w1
        v2, w2 = law(x2, y2, th2, gx, gy, coeffs)
        k2x = v2 * math.cos(th2)
        k2y = v2 * math.sin(th2)
        x3, y3, th3 = px + half * k2x, py + half * k2y, th + half * w2
        v3, w3 = law(x3, y3, th3, gx, gy, coeffs)
        k3x = v3 * math.cos(th3)
        k3y = v3 * math.sin(th3)
        x4, y4, th4 = px + dt * k3x, py + dt * k3y, th + dt * w3
        v4, w4 = law(x4, y4, th4, gx, gy, coeffs)
        k4x = v4 * math.cos(th4)
        k4y = v4 * math.sin(th4)
        px += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        py += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        th += sixth * (w1 + 2.0 * (w2 + w3) + w4)
        t += dt
        times.append(t)
        rows.append((px, py, th))
        converged = math.hypot(gx - px, gy - py) <= tol
    return Trajectory(np.array(times), np.array(rows, dtype=float), converged)


def simulate_to_goal(state: UnicycleState, goal: Vec2, params: ControllerParams,
                     step: float, goal_tol: Optional[float] = None,
                     max_time: Optional[float] = None) -> Trajectory:
    """Integrate the adaptive-headway closed loop toward a fixed goal.

    Stops once the goal distance falls inside the tolerance (the larger of
    ``goal_tol`` and the controller's stopping ball, so the loop cannot
    stall on a frozen control).  When ``max_time`` is omitted, the horizon
    comes from the exponential contraction of the headway point distance,
    plus slack; failing to converge within it flags the run.
    """
    # the stop radius cannot undercut the controller's own freeze ball
    tol = max(params.goal_tolerance, goal_tol if goal_tol is not None else 0.0)
    if tol <= 0.0:
        tol = 1e-12
    if max_time is None:
        max_time = convergence_budget(state, goal, params, tol)
    coeffs = (params.headway_coeff, params.ref_gain, params.goal_tolerance)
    return rollout(_adaptive_control, coeffs, state, goal, step, max_time, tol)
