"""Deterministic fixed-step RK4 integration of the unicycle closed loop.

Two RK4 loops drive a robot toward a fixed goal.  ``rollout`` steps one run
under a scalar control law.  Its adaptive-headway entry point
``simulate_to_goal`` serves forward-sim predictions, each of which starts
from the state the episode has reached, and the property checks of at most
20 runs (fixed offset, headway reference, RK4 order), where numpy's cost per
call leaves little gain.  ``simulate_many`` steps independent
adaptive-headway runs in lockstep on arrays and yields each run's
``simulate_to_goal`` result, bit for bit, as it stops; the property suite's
200 trajectory cases, their forward-sim sets and its 100 convergence starts
run on it.  ``simulation.run_episode`` keeps its own loop: its governed state
carries the path parameter ``s`` and it logs each node's first-stage results.

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
from typing import Callable, Iterator, Optional

import numpy as np

from .unicycle import (ControllerParams, UnicycleState, _adaptive_control,
                       _adaptive_control_many, _hypots)
from .geom import Vec2

# the end of RK4's stability interval on the negative real axis, rounded down
_RK4_LIMIT = 2.785
# steps per history block of ``simulate_many``; blocks of 32 to 512 steps ran
# the property suite's three batches within 6% of each other
_BLOCK = 128


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
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.max_time > 0.0 and math.isfinite(self.max_time)):
            raise ValueError(f"max_time must be positive and finite, got {self.max_time}")
        if not (self.goal_tolerance >= 0.0 and math.isfinite(self.goal_tolerance)):
            raise ValueError(f"goal_tolerance must be finite and >= 0, got {self.goal_tolerance}")
        for name in ("clearance_gain", "endpoint_gain", "prediction_step"):
            value = getattr(self, name)
            # an infinite gain times a zero clearance or distance is a NaN rate
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def inner_step(self) -> float:
        return self.step if self.prediction_step is None else self.prediction_step


def require_stable_step(params: ControllerParams, config: SimConfig) -> None:
    """Raise ``ValueError`` for a step outside RK4's stability interval, or a
    stop radius of 0 or one inside the controller's freeze ball (the episode
    never ends).

    Linearised, the bearing error decays at ``k (1 - eps) / eps`` near
    alignment and at ``k (1 + eps) / eps`` at the turning equilibrium, and
    the path parameter at ``endpoint_gain`` near the path end and at up to
    ``clearance_gain`` where the clearance binds (``delta_F`` falls at most
    at unit rate in ``s``).  A step times a decay rate beyond 2.785 makes RK4
    diverge instead.  A step too small to advance the clock at its horizon
    would never reach it: ``max_time`` for the episode step, and 1 s, the
    shortest horizon ``convergence_budget`` gives, for the prediction step.
    """
    if not config.goal_tolerance > 0.0:
        raise ValueError(f"goal_tolerance {config.goal_tolerance:g} m: the robot approaches "
                         "the path end exponentially and never reaches distance 0, so the "
                         "episode could not end")
    if config.goal_tolerance < params.goal_tolerance:
        raise ValueError(f"goal_tolerance {config.goal_tolerance:g} m is below the controller's "
                         f"goal_tolerance {params.goal_tolerance:g} m, where its control freezes")
    _require_clock_step(config.step, config.max_time)
    _require_clock_step(config.inner_step(), 1.0, "prediction_step")
    turn = params.ref_gain * (1.0 + params.headway_coeff) / params.headway_coeff
    outer = max(turn, config.endpoint_gain, config.clearance_gain)
    for label, h, rate in (("step", config.step, outer),
                           ("prediction_step", config.inner_step(), turn)):
        if h * rate > _RK4_LIMIT:
            raise ValueError(f"{label} {h:g} s times the fastest closed-loop decay rate "
                             f"{rate:.4g} 1/s is {h * rate:.4g}, beyond RK4's stability "
                             f"limit {_RK4_LIMIT}")


def _require_clock_step(step: float, horizon: float, label: str = "step") -> None:
    """Raise ``ValueError`` when ``horizon + step`` rounds back to ``horizon``:
    a loop stepping the clock toward the horizon would then never end."""
    if horizon + step == horizon:
        raise ValueError(f"{label} {step:g} s cannot advance the clock at the "
                         f"{horizon:g} s horizon")


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


def rollout(law: Callable[..., tuple[float, float, float, float]], coeffs: tuple,
            state: UnicycleState, goal: Vec2, step: float, max_time: float,
            tol: float) -> Trajectory:
    """Integrate the unicycle under ``law(px, py, theta, gx, gy, coeffs) ->
    (x_rate, y_rate, w, v)``, the state derivative plus the speed, toward a
    fixed goal.

    Stops once the goal distance is at most ``tol`` (flagged as converged)
    or at ``max_time``, which the last, shortened step lands on exactly.
    Refuses a step too small to advance the clock at ``max_time``.
    """
    _require_clock_step(step, max_time)
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
        k1x, k1y, w1, _ = law(px, py, th, gx, gy, coeffs)
        k2x, k2y, w2, _ = law(px + half * k1x, py + half * k1y, th + half * w1, gx, gy, coeffs)
        k3x, k3y, w3, _ = law(px + half * k2x, py + half * k2y, th + half * w2, gx, gy, coeffs)
        k4x, k4y, w4, _ = law(px + dt * k3x, py + dt * k3y, th + dt * w3, gx, gy, coeffs)
        px += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        py += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        th += sixth * (w1 + 2.0 * (w2 + w3) + w4)
        t += dt
        times.append(t)
        rows.append((px, py, th))
        converged = math.hypot(gx - px, gy - py) <= tol
    return Trajectory(np.array(times), np.array(rows, dtype=float), converged)


def _stop_radius(params: ControllerParams, goal_tol: Optional[float]) -> float:
    # the stop radius cannot undercut the controller's own freeze ball
    tol = max(params.goal_tolerance, goal_tol if goal_tol is not None else 0.0)
    return tol if tol > 0.0 else 1e-12


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
    tol = _stop_radius(params, goal_tol)
    if max_time is None:
        max_time = convergence_budget(state, goal, params, tol)
    coeffs = (params.headway_coeff, params.ref_gain, params.goal_tolerance)
    return rollout(_adaptive_control, coeffs, state, goal, step, max_time, tol)


def simulate_many(states, goals, params, step: float, goal_tol: Optional[float] = None,
                  max_times=None) -> Iterator[tuple[int, Trajectory]]:
    """Yield ``(i, simulate_to_goal(states[i], goals[i], params[i], step,
    goal_tol, max_times[i]))`` for every run, in the order the runs stop,
    stepped in lockstep on arrays.

    Each array operation is the scalar loop's on every element, and every
    distance is ``math.hypot``'s, so each run's ``Trajectory`` is the scalar
    run's bit for bit, with its own horizon and last step.  Each step's rows
    go to a step-major block of ``_BLOCK`` steps; a run that has stopped is
    held at ``dt = 0`` until its block ends, then copied out, yielded and
    dropped from the batch.  A caller keeps only what it needs of each run:
    held all at once, the property suite's 100 convergence runs or 200
    forward-sim sets raised its peak memory by about 3 MiB.
    """
    tols = [_stop_radius(p, goal_tol) for p in params]
    if max_times is None:
        max_times = [convergence_budget(*run) for run in zip(states, goals, params, tols)]
    for horizon in max_times:
        _require_clock_step(step, horizon)
    # per run, one column: x, y, theta; gx, gy, eps, gain, freeze radius, stop
    # radius, horizon
    cols = np.array([(s.position.x, s.position.y, s.orientation, g.x, g.y, p.headway_coeff,
                      p.ref_gain, p.goal_tolerance, tol, horizon)
                     for s, g, p, tol, horizon in zip(states, goals, params, tols, max_times)],
                    dtype=float).reshape(-1, 10).T.copy()
    state, consts = cols[:3], cols[3:]
    parts = [[np.array([[0.0, *row]])] for row in state.T.tolist()]
    ids = list(range(len(parts)))
    t = np.zeros(len(ids))
    r = _hypots(*(consts[:2] - state[:2]))
    conv = r <= consts[5]
    buf = np.empty((_BLOCK, 4, len(ids)))
    law = _adaptive_control_many
    while ids:
        goal, coeffs, (tol, horizon) = consts[:2], consts[2:5], consts[5:]
        end = horizon - 1e-12
        done = conv | (t >= end)
        rows = np.zeros(len(ids), dtype=int)
        block = buf[:, :, :len(ids)]
        for k in range(_BLOCK):
            if done.all():
                break
            dt = np.where(done, 0.0, np.minimum(step, horizon - t))
            half = 0.5 * dt
            k1 = law(state, goal, coeffs, r)
            k2 = law(state + half * k1, goal, coeffs)
            k3 = law(state + half * k2, goal, coeffs)
            k4 = law(state + dt * k3, goal, coeffs)
            state = state + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            t = t + dt
            block[k, 0] = t
            block[k, 1:] = state
            rows += ~done
            r = _hypots(*(goal - state[:2]))
            conv |= ~done & (r <= tol)
            done |= conv | (t >= end)
        for j, (i, n) in enumerate(zip(ids, rows.tolist())):
            parts[i].append(block[:n, :, j].copy())
            if done[j]:
                yield i, Trajectory(np.concatenate([p[:, 0] for p in parts[i]]),
                                    np.concatenate([p[:, 1:] for p in parts[i]]), bool(conv[j]))
                parts[i] = None
        keep = ~done
        ids = [i for i, d in zip(ids, done.tolist()) if not d]
        state, consts, t, r, conv = state[:, keep], consts[:, keep], t[keep], r[keep], conv[keep]
