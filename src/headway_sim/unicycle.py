"""Kinematic unicycle model and headway-point goal controllers.

The robot state is a planar position plus a forward orientation angle; the
control inputs are a linear speed along the heading and an angular rate.
Goal seeking uses a virtual *headway point* placed ahead of the robot on
its heading and steered by first-order error feedback toward the goal.

Two control laws are provided, each as a scalar kernel ``law(px, py,
theta, gx, gy, coeffs) -> (v cos(theta), v sin(theta), w, v)``, the state
derivative plus the speed, one sine and cosine a call, with the law's
coefficients in one tuple, which the integrator hot loops call directly:

* ``_adaptive_control`` scales the headway distance with the current goal
  distance (``d = eps * |goal - position|``).  With ``eps < 1`` the
  headway point and the robot reach the goal together, and the linear
  velocity denominator ``1 - eps * cos(bearing error)`` stays positive.
* ``_fixed_control`` is the classical fixed-offset variant, which parks
  the robot one headway distance short of the goal.  It is kept as a
  baseline for the steady-state-offset comparison.

``_adaptive_control_many`` is the adaptive law's array twin, one column a
run, for ``ode.simulate_many``'s lockstep runs.

The adaptive controller stops (zero input) inside a small goal ball to
resolve the indeterminacy of the bearing at the goal point itself.  The
fixed controller has no such ball: its equilibrium lies one headway
distance from the goal, and at the goal it drives the robot backward.

The one headway frame is the float kernel ``_turning_frame``; the circle
and triangle prediction sets and the property checks all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Vec2

_TAU = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    w = math.remainder(theta, _TAU)
    return -math.pi if w == math.pi else w


@dataclass(frozen=True)
class UnicycleState:
    """Robot pose; the orientation is wrapped into [-pi, pi) on construction."""

    position: Vec2
    orientation: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.orientation):
            raise ValueError(f"orientation must be finite, got {self.orientation}")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))


@dataclass(frozen=True)
class ControllerParams:
    """Adaptive headway controller parameters.

    headway_coeff: fraction of the goal distance used as headway distance,
        strictly inside (0, 1); the upper bound is required both to keep the
        linear-velocity denominator positive and for goal convergence.
    ref_gain: first-order feedback gain (1/s) of the headway-point motion.
    goal_tolerance: radius (m) of the stopping ball where control is zero.
    """

    headway_coeff: float = 0.5
    ref_gain: float = 1.0
    goal_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.headway_coeff < 1.0):
            raise ValueError(
                f"headway_coeff must be strictly between 0 and 1, got {self.headway_coeff}")
        if not (self.ref_gain > 0.0 and math.isfinite(self.ref_gain)):
            raise ValueError(f"ref_gain must be positive and finite, got {self.ref_gain}")
        if not (self.goal_tolerance >= 0.0 and math.isfinite(self.goal_tolerance)):
            raise ValueError(f"goal_tolerance must be finite and >= 0, got {self.goal_tolerance}")


def headway_point(state: UnicycleState, goal: Vec2, params: ControllerParams) -> Vec2:
    """Virtual point one adaptive headway distance, ``eps * |position -
    goal|``, ahead of the robot."""
    x, y, th = state.position.x, state.position.y, state.orientation
    d = params.headway_coeff * math.hypot(x - goal.x, y - goal.y)
    return Vec2(x + math.cos(th) * d, y + math.sin(th) * d)


def _adaptive_control(px: float, py: float, theta: float, gx: float, gy: float,
                      coeffs: tuple[float, float, float]) -> tuple:
    """Scalar kernel of the adaptive headway control law; ``coeffs`` is
    ``(headway_coeff, ref_gain, goal_tolerance)``."""
    eps, gain, tol = coeffs
    dx = gx - px
    dy = gy - py
    r = math.hypot(dx, dy)
    if r <= tol:  # zero input, with the signs of zero that v cos, v sin give
        return 0.0 * math.cos(theta), 0.0 * math.sin(theta), 0.0, 0.0
    ux = dx / r
    uy = dy / r
    c = math.cos(theta)
    s = math.sin(theta)
    align = c * ux + s * uy          # heading . unit-to-goal
    across = -s * ux + c * uy        # normal . unit-to-goal
    v = gain * r * (align - eps) / (1.0 - eps * align)
    w = (gain / eps) * across
    return v * c, v * s, w, v


def _hypots(dx, dy) -> np.ndarray:
    """``math.hypot`` of each pair, which ``np.hypot`` can miss by a last bit."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))


def _adaptive_control_many(state, goal, coeffs, r=None) -> np.ndarray:
    """``_adaptive_control`` of each column of ``state`` (rows x, y, theta)
    toward that column of ``goal`` (rows gx, gy), in its order of operations:
    the rows of the state derivative.  ``r``, when given, is ``_hypots`` of
    the goal offsets."""
    eps, gain, tol = coeffs
    offsets = goal - state[:2]
    if r is None:
        r = _hypots(*offsets)
    stop = r <= tol
    frozen = stop.any()
    if frozen:  # 1 keeps r = 0 from dividing; their inputs are zeroed below
        r = np.where(stop, 1.0, r)
    ux, uy = offsets / r
    c = np.cos(state[2])
    s = np.sin(state[2])
    align = c * ux + s * uy
    across = -s * ux + c * uy
    v = gain * r * (align - eps) / (1.0 - eps * align)
    w = gain / eps * across
    if frozen:  # zero input, with the signs of zero that v cos, v sin give
        v = np.where(stop, 0.0, v)
        w = np.where(stop, 0.0, w)
    return np.array([v * c, v * s, w])


def _fixed_control(px: float, py: float, theta: float, gx: float, gy: float,
                   coeffs: tuple[float, float]) -> tuple:
    """Scalar kernel of the fixed-offset headway law; ``coeffs`` is
    ``(gain, fixed_distance)``."""
    gain, d = coeffs
    dx = gx - px
    dy = gy - py
    c = math.cos(theta)
    s = math.sin(theta)
    v = gain * (c * dx + s * dy - d)
    w = (gain / d) * (-s * dx + c * dy)
    return v * c, v * s, w, v


def _turning_frame(x: float, y: float, c: float, s: float, gx: float, gy: float,
                   eps: float, r: float) -> tuple:
    """Headway frame ``(hx, hy, tx, ty, nx, ny, qx, qy, k)`` of a robot at
    ``(x, y)`` with heading ``(c, s)`` and goal distance ``r > 0``: the
    headway point, the unit tangent of its travel, the unit normal signed
    toward the robot (a tie picks ``(-ty, tx)``), the position projected on
    the travel line, and the length ``k`` that makes ``[q, q + k n]``
    bracket the position.  The operation order is pinned by
    ``TestFloatBuilders::test_match_vec2_construction``; any reordering moves
    the shipped outputs in the last bit."""
    kh = eps * r
    hx, hy = x + c * kh, y + s * kh
    to_x, to_y = gx - hx, gy - hy
    # |goal - h| >= (1 - eps) * r > 0, but below about 5.6e-309 it has no inverse
    inv = 1.0 / math.hypot(to_x, to_y)
    if inv == math.inf:
        raise ValueError(f"goal distance {r!r} is too small for a headway frame")
    tx, ty = to_x * inv, to_y * inv
    along = tx * (x - gx) + ty * (y - gy)
    qx, qy = gx + tx * along, gy + ty * along
    k = eps / math.sqrt(1.0 - eps * eps) * math.hypot(qx - gx, qy - gy)
    nx, ny = (-ty, tx) if (gx - x) * -s + (gy - y) * c >= 0.0 else (ty, -tx)
    return hx, hy, tx, ty, nx, ny, qx, qy, k
