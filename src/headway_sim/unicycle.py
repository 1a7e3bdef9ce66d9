"""Kinematic unicycle model and headway-point goal controllers.

The robot state is a planar position plus a forward orientation angle; the
control inputs are a linear speed along the heading and an angular rate.
Goal seeking uses a virtual *headway point* placed ahead of the robot on
its heading and steered by first-order error feedback toward the goal.

Two control laws are provided, each as a scalar kernel ``law(px, py,
theta, gx, gy, coeffs) -> (v, w)`` with the law's coefficients in one
tuple, which the integrator hot loops call directly:

* ``_adaptive_control`` scales the headway distance with the current goal
  distance (``d = eps * |goal - position|``).  With ``eps < 1`` the
  headway point and the robot reach the goal together, and the linear
  velocity denominator ``1 - eps * cos(bearing error)`` stays positive.
* ``_fixed_control`` is the classical fixed-offset variant, which parks
  the robot one headway distance short of the goal.  It is kept as a
  baseline for the steady-state-offset comparison.

The adaptive controller stops (zero input) inside a small goal ball to
resolve the indeterminacy of the bearing at the goal point itself.  The
fixed controller has no such ball: its equilibrium lies one headway
distance from the goal, and at the goal it drives the robot backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Vec2

__all__ = [
    "UnicycleState",
    "ControllerParams",
    "HeadwayFrame",
    "wrap_angle",
    "heading_vector",
    "normal_vector",
    "headway_point",
    "headway_frame",
]

_TAU = 2.0 * math.pi
_ZERO = Vec2(0.0, 0.0)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    w = math.remainder(theta, _TAU)
    return -math.pi if w == math.pi else w


def heading_vector(theta: float) -> Vec2:
    """Unit vector along the robot heading."""
    return Vec2(math.cos(theta), math.sin(theta))


def normal_vector(theta: float) -> Vec2:
    """Unit vector normal to the heading (heading rotated by +pi/2)."""
    return Vec2(-math.sin(theta), math.cos(theta))


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
            raise ValueError(f"ref_gain must be positive, got {self.ref_gain}")
        if not (self.goal_tolerance >= 0.0 and math.isfinite(self.goal_tolerance)):
            raise ValueError(f"goal_tolerance must be >= 0, got {self.goal_tolerance}")


@dataclass(frozen=True)
class HeadwayFrame:
    """Geometric frame of the headway-point motion toward a goal.

    tangent: unit direction of headway-point travel (zero vector at the goal).
    normal: unit normal of that travel, signed toward the robot's offset side.
    projected: robot position projected onto the headway travel line.
    extended: projected position pushed along the normal so that the segment
        [projected, extended] brackets the true robot position.
    """

    headway_point: Vec2
    tangent: Vec2
    normal: Vec2
    projected: Vec2
    extended: Vec2


def headway_point(state: UnicycleState, goal: Vec2, params: ControllerParams) -> Vec2:
    """Virtual point one adaptive headway distance, ``eps * |position -
    goal|``, ahead of the robot."""
    d = params.headway_coeff * (state.position - goal).norm()
    return state.position + d * heading_vector(state.orientation)


def _adaptive_control(px: float, py: float, theta: float, gx: float, gy: float,
                      coeffs: tuple[float, float, float]) -> tuple[float, float]:
    """Scalar kernel of the adaptive headway control law; ``coeffs`` is
    ``(headway_coeff, ref_gain, goal_tolerance)``."""
    eps, gain, tol = coeffs
    dx = gx - px
    dy = gy - py
    r = math.hypot(dx, dy)
    if r <= tol:
        return 0.0, 0.0
    ux = dx / r
    uy = dy / r
    c = math.cos(theta)
    s = math.sin(theta)
    align = c * ux + s * uy          # heading . unit-to-goal
    across = -s * ux + c * uy        # normal . unit-to-goal
    v = gain * r * (align - eps) / (1.0 - eps * align)
    w = (gain / eps) * across
    return v, w


def _fixed_control(px: float, py: float, theta: float, gx: float, gy: float,
                   coeffs: tuple[float, float]) -> tuple[float, float]:
    """Scalar kernel of the fixed-offset headway law; ``coeffs`` is
    ``(gain, fixed_distance)``."""
    gain, d = coeffs
    dx = gx - px
    dy = gy - py
    c = math.cos(theta)
    s = math.sin(theta)
    v = gain * (c * dx + s * dy - d)
    w = (gain / d) * (-s * dx + c * dy)
    return v, w


def headway_frame(state: UnicycleState, goal: Vec2, params: ControllerParams) -> HeadwayFrame:
    """Tangent/normal frame of the headway motion plus the projected and
    extended robot positions that bracket the true position.

    At the goal every field collapses to the goal point with zero tangent
    and normal.  The normal's sign tie (robot exactly on the travel line)
    resolves to the counterclockwise quarter-turn of the tangent.
    """
    p = state.position
    delta = goal - p
    r = delta.norm()
    if r == 0.0:
        return HeadwayFrame(goal, _ZERO, _ZERO, goal, goal)
    eps = params.headway_coeff
    h = p + (eps * r) * heading_vector(state.orientation)
    to_goal = goal - h
    # |goal - h| >= (1 - eps) * r > 0 away from the goal
    tangent = to_goal * (1.0 / to_goal.norm())
    if delta.dot(normal_vector(state.orientation)) >= 0.0:
        normal = tangent.perp()
    else:
        normal = -tangent.perp()
    projected = goal + tangent * tangent.dot(p - goal)
    proj_dist = (projected - goal).norm()
    scale = eps / math.sqrt(1.0 - eps * eps)
    extended = projected + (scale * proj_dist) * normal
    return HeadwayFrame(h, tangent, normal, projected, extended)
