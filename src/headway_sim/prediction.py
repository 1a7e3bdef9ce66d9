"""Feedback motion prediction sets for the adaptive headway controller.

Each method returns a region guaranteed to contain the entire future
closed-loop position trajectory toward a fixed goal:

* ``circular_prediction``: a disk about the goal whose radius is the current
  goal distance when the robot heading is aligned with the goal (alignment
  at least the headway coefficient) and the extended-position distance
  otherwise.
* ``triangular_bound``: the tight triangle from the alignment analysis;
  it changes discontinuously for goals almost exactly behind the robot.
* ``triangular_prediction``: a slightly enlarged triangle whose two branch
  formulas agree exactly on the alignment boundary, restoring a Lipschitz
  distance-to-collision measure.
* ``forward_sim_prediction``: numerically integrated trajectory samples with
  a half-chord padding; the expensive ground-truth baseline.

All sets shrink to the goal point as the robot converges, which is what the
path governor needs to keep making progress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geom import (
    Segment,
    Triangle,
    Vec2,
    min_distance_to_segments,
    point_segment_distance,
    triangle_contains,
)
from .ode import SimConfig, simulate_to_goal
from .unicycle import (
    ControllerParams,
    UnicycleState,
    headway_frame,
    headway_point,
    heading_vector,
)

__all__ = [
    "Disk",
    "Tri",
    "Hull",
    "PredictionSet",
    "goal_alignment",
    "circular_prediction",
    "triangular_bound",
    "triangular_prediction",
    "forward_sim_prediction",
    "prediction_distance",
    "prediction_goal_radius",
]


@dataclass(frozen=True)
class Disk:
    """Closed disk prediction region."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"disk radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class Tri:
    """Triangular prediction region (possibly degenerate)."""

    triangle: Triangle


@dataclass(frozen=True, eq=False)
class Hull:
    """Sampled-trajectory prediction region: polyline points plus padding.

    ``converged`` is False when the underlying forward simulation exhausted
    its budget before reaching the goal ball, which signals an integration
    or parameter fault rather than a controller failure.
    """

    points: np.ndarray
    padding: float
    converged: bool = field(default=True)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if len(pts) < 1:
            raise ValueError("hull prediction needs at least one point")
        if not (self.padding >= 0.0 and math.isfinite(self.padding)):
            raise ValueError(f"hull padding must be >= 0, got {self.padding}")
        object.__setattr__(self, "points", pts)


PredictionSet = Union[Disk, Tri, Hull]


def goal_alignment(state: UnicycleState, goal: Vec2) -> float:
    """Inner product of the heading with the unit vector toward the goal.

    Returns 1.0 at the goal itself, where the bearing is undefined and
    every prediction set degenerates to the goal point anyway.
    """
    delta = goal - state.position
    r = delta.norm()
    if r == 0.0:
        return 1.0
    return heading_vector(state.orientation).dot(delta) / r


def circular_prediction(state: UnicycleState, goal: Vec2,
                        params: ControllerParams) -> Disk:
    """Goal-centered disk containing the future position trajectory."""
    r = (state.position - goal).norm()
    if r == 0.0:
        return Disk(goal, 0.0)
    if goal_alignment(state, goal) >= params.headway_coeff:
        return Disk(goal, r)
    frame = headway_frame(state, goal, params)
    return Disk(goal, (frame.extended - goal).norm())


def triangular_bound(state: UnicycleState, goal: Vec2,
                     params: ControllerParams) -> Triangle:
    """Tight triangular containment region of the future position trajectory.

    Aligned starts use the goal / position / headway-point triangle; others
    the goal / projected / extended triangle.  Degenerate (collinear)
    triangles are legitimate results, e.g. when the robot faces the goal
    head-on.
    """
    p = state.position
    if (p - goal).norm() == 0.0:
        return Triangle(goal, goal, goal)
    if goal_alignment(state, goal) >= params.headway_coeff:
        return Triangle(goal, p, headway_point(state, goal, params))
    frame = headway_frame(state, goal, params)
    return Triangle(goal, frame.projected, frame.extended)


def _aligned_prediction_vertices(state: UnicycleState, goal: Vec2,
                                 params: ControllerParams) -> tuple[Vec2, Vec2, Vec2]:
    """Forward-motion branch vertices: goal, position, stretched headway point."""
    p = state.position
    eps = params.headway_coeff
    r = (goal - p).norm()
    d = eps * r
    a = goal_alignment(state, goal)
    h = headway_point(state, goal, params)
    stretched = h + ((1.0 - a) / (1.0 - eps) * d) * heading_vector(state.orientation)
    return goal, p, stretched


def _turning_prediction_vertices(state: UnicycleState, goal: Vec2,
                                 params: ControllerParams) -> tuple[Vec2, Vec2, Vec2]:
    """Turning branch vertices: goal plus both signed extended positions."""
    eps = params.headway_coeff
    frame = headway_frame(state, goal, params)
    proj = frame.projected
    proj_dist = (proj - goal).norm()
    offset = (eps / math.sqrt(1.0 - eps * eps) * proj_dist) * frame.tangent.perp()
    return goal, proj + offset, proj - offset


def triangular_prediction(state: UnicycleState, goal: Vec2,
                          params: ControllerParams) -> Tri:
    """Enlarged triangular prediction with a continuous branch switch.

    On the alignment boundary the two vertex constructions produce the same
    point set, so the induced distance-to-collision measure is Lipschitz in
    the robot state.
    """
    p = state.position
    if (p - goal).norm() == 0.0:
        return Tri(Triangle(goal, goal, goal))
    if goal_alignment(state, goal) >= params.headway_coeff:
        v0, v1, v2 = _aligned_prediction_vertices(state, goal, params)
    else:
        v0, v1, v2 = _turning_prediction_vertices(state, goal, params)
    return Tri(Triangle(v0, v1, v2))


def forward_sim_prediction(state: UnicycleState, goal: Vec2, params: ControllerParams,
                           sim: SimConfig) -> Hull:
    """Sampled closed-loop trajectory toward the fixed goal, with padding.

    The padding is half the largest step chord, which covers between-sample
    excursions to first order; the set is a reference baseline rather than a
    certified bound.
    """
    traj = simulate_to_goal(state, goal, params, step=sim.inner_step(),
                            goal_tol=sim.goal_tolerance)
    pts = traj.positions
    if len(pts) < 2:
        padding = 0.0
    else:
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        padding = 0.5 * float(chords.max())
    return Hull(pts, padding, converged=traj.converged)


def prediction_distance(pred: PredictionSet, z: Vec2) -> float:
    """Minimum distance from the prediction set to a point; zero inside."""
    if isinstance(pred, Disk):
        return max(0.0, (z - pred.center).norm() - pred.radius)
    if isinstance(pred, Tri):
        tri = pred.triangle
        if triangle_contains(tri.vertex_array(), [[z.x, z.y]])[0]:
            return 0.0
        return min(
            point_segment_distance(z, Segment(tri.v0, tri.v1)),
            point_segment_distance(z, Segment(tri.v1, tri.v2)),
            point_segment_distance(z, Segment(tri.v2, tri.v0)),
        )
    if isinstance(pred, Hull):
        pts = pred.points
        zz = np.array([z.x, z.y])
        if len(pts) == 1:
            d = float(np.hypot(*(zz - pts[0])))
        else:
            d = float(min_distance_to_segments(zz[None, :], pts[:-1], pts[1:])[0])
        return max(0.0, d - pred.padding)
    raise TypeError(f"not a prediction set: {pred!r}")


def prediction_goal_radius(pred: PredictionSet, goal: Vec2) -> float:
    """Largest distance from the goal to any point of the set.

    This is the quantity the governor relies on decaying to zero along the
    closed-loop motion.
    """
    if isinstance(pred, Disk):
        return (pred.center - goal).norm() + pred.radius
    if isinstance(pred, Tri):
        return max((v - goal).norm() for v in pred.triangle.vertices)
    if isinstance(pred, Hull):
        d = np.linalg.norm(pred.points - [goal.x, goal.y], axis=1)
        return float(d.max()) + pred.padding
    raise TypeError(f"not a prediction set: {pred!r}")
