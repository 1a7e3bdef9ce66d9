"""Feedback motion prediction sets for the adaptive headway controller.

Each method returns a region guaranteed to contain the entire future
closed-loop position trajectory toward a fixed goal, as one type,
``PredictionSet``: points widened by a padding, or the filled triangle of
three points.

* ``circular_prediction``: the goal padded by the current goal distance
  when the robot heading is aligned with the goal (alignment at least the
  headway coefficient) and by the extended-position distance otherwise.
* ``triangular_bound``: the tight filled triangle of the alignment analysis;
  it changes discontinuously for goals almost exactly behind the robot.
* ``triangular_prediction``: a slightly enlarged filled triangle whose two
  branch formulas agree exactly on the alignment boundary, restoring a
  Lipschitz distance-to-collision measure.
* ``forward_sim_prediction``: numerically integrated trajectory samples
  padded by half the largest step chord; the expensive ground-truth
  baseline.

All sets shrink to the goal point as the robot converges, which is what the
path governor needs to keep making progress.  The circle and both triangles
are built from floats ``(x, y, cos theta, sin theta, gx, gy)`` on the one
headway frame ``unicycle._turning_frame``.  Their operation order is pinned by
``TestFloatBuilders::test_match_vec2_construction``: any reordering moves the
shipped outputs in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import Triangle, Vec2, triangle_distance
from .ode import SimConfig, Trajectory, simulate_to_goal
from .unicycle import ControllerParams, UnicycleState, _turning_frame


class PredictionSet:
    """Prediction region: the points (K, 2) widened by ``padding``.

    An unfilled set is the union of the closed disks of radius ``padding``
    about its points.  A filled set (class flag ``filled``) is the closed
    triangle of its three points, widened by ``padding``.  Clearance, set
    distance, goal radius, the SVG and the containment check (acceptance
    criterion 2) all read the set this one way.

    ``converged`` is False when the underlying forward simulation exhausted
    its budget before reaching the goal ball, which signals an integration
    or parameter fault rather than a controller failure.
    """

    __slots__ = ("points", "padding", "converged")
    filled = False

    def __init__(self, points, padding: float, converged: bool = True):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) < 1:
            raise ValueError("prediction set needs at least one point")
        if not (padding >= 0.0 and math.isfinite(padding)):
            raise ValueError(f"prediction set padding must be finite and >= 0, got {padding}")
        self.points, self.padding, self.converged = pts, padding, converged


class Disk(PredictionSet):
    """Closed disk prediction region: its center padded by its radius.

    Like ``Tri``, this class only constructs the set; the simulator reads
    ``points`` and ``padding``, and ``center`` and ``radius`` read them back
    for callers that dispatch on the construction.
    """

    __slots__ = ()

    def __init__(self, center: Vec2, radius: float):
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"disk radius must be finite and >= 0, got {radius}")
        super().__init__([[center.x, center.y]], radius)

    @property
    def center(self) -> Vec2:
        return Vec2(*self.points[0].tolist())

    @property
    def radius(self) -> float:
        return self.padding


class Tri(PredictionSet):
    """Filled triangular prediction region (possibly degenerate), unpadded,
    from its three vertex rows (3, 2)."""

    __slots__ = ()
    filled = True

    def __init__(self, vertices):
        super().__init__(vertices, 0.0)
        if len(self.points) != 3:
            raise ValueError(f"a triangle needs 3 vertices, got {len(self.points)}")

    @property
    def triangle(self) -> Triangle:
        return Triangle(*(Vec2(x, y) for x, y in self.points.tolist()))


def _disk_radius(x: float, y: float, c: float, s: float, gx: float, gy: float,
                 eps: float) -> float:
    """Radius of the circular prediction for a robot at ``(x, y)`` with
    heading ``(c, s)``."""
    dx, dy = gx - x, gy - y
    r = math.hypot(dx, dy)
    if r == 0.0 or (c * dx + s * dy) / r >= eps:
        return r
    _, _, _, _, nx, ny, qx, qy, k = _turning_frame(x, y, c, s, gx, gy, eps, r)
    return math.hypot(qx + nx * k - gx, qy + ny * k - gy)


def _triangle_rows(x: float, y: float, c: float, s: float, gx: float, gy: float,
                   eps: float, aligned: bool | None = None) -> list[list[float]]:
    """Vertex rows of the triangular prediction for a robot at ``(x, y)``
    with heading ``(c, s)``; ``aligned`` forces a branch, which the
    alignment ``a`` picks when None.  The forward-motion branch stretches
    the headway point by ``(1 - a) / (1 - eps)`` headway distances; the
    turning branch mirrors the extended position across the travel line."""
    dx, dy = gx - x, gy - y
    r = math.hypot(dx, dy)
    if r == 0.0:
        return [[gx, gy], [gx, gy], [gx, gy]]
    a = (c * dx + s * dy) / r
    if aligned is None:
        aligned = a >= eps
    if aligned:
        d = eps * r
        m = (1.0 - a) / (1.0 - eps) * d
        return [[gx, gy], [x, y], [x + c * d + c * m, y + s * d + s * m]]
    _, _, tx, ty, _, _, qx, qy, k = _turning_frame(x, y, c, s, gx, gy, eps, r)
    return [[gx, gy], [qx + -ty * k, qy + tx * k], [qx + ty * k, qy + -tx * k]]


def circular_prediction(state: UnicycleState, goal: Vec2,
                        params: ControllerParams) -> Disk:
    """Goal-centered disk containing the future position trajectory."""
    p, th = state.position, state.orientation
    return Disk(goal, _disk_radius(p.x, p.y, math.cos(th), math.sin(th), goal.x, goal.y,
                                   params.headway_coeff))


def triangular_bound(state: UnicycleState, goal: Vec2, params: ControllerParams) -> Tri:
    """Tight triangular containment region of the future position trajectory.

    Aligned starts use the goal / position / headway-point triangle; others
    the goal / projected / extended triangle.  Degenerate (collinear)
    triangles are legitimate results, e.g. when the robot faces the goal
    head-on.
    """
    p, th, gx, gy = state.position, state.orientation, goal.x, goal.y
    x, y, c, s, eps = p.x, p.y, math.cos(th), math.sin(th), params.headway_coeff
    dx, dy = gx - x, gy - y
    r = math.hypot(dx, dy)
    if r == 0.0:
        return Tri([[gx, gy]] * 3)
    if (c * dx + s * dy) / r >= eps:
        d = eps * r
        return Tri([[gx, gy], [x, y], [x + c * d, y + s * d]])
    _, _, _, _, nx, ny, qx, qy, k = _turning_frame(x, y, c, s, gx, gy, eps, r)
    return Tri([[gx, gy], [qx, qy], [qx + nx * k, qy + ny * k]])


def triangular_prediction(state: UnicycleState, goal: Vec2,
                          params: ControllerParams) -> Tri:
    """Enlarged triangular prediction with a continuous branch switch.

    On the alignment boundary the two vertex constructions produce the same
    point set, so the induced distance-to-collision measure is Lipschitz in
    the robot state.
    """
    p, th = state.position, state.orientation
    return Tri(_triangle_rows(p.x, p.y, math.cos(th), math.sin(th), goal.x, goal.y,
                              params.headway_coeff))


def forward_sim_prediction(state: UnicycleState, goal: Vec2, params: ControllerParams,
                           sim: SimConfig) -> PredictionSet:
    """Sampled closed-loop trajectory toward the fixed goal, with padding.

    The padding is half the largest step chord, which covers between-sample
    excursions to first order; the set is a reference baseline rather than a
    certified bound.
    """
    return _sampled_set(simulate_to_goal(state, goal, params, step=sim.inner_step(),
                                         goal_tol=sim.goal_tolerance))


def _sampled_set(traj: Trajectory) -> PredictionSet:
    """A run's positions padded by half its largest step chord."""
    pts = traj.positions
    if len(pts) < 2:
        padding = 0.0
    else:
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        padding = 0.5 * float(chords.max())
    return PredictionSet(pts, padding, converged=traj.converged)


def prediction_distance(pred: PredictionSet, z: Vec2) -> float:
    """Minimum distance from the prediction set to a point; zero inside."""
    if pred.filled:
        d = float(triangle_distance(pred.points, [[z.x, z.y]])[0])
    else:
        d = min(math.hypot(z.x - x, z.y - y) for x, y in pred.points.tolist())
    return max(0.0, d - pred.padding)


def prediction_goal_radius(pred: PredictionSet, goal: Vec2) -> float:
    """Largest distance from the goal to any point of the set, plus its
    padding.

    This is the quantity the governor relies on decaying to zero along the
    closed-loop motion; each distance is ``math.hypot`` of the point's
    offsets.
    """
    gx, gy = goal.x, goal.y
    return max([math.hypot(x - gx, y - gy) for x, y in pred.points.tolist()]) + pred.padding
