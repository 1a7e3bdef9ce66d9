"""Workspace, obstacles, free-space clearance, and reference paths.

The robot is a disk of radius ``robot_radius``; its free space is the set
of center positions whose disk fits inside the workspace without touching
any obstacle.  Clearance queries are realized by inflating obstacles and
deflating the workspace by the radius, which reduces every set-vs-set
distance to point/segment-vs-polygon distances: exact for disk robots and
no Minkowski-sum polygons ever need to be built.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

from .geom import (
    _NEXT_VERTEX,
    Polygon,
    Vec2,
    _point_segment_distance_matrix,
    segments_meet,
    triangle_contains,
)
from .prediction import PredictionSet

__all__ = [
    "Environment",
    "ReferencePath",
    "ClearanceError",
    "free_space_margin",
    "margin_points",
    "safety_distance",
    "path_clearance",
    "require_path_clearance",
]


class ClearanceError(Exception):
    """A reference path touches or leaves the free space."""


class Environment:
    """Immutable scene description: workspace polygon, obstacles, robot radius.

    All boundary edges are kept stacked (workspace first, then each obstacle)
    so distance and containment queries run as single array operations with
    per-polygon ``reduceat`` reductions; the governor evaluates clearances
    four times per integration step, so this is the hot path.
    """

    __slots__ = ("workspace", "obstacles", "robot_radius",
                 "_edge_a", "_edge_b", "_group_starts",
                 "_next_edge", "_ex0", "_ey0", "_ex1", "_ey1", "_dy_safe")

    def __init__(self, workspace: Polygon, obstacles: Iterable[Polygon],
                 robot_radius: float):
        obstacles = tuple(obstacles)
        if not (robot_radius > 0.0 and math.isfinite(robot_radius)):
            raise ValueError(f"robot_radius must be positive, got {robot_radius}")
        wxy = workspace.xy
        lo = wxy.min(axis=0) - 1e-9
        hi = wxy.max(axis=0) + 1e-9
        for i, obs in enumerate(obstacles):
            if (obs.xy < lo).any() or (obs.xy > hi).any():
                raise ValueError(f"obstacle {i} leaves the workspace bounding box")
        self.workspace = workspace
        self.obstacles = obstacles
        self.robot_radius = robot_radius
        polys = (workspace,) + obstacles
        # the boundary vertices are the edge start points; each edge's end
        # point is the start point of the next edge in its polygon, and the
        # permutation lets orientation grids be reused
        self._edge_a = np.vstack([p.xy for p in polys])
        counts = [len(p.vertices) for p in polys]
        self._group_starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        nxt = []
        offset = 0
        for c in counts:
            nxt.extend([offset + (k + 1) % c for k in range(c)])
            offset += c
        self._next_edge = np.array(nxt, dtype=np.intp)
        self._edge_b = self._edge_a[self._next_edge]
        self._ex0 = self._edge_a[:, 0][None, :]
        self._ey0 = self._edge_a[:, 1][None, :]
        self._ex1 = self._edge_b[:, 0][None, :]
        self._ey1 = self._edge_b[:, 1][None, :]
        dy = self._ey1 - self._ey0
        self._dy_safe = np.where(dy == 0.0, 1.0, dy)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return (self.workspace == other.workspace
                and self.obstacles == other.obstacles
                and self.robot_radius == other.robot_radius)

    def __repr__(self) -> str:
        return (f"Environment(workspace={self.workspace!r}, "
                f"obstacles={len(self.obstacles)}, robot_radius={self.robot_radius})")


def _boundary_distance_matrix(env: Environment, pts: np.ndarray) -> np.ndarray:
    """Distances from N points to every boundary edge, shape (N, M)."""
    return _point_segment_distance_matrix(pts, env._edge_a, env._edge_b)


def _margins_from_matrix(env: Environment, pts: np.ndarray,
                         dist: np.ndarray) -> np.ndarray:
    """Signed clearances given the precomputed point/edge distance matrix."""
    starts = env._group_starts
    dmin = np.minimum.reduceat(dist, starts, axis=1)
    # crossing counts per polygon decide inside/outside for the sign
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    x0, y0, x1, y1 = env._ex0, env._ey0, env._ex1, env._ey1
    straddle = (y0 <= y) != (y1 <= y)
    xint = x0 + (y - y0) * (x1 - x0) / env._dy_safe
    crossings = np.add.reduceat(straddle & (x < xint), starts, axis=1)
    inside = (crossings % 2) == 1
    signed = np.where(inside, -dmin, dmin)
    signed[:, 0] = -signed[:, 0]  # the workspace counts inward, obstacles outward
    return signed.min(axis=1) - env.robot_radius


def margin_points(env: Environment, pts: np.ndarray) -> np.ndarray:
    """Free-space clearance of each point, shape (N,).

    Positive values mean the robot disk centered there fits strictly inside
    the workspace and clear of all obstacles, with that much room to spare.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return _margins_from_matrix(env, pts, _boundary_distance_matrix(env, pts))


def free_space_margin(env: Environment, p: Vec2) -> float:
    """Signed clearance of a single robot center position."""
    return float(margin_points(env, np.array([[p.x, p.y]]))[0])


def _segments_to_boundary(env: Environment, pts: np.ndarray, dist: np.ndarray,
                          start: slice | np.ndarray, end: slice | np.ndarray) -> float:
    """Smallest distance from the segments ``pts[start] -> pts[end]`` to the
    boundary edges; zero when a segment touches or crosses an edge.

    ``dist`` holds the point/edge distances of ``pts``, which already cover
    the segment-end-to-edge direction; the reverse direction completes the
    edge-edge minimum for segments that miss the boundary.
    """
    if bool(segments_meet(pts, start, end, env._edge_a, env._next_edge).any()):
        return 0.0
    d_rev = _point_segment_distance_matrix(env._edge_a, pts[start], pts[end])
    return min(float(dist.min()), float(d_rev.min()))


def safety_distance(env: Environment, pred: PredictionSet) -> float:
    """Minimum clearance of a prediction set; exactly zero when it exits
    the free space.

    The smallest point margin minus the padding is the clearance of an
    unfilled set.  A filled set also needs its edges clear, and an obstacle
    swallowed whole by it escapes the edge-distance test, so boundary
    vertices are probed for containment.
    """
    pts = pred.points
    dist = _boundary_distance_matrix(env, pts)
    margin = float(_margins_from_matrix(env, pts, dist).min()) - pred.padding
    if not pred.filled or margin <= 0.0:
        return max(0.0, margin)
    if bool(triangle_contains(pts, env._edge_a).any()):
        return 0.0
    edge_clearance = (_segments_to_boundary(env, pts, dist, slice(None), _NEXT_VERTEX)
                      - env.robot_radius - pred.padding)
    return max(0.0, min(margin, edge_clearance))


class ReferencePath:
    """Arc-length parametrized polyline from start to goal.

    Evaluation is piecewise-linear in the arc length, hence 1-Lipschitz by
    construction; the parameter is clamped into [0, length].
    """

    __slots__ = ("waypoints", "_xy", "_cum_list", "_pts_list", "length")

    def __init__(self, waypoints: Sequence[Vec2]):
        pts = tuple(waypoints)
        if len(pts) < 2:
            raise ValueError(f"path needs at least 2 waypoints, got {len(pts)}")
        xy = np.array([[p.x, p.y] for p in pts], dtype=float)
        seg_len = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        if (seg_len == 0.0).any():
            raise ValueError("path has repeated consecutive waypoints")
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.waypoints = pts
        self._xy = xy
        self._cum_list = cum.tolist()
        self._pts_list = [(p.x, p.y) for p in pts]
        self.length = float(cum[-1])

    def point_at(self, s: float) -> Vec2:
        # called four times per integrator step, so it stays scalar
        cum = self._cum_list
        pts = self._pts_list
        if s <= 0.0:
            return Vec2(*pts[0])
        if s >= self.length:
            return Vec2(*pts[-1])
        i = bisect.bisect_right(cum, s) - 1
        if i >= len(pts) - 1:
            i = len(pts) - 2
        frac = (s - cum[i]) / (cum[i + 1] - cum[i])
        x0, y0 = pts[i]
        x1, y1 = pts[i + 1]
        return Vec2(x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferencePath):
            return NotImplemented
        return self.waypoints == other.waypoints

    def __repr__(self) -> str:
        return f"ReferencePath({len(self.waypoints)} waypoints, length={self.length:.3f})"


def path_clearance(env: Environment, path: ReferencePath) -> float:
    """Smallest free-space margin along the path polyline.

    Exact while the path stays off the boundary: its vertex margins give the
    sign, the segment-to-boundary distance the size.  A path that touches or
    crosses the boundary gets a value no greater than minus the robot
    radius.  Scenario validation requires this to be positive before a
    governor run starts; the safe-following guarantee assumes a path with
    clearance.
    """
    pts = path._xy
    dist = _boundary_distance_matrix(env, pts)
    vertex_margin = float(_margins_from_matrix(env, pts, dist).min())
    edge_distance = _segments_to_boundary(env, pts, dist, slice(None, -1), slice(1, None))
    return min(vertex_margin, edge_distance - env.robot_radius)


def require_path_clearance(clearance: float, robot_radius: float, source: str = "") -> None:
    """Raise ``ClearanceError`` unless a ``path_clearance`` value is strictly
    positive.

    At or below minus the robot radius the path itself meets the boundary
    and the value no longer measures depth, so the message says so instead.
    """
    if clearance > 0.0:
        return
    where = f"{source}: " if source else ""
    if clearance <= -robot_radius:
        raise ClearanceError(f"{where}reference path touches or crosses an obstacle "
                             "or the workspace boundary")
    raise ClearanceError(f"{where}reference path clearance is {clearance:.6f} m; "
                         "it must be strictly positive")
