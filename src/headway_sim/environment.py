"""Workspace, obstacles, free-space clearance, and reference paths.

The robot is a disk of radius ``robot_radius``; its free space is the set
of center positions whose disk fits inside the workspace without touching
any obstacle.  Clearance queries are realized by inflating obstacles and
deflating the workspace by the radius, which reduces every set-vs-set
distance to point/segment-vs-polygon distances: exact for disk robots and
no Minkowski-sum polygons ever need to be built.

Each query builds one displacement grid between its points and the
boundary vertices (``_grid``) and reads everything from it: the
point/edge distances, the crossing parity behind each margin's sign, the
orientations of the points against the edges and of the boundary vertices
against the set's edges, the swallowed-obstacle probe and the reverse
edge-to-set-edge distances.  The edge arrays are built once per scene.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

# _point_segment_distance_matrix is not called here; the benchmark's tracer
# (bench/spans.py) patches it in this namespace
from .geom import (
    _BLOCK_PAIRS,
    _NEXT_VERTEX,
    Polygon,
    Vec2,
    _grid_distance,
    _meet,
    _orientations,
    _point_segment_distance_matrix,
    _safe_len2,
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
    as split x/y arrays of their starts and directions, built once here, so
    every clearance query runs on one displacement grid with per-polygon
    ``reduceat`` reductions; the governor evaluates clearances four times
    per integration step, so this is the hot path.
    """

    __slots__ = ("workspace", "obstacles", "robot_radius",
                 "_edge_a", "_group_starts", "_next_edge", "_workspace_col",
                 "_a", "_d", "_safe", "_by", "_dy_safe")

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
        self._workspace_col = np.arange(len(polys)) == 0
        nxt = []
        offset = 0
        for c in counts:
            nxt.extend([offset + (k + 1) % c for k in range(c)])
            offset += c
        self._next_edge = np.array(nxt, dtype=np.intp)
        # edge starts and directions, x and y split along the first axis
        # (2, 1, M), so they broadcast against a grid of points
        edge_b = self._edge_a[self._next_edge]
        self._a = np.ascontiguousarray(self._edge_a.T[:, None, :])
        self._d = edge_b.T[:, None, :] - self._a
        self._safe = _safe_len2(self._d)
        self._by = edge_b[:, 1]
        self._dy_safe = np.where(self._d[1] == 0.0, 1.0, self._d[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return (self.workspace == other.workspace
                and self.obstacles == other.obstacles
                and self.robot_radius == other.robot_radius)

    def __repr__(self) -> str:
        return (f"Environment(workspace={self.workspace!r}, "
                f"obstacles={len(self.obstacles)}, robot_radius={self.robot_radius})")


def _grid(env: Environment, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The displacement grid ``w`` (2, N, M) from every boundary vertex to
    every point, and the point/edge distances (N, M) computed from it."""
    p = pts.T[:, :, None]
    w = p - env._a
    return w, _grid_distance(w, p, env._a, env._d, env._safe)


def _signed_distances(env: Environment, pts: np.ndarray, w: np.ndarray,
                      dist: np.ndarray) -> np.ndarray:
    """Signed distance from each point to each polygon, shape (N, P):
    positive on the free side (inside the workspace, outside an obstacle)."""
    starts = env._group_starts
    dmin = np.minimum.reduceat(dist, starts, axis=1)
    # crossing parity per polygon decides inside/outside for the sign
    px, py = pts[:, 0, None], pts[:, 1, None]
    straddle = (env._a[1] <= py) != (env._by <= py)
    xint = w[1] * env._d[0]
    xint /= env._dy_safe
    xint += env._a[0]
    inside = np.logical_xor.reduceat(straddle & (px < xint), starts, axis=1)
    # the workspace counts inward, obstacles outward
    return np.negative(dmin, out=dmin, where=inside != env._workspace_col)


def margin_points(env: Environment, pts: np.ndarray) -> np.ndarray:
    """Free-space clearance of each point, shape (N,).

    Positive values mean the robot disk centered there fits strictly inside
    the workspace and clear of all obstacles, with that much room to spare.
    Points are taken in row blocks of ``_BLOCK_PAIRS`` point-edge pairs, so
    a whole episode's nodes never build one large grid.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    rows = max(1, _BLOCK_PAIRS // len(env._edge_a))
    out = np.empty(len(pts))
    for i in range(0, len(pts), rows):
        block = pts[i:i + rows]
        out[i:i + rows] = _signed_distances(env, block, *_grid(env, block)).min(axis=1)
    out -= env.robot_radius
    return out


def free_space_margin(env: Environment, p: Vec2) -> float:
    """Signed clearance of a single robot center position."""
    return float(margin_points(env, np.array([[p.x, p.y]]))[0])


def _segments_to_boundary(env: Environment, pts: np.ndarray, w: np.ndarray, dist: np.ndarray,
                          start: slice | np.ndarray, end: slice | np.ndarray,
                          area2: float = 0.0) -> float:
    """Smallest distance from the segments ``pts[start] -> pts[end]`` to the
    boundary edges; zero when a segment touches or crosses an edge, or when
    the closed triangle of signed doubled area ``area2`` (nonzero) holds a
    boundary vertex, which catches an obstacle swallowed whole.

    ``w, dist`` is ``_grid(env, pts)``.  Its point/edge distances already
    cover the segment-end-to-edge direction; the reverse direction, edge
    vertex to segment, completes the edge-edge minimum for segments that
    miss the boundary.  The orientations and the reverse distances come
    from the same grid with the roles swapped, which negates it exactly.
    """
    seg = pts[end] - pts[start]
    o_pts, o_edge = _orientations(w, env._d, seg, start)
    hit = _meet(pts, start, end, env._edge_a, env._next_edge, o_pts, o_edge)
    if area2 != 0.0:
        # o_edge is the sign that puts a boundary vertex inside the triangle
        inner = o_edge >= 0.0 if area2 > 0.0 else o_edge <= 0.0
        hit = hit | inner.all(axis=0)
    if bool(hit.any()):
        return 0.0
    p, d = pts[start].T[:, :, None], seg.T[:, :, None]
    # the reverse grid is -w; dividing by -safe instead negates t exactly
    d_rev = _grid_distance(w[:, start], env._a, p, d, -_safe_len2(d))
    return min(float(dist.min()), float(d_rev.min()))


def safety_distance(env: Environment, pred: PredictionSet) -> float:
    """Minimum clearance of a prediction set; exactly zero when it exits
    the free space.

    The smallest point margin minus the padding is the clearance of an
    unfilled set.  A filled set also needs its edges clear, and an obstacle
    swallowed whole by it escapes the edge-distance test, so boundary
    vertices are probed for containment.  A collinear triangle holds a
    boundary vertex only where one of its edges meets that vertex's edge,
    which the intersection test already finds.
    """
    pts = pred.points
    w, dist = _grid(env, pts)
    margin = float(_signed_distances(env, pts, w, dist).min()) - env.robot_radius - pred.padding
    if not pred.filled or margin <= 0.0:
        return max(0.0, margin)
    (x0, y0), (x1, y1), (x2, y2) = pts.tolist()
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    edge_clearance = (_segments_to_boundary(env, pts, w, dist, slice(None), _NEXT_VERTEX, area2)
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
    w, dist = _grid(env, pts)
    vertex_margin = float(_signed_distances(env, pts, w, dist).min()) - env.robot_radius
    edge_distance = _segments_to_boundary(env, pts, w, dist, slice(None, -1), slice(1, None))
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
