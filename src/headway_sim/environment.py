"""Workspace, obstacles, free-space clearance, and reference paths.

The robot is a disk of radius ``robot_radius``; its free space is the set
of center positions whose disk fits inside the workspace without touching
any obstacle.  Clearance queries are realized by inflating obstacles and
deflating the workspace by the radius, which reduces every set-vs-set
distance to point/segment-vs-polygon distances: exact for disk robots and
no Minkowski-sum polygons ever need to be built.

Only the set query (``safety_distance``) and the margins (``margin_points``)
share the displacement grid: each call builds one between its points and
the boundary vertices (``_grid``) and reads from it the squared point/edge
distances, the crossing parity, both orientation grids, the
swallowed-obstacle probe and the reverse edge distances.

``safety_distance`` gates first: when the unsigned margin, the root of the
least squared distance minus the radius and the padding, is not positive,
the clearance is 0.0 whatever the sides.  Past the gate the parity only
asks whether any point is on the wrong side, for points farther than the
radius plus the padding from every edge.  A filled set's edges then get
the strict-sign crossing test alone: a touch that ``segments_meet``'s box
tests would add puts a set vertex on a boundary edge or a boundary vertex
on a set edge, its distance is at rounding level, and ``max(0, distance -
radius - padding)`` maps it to 0.0 as well.  ``path_clearance`` reports
depths below zero and reads three public kernels: the full
``segments_meet``, ``margin_points`` and ``min_distance_to_segments``.

A ``ClearanceChain`` carries one episode's queries, whose consecutive sets
lie millimetres apart, and shortens them with every output unchanged; it
also tells a later RK4 stage when it needs no query at all.  Let the new
set B have as many points as the last queried set A, the same fill, and
every point within m of A's point of the same index; then every point of
B's closed set lies within m of A's point of the same barycentric weights
(a disk's center, a forward-sim sample).  The chain measures m once per
set, and B's query reuses the m its pull test measured.  ``tau``
(``_rounding_bound``) lies orders of magnitude above the rounding of any
computed distance.  A's clearance is exact: every query the chain runs
equals the full query bit for bit.

* Pull.  With h = m plus the difference of the paddings, clearance, a
  distance to the free-space complement, falls by at most h from A to B.
  So when ``gain * (clearance_A - 2h - tau) > endpoint``, B's clearance
  rate is above the endpoint pull, and the governor's ``min`` of the two
  would return the pull: ``pull_binds`` says so, and a later RK4 stage of
  ``simulation.governor_field`` returns the pull with no query.  The test
  takes twice the bound h as a margin, and needs ``tau``: without it, one
  stage of the shipped open/triangle run computed a clearance 2.2e-16 m
  below ``clearance_A - h``.  A is always of the current step, since every
  step's first stage queries.
* Side.  When clearance_A > 0 and ``m + tau < clearance_A + robot_radius +
  padding_A``, every point of A's set lies farther than ``m + tau`` from
  the boundary, so the segment joining it to its partner in B cannot reach
  the boundary: B lies on the free side and holds no boundary point.  Its
  query skips the parity, the crossings and the probe, which would all
  pass.  The guard clearance_A > 0 is required: a set on the wrong side
  reports 0.0, and the bound alone would then carry the next set inside an
  obstacle to a positive clearance.
* Columns.  Column e is boundary edge e and, for a filled set, boundary
  vertex e too, edge e's start, so the forward grid and the reverse grid
  share columns.  A column's value, the least distance between the set
  and it, moves by at most m from A to B.  A refresh is a full-width query
  without side tests; it keeps the columns whose value is at most ``limit
  = 2 best + tau``, best being the least value.  Let D be the displacement
  accumulated since the refresh, B's included.  Every dropped column of B
  then lies above ``limit - D``, and A's least column, a kept one, at most
  ``best_A + m`` from B.  While ``limit - D >= best_A + m + tau`` B's least
  column is a kept one, so the kept columns' least squared distance is the
  full width's, bit for bit (each grid element is computed alone), and so
  is the clearance ``max(0, root - robot_radius - padding)``.  The margin
  gate reads the forward distances alone.  Where its least lies in a
  dropped column and fires, the least column of all is a kept reverse
  one, below ``robot_radius + padding``: the kept columns' query returns
  0.0 too, from its own gate or from the ``max``.
* Anything else is a full query, which re-seeds the chain: an episode's
  first query, one after a clearance of 0.0, and a set whose point count
  or fill differs, as a forward-sim set does when its inner run differs in
  length from the last one's (13-30% of the queries of the shipped
  forward-sim episodes; the rest are culled).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional, Sequence

import numpy as np

# _point_segment_distance_matrix is not called here; the benchmark's tracer
# (bench/spans.py) patches it in this namespace
from .geom import (
    _BLOCK_PAIRS,
    _NEXT_VERTEX,
    Polygon,
    Vec2,
    _crossings,
    _grid_sq_distance,
    _orientations,
    _origin_box_diagonal,
    _overflow_message,
    _point_segment_distance_matrix,
    _safe_len2,
    _zero_gap_message,
    min_distance_to_segments,
    segments_meet,
)
from .prediction import _LOOP_POINTS, PredictionSet


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
                 "_a", "_d", "_safe", "_ax", "_dx", "_dy_safe")

    def __init__(self, workspace: Polygon, obstacles: Iterable[Polygon],
                 robot_radius: float):
        obstacles = tuple(obstacles)
        if not (robot_radius > 0.0 and math.isfinite(robot_radius)):
            raise ValueError(f"robot_radius must be positive and finite, got {robot_radius}")
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
        self._ax, self._dx = self._a[0], self._d[0]
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


def _grid(columns, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The displacement grid ``w`` (2, N, M) from every boundary vertex to
    every point, and the squared point/edge distances (N, M) from it, on
    the M boundary columns whose ``_a``, ``_d`` and ``_safe`` ``columns``
    holds: an ``Environment``, or a ``ClearanceChain``'s kept ones."""
    p = pts.T[:, :, None]
    w = p - columns._a
    return w, _grid_sq_distance(w, p, columns._a, columns._d, columns._safe)


def _wrong_side(env: Environment, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Crossing parity, shape (N, P): True where a point lies outside the
    workspace or inside an obstacle."""
    # the rounded py - ay is >= 0 exactly when ay <= py, and each edge's end
    # is the next edge's start, so the grid gives both straddle comparisons
    above = w[1] >= 0.0
    straddle = above != above.take(env._next_edge, axis=1)
    xint = w[1] * env._dx
    xint /= env._dy_safe
    xint += env._ax
    inside = np.logical_xor.reduceat(straddle & (pts[:, 0, None] < xint),
                                     env._group_starts, axis=1)
    return inside != env._workspace_col  # workspace inward, obstacles outward


# boundaries with more edges than _NEAR_EDGES measure runs of _NEAR_RUN
# consecutive points against their nearby edges only (``margin_points``).
# Timed on episode nodes, runs of 32 cost about half of runs of 16 and about
# as much as runs of 40 or 48; at 32 the near edges cost more than the full
# width up to about 80 edges and less from about 96
_NEAR_EDGES = 96
_NEAR_RUN = 32


def margin_points(env: Environment, pts: np.ndarray) -> np.ndarray:
    """Free-space clearance of each point, shape (N,).

    Positive values mean the robot disk centered there fits strictly inside
    the workspace and clear of all obstacles, with that much room to spare.
    A point on the wrong side of a polygon (outside the workspace, inside an
    obstacle) gets minus its distance to that polygon, minus the radius.
    Points are taken in row blocks of ``_BLOCK_PAIRS`` point-edge pairs, so
    a whole episode's nodes never build one large grid.

    On a boundary of more than ``_NEAR_EDGES`` edges, consecutive points
    (an episode's nodes) are taken in runs of ``_NEAR_RUN``, each anchored
    at its first point p0 by one full-width row: p0's squared distance to
    every column and its side.  Let R be the largest distance from p0 to a
    point of the run, d0 the root of p0's least squared distance and ``tau``
    the ``_rounding_bound``.  When p0 is on the free side and d0 > R + tau,
    no segment from p0 to a point of the run reaches the boundary, so every
    point of the run is on the free side.  A column farther than d0 + 2R +
    tau from p0 is then farther from each point q of the run than q's
    nearest column, which lies within d0 + R of q.  So the run's values are
    the roots of the least squared distances over the kept columns: the
    full width's, bit for bit, since each grid element is computed alone and
    the square root is monotone.  Any other run (a point on the wrong side,
    a run that comes within R of the boundary, sparse points such as a
    path's vertices) takes the full-width rows.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if len(env._edge_a) <= _NEAR_EDGES:
        out = _signed_distances(env, pts)
    else:
        out = np.empty(len(pts))
        tau = _rounding_bound(env)
        for i in range(0, len(pts), _NEAR_RUN):
            run = pts[i:i + _NEAR_RUN]
            w, sq = _grid(env, run[:1])
            d0 = math.sqrt(sq.min())
            reach = math.sqrt(np.square(run - run[0]).sum(axis=1).max())
            if d0 > reach + tau and not _wrong_side(env, run[:1], w).any():
                keep = np.flatnonzero(np.sqrt(sq[0]) <= d0 + 2.0 * reach + tau)
                a, d, safe = (np.take(v, keep, axis=-1) for v in (env._a, env._d, env._safe))
                p = run.T[:, :, None]
                out[i:i + _NEAR_RUN] = np.sqrt(_grid_sq_distance(p - a, p, a, d, safe).min(axis=1))
            else:
                out[i:i + _NEAR_RUN] = _signed_distances(env, run)
    out -= env.robot_radius
    return out


def _signed_distances(env: Environment, pts: np.ndarray) -> np.ndarray:
    """The least over the polygons of each point's distance to the polygon,
    negated on its wrong side, shape (N,), in full-width row blocks."""
    rows = max(1, _BLOCK_PAIRS // len(env._edge_a))
    out = np.empty(len(pts))
    for i in range(0, len(pts), rows):
        block = pts[i:i + rows]
        w, sq = _grid(env, block)
        # the distance to each polygon (N, P), negated on its wrong side
        dmin = np.sqrt(np.minimum.reduceat(sq, env._group_starts, axis=1))
        np.negative(dmin, out=dmin, where=_wrong_side(env, block, w))
        out[i:i + rows] = dmin.min(axis=1)
    return out


def safety_distance(env: Environment, pred: PredictionSet,
                    chain: Optional["ClearanceChain"] = None) -> float:
    """Minimum clearance of a prediction set; exactly zero when it exits
    the free space.

    In order: the margin gate, the parity, and for a filled set its edges,
    by strict sign (see the module docstring), and the swallowed-obstacle
    probe; then the least of the point/edge and reverse distances.  A
    collinear triangle holds a boundary vertex only on an edge, where the
    reverse distance is at rounding level.

    With a ``chain`` of ``env``, the query may skip the side tests or read
    only the boundary columns that can bind (the module docstring's
    argument); the value is the full query's, bit for bit.
    """
    if chain is None:
        return _clearance(env, pred, True, env)[0]
    if chain.env is not env:
        raise ValueError("the clearance chain belongs to another environment")
    return chain._query(pred)


def _clearance(env: Environment, pred: PredictionSet, sides: bool, columns) -> tuple:
    """``safety_distance`` on the boundary ``columns`` (see ``_grid``), with
    the side tests when ``sides``.  Returns the clearance and, when it is
    positive, the least squared column distance and the grids (forward,
    and reverse for a filled set)."""
    pts = pred.points
    w, sq = _grid(columns, pts)
    least = sq.min()
    margin = math.sqrt(least) - env.robot_radius - pred.padding
    if margin <= 0.0 or sides and _wrong_side(env, pts, w).any():
        return 0.0, None, None
    if not pred.filled:
        return margin, least, (sq,)
    (x0, y0), (x1, y1), (x2, y2) = pts.tolist()
    sx, sy = (x1 - x0, x2 - x1, x0 - x2), (y1 - y0, y2 - y1, y0 - y2)
    # the edge directions (2, 3, 1) and their negated _safe_len2 (3, 1)
    edges = np.array([sx, sy, [-q if q > 0.0 else -math.inf
                               for q in (u * u + v * v for u, v in zip(sx, sy))]])
    sd = edges[:2, :, None]
    if sides:
        o_pts, o_edge = _orientations(w, env._d, sd, slice(None))
        if _crossings(slice(None), _NEXT_VERTEX, env._next_edge, o_pts, o_edge).any():
            return 0.0, None, None
        area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        # a boundary vertex in the closed triangle has no o_edge of the wrong sign
        if area2 > 0.0 and o_edge.min(axis=0).max() >= 0.0:
            return 0.0, None, None
        if area2 < 0.0 and o_edge.max(axis=0).min() <= 0.0:
            return 0.0, None, None
    # the reverse grid is -w; dividing by -safe instead negates t exactly
    rev = _grid_sq_distance(w, columns._a, pts.T[:, :, None], sd, edges[2, :, None])
    reach = min(least, rev.min())
    clearance = max(0.0, math.sqrt(reach) - env.robot_radius - pred.padding)
    return clearance, reach, (sq, rev)


def _rounding_bound(env: Environment) -> float:
    """The rounding allowance ``tau`` of the clearance chain's pull, side
    and column certificates and of the near-edge node margins: 1e-9 times
    the diagonal of the bounding box of the workspace and the origin, which
    bounds every coordinate a clearance query sees."""
    return 1e-9 * _origin_box_diagonal(env.workspace.xy)


def _index_move(b: np.ndarray, a: np.ndarray) -> float:
    """m: the largest distance between points of the same index of two
    point arrays of one length."""
    if len(b) > _LOOP_POINTS:
        return float(np.hypot(*(b - a).T).max())
    return max([math.hypot(bx - ax, by - ay)
                for (bx, by), (ax, ay) in zip(b.tolist(), a.tolist())])


class ClearanceChain:
    """One episode's run of ``safety_distance`` queries against ``env``,
    shortened by the module docstring's argument, and its endpoint-pull
    certificate (``pull_binds``).

    It holds the last queried set's points, fill, padding, clearance and
    least column distance ``best``; the columns the last refresh or full
    query kept, with their edge arrays, its ``limit`` and the displacement
    ``moved`` since; ``kind``, how the last query ran: "full", "refresh" or
    "culled"; and the last set m was measured for, with m.
    """

    __slots__ = ("env", "tau", "points", "filled", "padding", "clearance", "best",
                 "limit", "moved", "kind", "_known", "_a", "_d", "_safe")

    def __init__(self, env: Environment):
        self.env = env
        self.tau = _rounding_bound(env)
        self.points: Optional[np.ndarray] = None
        self.filled = False
        self.padding = self.clearance = self.best = self.moved = 0.0
        self.limit = -math.inf
        self.kind: Optional[str] = None
        self._known: Optional[tuple] = None

    def pull_binds(self, pred: PredictionSet, endpoint: float, gain: float) -> bool:
        """Whether the last queried set certifies that at ``pred`` the
        endpoint pull binds (the module docstring's Pull): ``gain *
        (clearance - 2h - tau) > endpoint``.  It does not when no set was
        queried or the point counts or fills differ."""
        m = self._move(pred)
        if m is None:
            return False
        h = m + abs(pred.padding - self.padding)
        return gain * (self.clearance - 2.0 * h - self.tau) > endpoint

    def _move(self, pred: PredictionSet) -> Optional[float]:
        """m from the last queried set to ``pred``, measured once per set;
        None when no set was queried or the point counts or fills differ."""
        known, last = self._known, self.points
        if known is not None and known[0] is pred:
            return known[1]
        if last is None or len(pred.points) != len(last) or pred.filled != self.filled:
            return None
        m = _index_move(pred.points, last)
        self._known = (pred, m)
        return m

    def _plan(self, pred: PredictionSet) -> str:
        if not self.clearance > 0.0:
            return "full"
        m = self._move(pred)
        if m is None or not m + self.tau < self.clearance + self.env.robot_radius + self.padding:
            return "full"
        if self.limit - (self.moved + m) >= self.best + m + self.tau:
            self.moved += m
            return "culled"
        return "refresh"

    def _query(self, pred: PredictionSet) -> float:
        kind = self._plan(pred)
        env = self.env
        clearance, reach, grids = _clearance(env, pred, kind == "full",
                                             self if kind == "culled" else env)
        self.kind, self.points, self.filled, self._known = kind, pred.points, pred.filled, None
        self.padding, self.clearance = pred.padding, clearance
        if clearance > 0.0:
            self.best = math.sqrt(reach)
            if kind != "culled":
                self.limit = 2.0 * self.best + self.tau
                column = np.vstack(grids).min(axis=0)
                keep = np.flatnonzero(np.sqrt(column) <= self.limit)
                # take keeps the columns contiguous, as indexing would not
                self._a, self._d, self._safe = (np.take(v, keep, axis=-1)
                                                for v in (env._a, env._d, env._safe))
                self.moved = 0.0
        return clearance


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
        too_large = _overflow_message("path", xy)
        if too_large is not None:
            raise ValueError(too_large)
        gaps = np.diff(xy, axis=0)
        seg_len = np.linalg.norm(gaps, axis=1)
        if (seg_len == 0.0).any():
            raise ValueError(_zero_gap_message("path", "waypoints", gaps))
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

    Exact while the path stays off the boundary: segments that do not meet
    are closest at an endpoint of one, so the vertex margins
    (``margin_points``, which give the sign) and the distances from the
    boundary vertices to the path (``min_distance_to_segments``) cover every
    pair.  A path that touches or crosses the boundary gets a value no
    greater than minus the robot radius; ``segments_meet``'s box tests find
    the touches, whose rounded distances need not be zero.  Scenario
    validation requires this to be positive before a governor run starts;
    the safe-following guarantee assumes a path with clearance.
    """
    pts = path._xy
    vertex_margin = float(margin_points(env, pts).min())
    if segments_meet(pts, slice(None, -1), slice(1, None), env._edge_a, env._next_edge).any():
        edge_distance = 0.0
    else:
        edge_distance = float(min_distance_to_segments(env._edge_a, pts[:-1], pts[1:]).min())
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
