"""Exact planar geometry and the closed-form headway reference, kept apart
from the simulator.

Nothing here imports ``headway_sim``: the benchmark checks the simulator's
clearances and trajectories against these functions, so they must not share
its code.  Containment uses winding numbers (the simulator uses crossing
parity) and segment distances are computed pairwise with an explicit
intersection test.

A scene is a workspace polygon, obstacle polygons and a robot radius.  The
free space is the set of robot centres whose disk fits inside the workspace
and clear of every obstacle; the *margin* of a point is its signed distance
to the workspace and obstacle boundaries (positive in free space) minus the
robot radius, and the *clearance* of a set is the smallest margin over it,
floored at zero.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 16  # point-edge pairs per block, bounds temporary memory


def _edges(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return poly, np.roll(poly, -1, axis=0)


def _point_edge_distance(px, py, ax, ay, bx, by):
    """Distance from points to segments, broadcast over the arguments."""
    ex = bx - ax
    ey = by - ay
    len2 = ex * ex + ey * ey
    t = np.divide((px - ax) * ex + (py - ay) * ey, len2,
                  out=np.zeros(np.broadcast(px, len2).shape), where=len2 > 0.0)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * ex), py - (ay + t * ey))


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _within_box(ax, ay, bx, by, px, py):
    return ((np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by)))


def segments_meet(a, b, c, d) -> np.ndarray:
    """Whether closed segments [a, b] and [c, d] share a point.

    Arguments are ``(..., 2)`` arrays broadcast against each other.  Touching
    and collinear overlap count as meeting.
    """
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    cx, cy, dx, dy = c[..., 0], c[..., 1], d[..., 0], d[..., 1]
    d1 = _cross(cx, cy, dx, dy, ax, ay)
    d2 = _cross(cx, cy, dx, dy, bx, by)
    d3 = _cross(ax, ay, bx, by, cx, cy)
    d4 = _cross(ax, ay, bx, by, dx, dy)
    proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
    touch = ((d1 == 0) & _within_box(cx, cy, dx, dy, ax, ay)
             | (d2 == 0) & _within_box(cx, cy, dx, dy, bx, by)
             | (d3 == 0) & _within_box(ax, ay, bx, by, cx, cy)
             | (d4 == 0) & _within_box(ax, ay, bx, by, dx, dy))
    return proper | touch


def segment_distance(a, b, c, d) -> np.ndarray:
    """Exact distance between closed segments [a, b] and [c, d], broadcast."""
    ax, ay, bx, by = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    cx, cy, dx, dy = c[..., 0], c[..., 1], d[..., 0], d[..., 1]
    best = np.minimum(
        np.minimum(_point_edge_distance(ax, ay, cx, cy, dx, dy),
                   _point_edge_distance(bx, by, cx, cy, dx, dy)),
        np.minimum(_point_edge_distance(cx, cy, ax, ay, bx, by),
                   _point_edge_distance(dx, dy, ax, ay, bx, by)))
    return np.where(segments_meet(a, b, c, d), 0.0, best)


def winding_number(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Winding number of a closed polygon around each point, shape (N,)."""
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    a, b = _edges(poly)
    ax, ay, bx, by = a[None, :, 0], a[None, :, 1], b[None, :, 0], b[None, :, 1]
    side = _cross(ax, ay, bx, by, px, py)
    up = (ay <= py) & (by > py) & (side > 0)
    down = (ay > py) & (by <= py) & (side < 0)
    return up.sum(axis=1) - down.sum(axis=1)


def signed_polygon_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Signed distance from each point to a simple polygon: negative inside."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.asarray(poly, dtype=float)
    a, b = _edges(poly)
    out = np.empty(len(points))
    rows = max(1, _CHUNK // len(poly))
    for i in range(0, len(points), rows):
        p = points[i:i + rows]
        d = _point_edge_distance(p[:, 0][:, None], p[:, 1][:, None],
                                 a[None, :, 0], a[None, :, 1],
                                 b[None, :, 0], b[None, :, 1]).min(axis=1)
        out[i:i + rows] = np.where(winding_number(p, poly) != 0, -d, d)
    return out


class Scene:
    """Workspace, obstacles and robot radius, as plain coordinate arrays."""

    def __init__(self, workspace, obstacles, robot_radius: float):
        self.workspace = np.asarray(workspace, dtype=float)
        self.obstacles = [np.asarray(o, dtype=float) for o in obstacles]
        self.robot_radius = float(robot_radius)
        starts, ends = zip(*(_edges(p) for p in [self.workspace, *self.obstacles]))
        self.edge_a = np.vstack(starts)
        self.edge_b = np.vstack(ends)

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    def signed_distance(self, points) -> np.ndarray:
        """Signed distance to the free-region boundary, before the robot radius."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        dist = -signed_polygon_distance(points, self.workspace)
        for obs in self.obstacles:
            dist = np.minimum(dist, signed_polygon_distance(points, obs))
        return dist

    def margins(self, points) -> np.ndarray:
        return self.signed_distance(points) - self.robot_radius

    def _in_open_region(self, point) -> bool:
        return bool(self.signed_distance(point)[0] > 0.0)

    def _segments_to_boundary(self, a: np.ndarray, b: np.ndarray) -> float:
        """Smallest exact distance from K segments to the boundary edges; zero
        if any segment meets an edge."""
        best = math.inf
        rows = max(1, _CHUNK // self.n_edges)
        ea, eb = self.edge_a[None, :, :], self.edge_b[None, :, :]
        for i in range(0, len(a), rows):
            d = segment_distance(a[i:i + rows, None, :], b[i:i + rows, None, :], ea, eb)
            best = min(best, float(d.min()))
        return best

    def polyline_clearance(self, points, padding: float = 0.0) -> float:
        """Exact clearance of a polyline widened by a disk of radius ``padding``.

        A single point is a degenerate polyline (a disk of radius
        ``padding``).  A polyline has no interior, so once it stays off the
        boundary its nearest approach decides everything.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not self._in_open_region(pts[:1]):
            return 0.0
        a = pts[:-1] if len(pts) > 1 else pts
        b = pts[1:] if len(pts) > 1 else pts
        dist = self._segments_to_boundary(a, b)
        return max(0.0, dist - padding - self.robot_radius)

    def disk_clearance(self, center, radius: float) -> float:
        return self.polyline_clearance(np.asarray(center, dtype=float), radius)

    def points_clearance(self, points, padding: float) -> float:
        """Exact clearance of the union of disks of radius ``padding`` about
        the points."""
        return max(0.0, float(self.margins(points).min()) - padding)

    def triangle_clearance(self, v0, v1, v2) -> float:
        """Exact clearance of a closed triangle, degenerate ones included.

        A triangle whose edges meet no boundary edge lies in one component
        of the plane minus the boundary; it is in free space when one vertex
        is, and no obstacle is swallowed whole.
        """
        verts = np.array([v0, v1, v2], dtype=float)
        nxt = np.roll(verts, -1, axis=0)
        dist = self._segments_to_boundary(verts, nxt)
        if dist == 0.0 or not self._in_open_region(verts[:1]):
            return 0.0
        area2 = _cross(*verts[0], *verts[1], *verts[2])
        if area2 != 0.0:
            ccw = verts if area2 > 0.0 else verts[::-1]
            for obs in self.obstacles:
                if winding_number(obs[:1], ccw)[0] != 0:
                    return 0.0
        return max(0.0, dist - self.robot_radius)

    def path_clearance(self, waypoints) -> float:
        """Smallest margin along a path polyline.

        Exact while the path stays off the boundary (it may still come
        closer than the robot radius, which gives a negative value).  A path
        that touches or crosses the boundary gets a value no greater than
        minus the robot radius; such a path is invalid and its depth is not
        needed.
        """
        pts = np.asarray(waypoints, dtype=float).reshape(-1, 2)
        dist = self._segments_to_boundary(pts[:-1], pts[1:])
        if dist > 0.0 and self._in_open_region(pts[:1]):
            return dist - self.robot_radius
        return min(-self.robot_radius, float(self.margins(pts).min()))


def polyline_length(points) -> float:
    pts = np.asarray(points, dtype=float)
    return float(np.hypot(*np.diff(pts, axis=0).T).sum())


def point_along(points, s: float) -> tuple[float, float]:
    """Point at arc length ``s`` along a polyline, clamped to its ends."""
    pts = np.asarray(points, dtype=float)
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        if s <= seg:
            f = max(s, 0.0) / seg
            return float(x0 + f * (x1 - x0)), float(y0 + f * (y1 - y0))
        s -= seg
    return float(pts[-1, 0]), float(pts[-1, 1])


def headway_reference_error(t, states, goal, eps: float, gain: float,
                            stop_radius: float) -> float:
    """Largest deviation of the headway point from the paper's closed form.

    The adaptive headway point ``h = p + eps |g - p| (cos th, sin th)``
    obeys ``dh/dt = -gain (h - g)``, so ``h(t) = g + exp(-gain t) (h0 - g)``.
    Returns the worst deviation over samples outside ``stop_radius``, as a
    share of ``|h0 - g|``.
    """
    t = np.asarray(t, dtype=float)
    st = np.asarray(states, dtype=float)
    gx, gy = goal
    x, y, th = st[:, 0], st[:, 1], st[:, 2]
    r = np.hypot(gx - x, gy - y)
    hx = x + eps * r * np.cos(th)
    hy = y + eps * r * np.sin(th)
    decay = np.exp(-gain * t)
    ex = hx - (gx + decay * (hx[0] - gx))
    ey = hy - (gy + decay * (hy[0] - gy))
    scale = math.hypot(hx[0] - gx, hy[0] - gy)
    live = r > stop_radius
    if scale == 0.0 or not live.any():
        return 0.0
    return float(np.hypot(ex, ey)[live].max()) / scale
