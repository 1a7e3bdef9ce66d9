"""2-D geometric primitives used throughout the simulator.

Scalar value types (Vec2, Segment, Triangle, Polygon) validate their inputs
at construction and are safe to share across threads.  The batch helpers
(``min_distance_to_segments``, ``triangle_contains``) operate on ``(N, 2)``
float arrays for queries along trajectories and against boundary vertices,
where per-call Python overhead would dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Vec2",
    "Segment",
    "Triangle",
    "Polygon",
    "rotate",
    "point_segment_distance",
    "triangle_contains",
    "min_distance_to_segments",
]


@dataclass(frozen=True)
class Vec2:
    """Planar point or direction in meters. Components must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, scale: float) -> "Vec2":
        return Vec2(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """z-component of the 3-D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def perp(self) -> "Vec2":
        """Counterclockwise quarter-turn of this vector."""
        return Vec2(-self.y, self.x)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def rotate(v: Vec2, angle: float) -> Vec2:
    """Rotate ``v`` counterclockwise by ``angle`` radians about the origin."""
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


@dataclass(frozen=True)
class Segment:
    """Closed line segment; ``a == b`` degenerates to a point."""

    a: Vec2
    b: Vec2

    def length(self) -> float:
        return (self.b - self.a).norm()


@dataclass(frozen=True)
class Triangle:
    """Three vertices; may be degenerate (collinear), callers must cope."""

    v0: Vec2
    v1: Vec2
    v2: Vec2

    @property
    def vertices(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.v0, self.v1, self.v2)

    def double_signed_area(self) -> float:
        return (self.v1 - self.v0).cross(self.v2 - self.v0)

    def vertex_array(self) -> np.ndarray:
        return np.array([[v.x, v.y] for v in self.vertices], dtype=float)


def point_segment_distance(z: Vec2, s: Segment) -> float:
    """Euclidean distance from ``z`` to the closed segment ``s``."""
    return _point_segment_distance(z.x, z.y, s.a.x, s.a.y, s.b.x, s.b.y)


def _point_segment_distance(zx: float, zy: float, ax: float, ay: float,
                            bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        return math.hypot(zx - ax, zy - ay)
    t = ((zx - ax) * dx + (zy - ay) * dy) / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(zx - (ax + t * dx), zy - (ay + t * dy))


def _orientation(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px: float, py: float, qx: float, qy: float, rx: float, ry: float) -> bool:
    # collinearity assumed; checks r within the bounding box of [p, q]
    return (min(px, qx) <= rx <= max(px, qx)) and (min(py, qy) <= ry <= max(py, qy))


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """True when the closed segments share at least one point."""
    ax, ay, bx, by = s1.a.x, s1.a.y, s1.b.x, s1.b.y
    cx, cy, dx, dy = s2.a.x, s2.a.y, s2.b.x, s2.b.y
    d1 = _orientation(cx, cy, dx, dy, ax, ay)
    d2 = _orientation(cx, cy, dx, dy, bx, by)
    d3 = _orientation(ax, ay, bx, by, cx, cy)
    d4 = _orientation(ax, ay, bx, by, dx, dy)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if d2 == 0 and _on_segment(cx, cy, dx, dy, bx, by):
        return True
    if d3 == 0 and _on_segment(ax, ay, bx, by, cx, cy):
        return True
    if d4 == 0 and _on_segment(ax, ay, bx, by, dx, dy):
        return True
    return False


class Polygon:
    """Simple polygon with counterclockwise vertices, implicitly closed.

    Construction validates vertex count, orientation, distinct consecutive
    vertices, and simplicity (no crossing edges); geometry queries can then
    assume a well-formed boundary.
    """

    __slots__ = ("vertices", "_xy", "_edge_a", "_edge_b")

    def __init__(self, vertices: Iterable[Vec2]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        xy = np.array([[v.x, v.y] for v in verts], dtype=float)
        edge_a = xy
        edge_b = np.roll(xy, -1, axis=0)
        if np.min(np.einsum("ij,ij->i", edge_b - edge_a, edge_b - edge_a)) == 0.0:
            raise ValueError("polygon has repeated consecutive vertices")
        area2 = float(np.sum(edge_a[:, 0] * edge_b[:, 1] - edge_a[:, 1] * edge_b[:, 0]))
        if area2 <= 0.0:
            raise ValueError("polygon vertices must be in counterclockwise order")
        if self._self_intersects(verts):
            raise ValueError("polygon must be simple (edges may not cross)")
        self.vertices = verts
        self._xy = xy
        self._edge_a = edge_a
        self._edge_b = edge_b

    @staticmethod
    def _self_intersects(verts: Sequence[Vec2]) -> bool:
        n = len(verts)
        edges = [Segment(verts[i], verts[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue  # adjacent edges share a vertex by construction
                if segments_intersect(edges[i], edges[j]):
                    return True
        return False

    @property
    def xy(self) -> np.ndarray:
        """Vertex coordinates, shape (V, 2). Treat as read-only."""
        return self._xy

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge start/end points as two (V, 2) arrays."""
        return self._edge_a, self._edge_b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"


# ---------------------------------------------------------------------------
# batch helpers


def _point_segment_distance_matrix(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from N points to M segments, shape (N, M)."""
    d = b - a
    len2 = np.einsum("ij,ij->i", d, d)
    safe = np.where(len2 > 0.0, len2, 1.0)
    diff = pts[:, None, :] - a[None, :, :]
    t = np.einsum("nmj,mj->nm", diff, d) / safe[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    t[:, len2 == 0.0] = 0.0
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    delta = pts[:, None, :] - closest
    return np.sqrt(np.einsum("nmj,nmj->nm", delta, delta))


# point-segment pairs per block of ``min_distance_to_segments``.  Its
# largest temporaries take 16 bytes a pair, so a block's stay at 64 KiB,
# under the C allocator's default 128 KiB mmap and trim thresholds: blocks
# reuse heap memory instead of faulting in fresh pages (the 200-case
# containment check made 1.86M minor faults at 262144 pairs, under 1000 here)
_BLOCK_PAIRS = 4096


def min_distance_to_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-point minimum distance to any of the segments, shape (N,)."""
    pts = np.asarray(pts, dtype=float)
    n, m = len(pts), len(a)
    if n == 0:
        return np.zeros(0)
    rows = max(1, _BLOCK_PAIRS // max(1, m))
    out = np.empty(n)
    for i in range(0, n, rows):
        out[i:i + rows] = _point_segment_distance_matrix(pts[i:i + rows], a, b).min(axis=1)
    return out


_NEXT_VERTEX = np.array([1, 2, 0], dtype=np.intp)


def triangle_contains(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Closed membership of N points in the triangle with vertex rows
    ``verts`` (3, 2), shape (N,).

    Exact for collinear (degenerate) triangles, whose hull is the longest
    pairwise segment; the vertex order may be either orientation.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    (x0, y0), (x1, y1), (x2, y2) = verts.tolist()
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if area2 == 0.0:
        a, b = verts[[0, 1, 0]], verts[[1, 2, 2]]
        d = b - a
        k = int(np.argmax(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
        return min_distance_to_segments(pts, a[k:k + 1], b[k:k + 1]) == 0.0
    edge = verts[_NEXT_VERTEX] - verts
    # (3, N) cross products of each edge with the vertex-to-point vectors
    cross = (edge[:, 0, None] * (pts[None, :, 1] - verts[:, 1, None])
             - edge[:, 1, None] * (pts[None, :, 0] - verts[:, 0, None]))
    if area2 < 0.0:
        cross = -cross
    return (cross >= 0.0).all(axis=0)
