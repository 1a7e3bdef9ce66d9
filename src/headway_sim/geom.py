"""2-D geometric primitives used throughout the simulator.

The value types ``Vec2`` and ``Polygon`` validate their inputs at
construction; ``Triangle`` names the three vertices ``Tri.triangle`` returns.
The batch kernels operate on ``(N, 2)`` float arrays for queries along
trajectories and against boundary vertices, where per-call Python overhead
would dominate.  Each concept has one: ``_grid_sq_distance`` (point-segment
distance, batched by ``min_distance_to_segments``), ``segments_meet``
(closed segment intersection, which also validates polygons),
``triangle_contains`` and ``triangle_distance``.

Both the distance and the intersection test start from one displacement
grid ``w = p - a`` (2, N, M), every point minus every segment start with x
and y split along the first axis.  ``_grid_sq_distance`` and
``_orientations`` take the grid from their caller, so ``environment``'s
set query and margins build it once per query and derive everything from
it (its path clearance calls the public kernels); where roles swap, the
grid is negated, which is exact.  The kernel stops at squared distances:
sqrt is correctly rounded and monotone, so the root of a minimum is the
minimum of the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


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


@dataclass(frozen=True)
class Triangle:
    """Three vertices; may be degenerate (collinear), callers must cope."""

    v0: Vec2
    v1: Vec2
    v2: Vec2

    @property
    def vertices(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.v0, self.v1, self.v2)


class Polygon:
    """Simple polygon with counterclockwise vertices, implicitly closed.

    Construction validates vertex count, orientation, distinct consecutive
    vertices, and simplicity (no crossing edges); geometry queries can then
    assume a well-formed boundary.
    """

    __slots__ = ("vertices", "_xy")

    def __init__(self, vertices: Iterable[Vec2]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        xy = np.array([[v.x, v.y] for v in verts], dtype=float)
        too_large = _overflow_message("polygon", xy)
        if too_large is not None:
            raise ValueError(too_large)
        edge_a = xy
        edge_b = np.roll(xy, -1, axis=0)
        if np.min(np.einsum("ij,ij->i", edge_b - edge_a, edge_b - edge_a)) == 0.0:
            raise ValueError(_zero_gap_message("polygon", "vertices", edge_b - edge_a))
        area2 = float(np.sum(edge_a[:, 0] * edge_b[:, 1] - edge_a[:, 1] * edge_b[:, 0]))
        if area2 <= 0.0:
            raise ValueError("polygon vertices must be in counterclockwise order")
        if self._self_intersects(xy):
            raise ValueError("polygon must be simple (edges may not cross)")
        self.vertices = verts
        self._xy = xy

    @staticmethod
    def _self_intersects(xy: np.ndarray) -> bool:
        n = len(xy)
        ring = np.vstack([xy, xy[:1]])
        nxt = np.roll(np.arange(n), -1)
        rows = max(1, _BLOCK_PAIRS // n)
        for i in range(0, n, rows):
            j = min(i + rows, n)
            meet = segments_meet(ring[i:j + 1], slice(None, -1), slice(1, None), xy, nxt)
            # an edge meets itself and shares a vertex with both neighbours
            # (row edge - column edge) mod n in {n - 1, 0, 1}
            k = np.arange(i, j)[:, None] - np.arange(n)
            meet[(k + 1) % n <= 2] = False
            if bool(meet.any()):
                return True
        return False

    @property
    def xy(self) -> np.ndarray:
        """Vertex coordinates, shape (V, 2). Treat as read-only."""
        return self._xy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"


_LENGTH_FLOOR = math.sqrt(math.ulp(0.0))  # the shortest length with a non-zero square


def _zero_gap_message(owner: str, points: str, d: np.ndarray) -> str:
    """Why ``owner`` refuses consecutive ``points`` ``d`` (K, 2) apart, a length squaring to 0."""
    if not d.any(axis=1).all():
        return f"{owner} has repeated consecutive {points}"
    return (f"{owner} has consecutive {points} whose distance squares to 0; "
            f"lengths must be at least about {_LENGTH_FLOOR:.2g} m")


def _origin_box_diagonal(xy: np.ndarray) -> float:
    """The diagonal of the bounding box of the points ``xy`` (K, 2) and the
    origin, which bounds every coordinate and every difference of two."""
    (x0, y0), (x1, y1) = (np.minimum(xy.min(axis=0), 0.0).tolist(),
                          np.maximum(xy.max(axis=0), 0.0).tolist())
    return math.hypot(x1 - x0, y1 - y0)


def _overflow_message(owner: str, xy: np.ndarray) -> str | None:
    """Why ``owner``'s points ``xy`` (K, 2) are too large, or None: their
    ``_origin_box_diagonal``, which bounds every product of coordinates,
    squares to infinity."""
    diag = _origin_box_diagonal(xy)
    if diag * diag < math.inf:
        return None
    return (f"{owner} coordinates overflow: the bounding-box diagonal (origin "
            f"included) {diag:.3g} m squares to infinity")


# ---------------------------------------------------------------------------
# batch helpers


def _point_segment_distance_matrix(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from N points to M segments, shape (N, M)."""
    p, a = pts.T[:, :, None], a.T[:, None, :]
    d = b.T[:, None, :] - a
    sq = _grid_sq_distance(p - a, p, a, d, _safe_len2(d))
    return np.sqrt(sq, out=sq)


def _safe_len2(d: np.ndarray) -> np.ndarray:
    """Squared lengths of the directions ``d`` (2, ...), infinite where
    zero: a zero-length segment then projects every point onto its start."""
    sq = d * d
    len2 = sq[0] + sq[1]
    return np.where(len2 > 0.0, len2, np.inf)


def _grid_sq_distance(w: np.ndarray, p: np.ndarray, a: np.ndarray, d: np.ndarray,
                      safe: np.ndarray) -> np.ndarray:
    """The one point-segment distance formula, squared, on a displacement grid.

    Coordinates are split along the first axis: ``w = p - a`` (2, N, M)
    holds every point minus every segment start, and the points ``p``,
    segment starts ``a`` and directions ``d`` broadcast against it, as does
    ``safe`` from ``_safe_len2`` against one coordinate.  A caller that
    already holds the grid (``environment``'s set query and margins) pays
    for no second copy.  Per element, in order: ``t = (wx dx + wy dy) /
    safe`` clamped to [0, 1], ``e = p - (a + t d)``, ``ex ex + ey ey``; the
    distance is its square root.
    """
    x = w * d
    t = x[0] + x[1]
    t /= safe
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    e = np.multiply(t, d, out=x)
    e += a
    np.subtract(p, e, out=e)
    e *= e
    return np.add(e[0], e[1], out=t)


def _orientations(w: np.ndarray, d: np.ndarray, sd: np.ndarray,
                  start: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orientation grids from the displacement grid ``w`` (2, P, M) of P
    points against M edges with directions ``d`` (2, 1, M): every point
    against every edge, ``dx wy - dy wx`` (P, M), and every edge start
    against every segment (directions ``sd`` (2, S, 1)) starting at
    ``start``, ``sy wx - sx wy`` (S, M), the usual one negated, exactly."""
    o = w * d[::-1]
    r = w[:, start] * sd[::-1]
    return o[1] - o[0], r[0] - r[1]


# point-segment pairs per block of ``min_distance_to_segments`` and
# ``environment.margin_points``.  The grid and the kernel's x/y temporary
# take 16 bytes a pair and its one-coordinate temporary 8, so a block's
# arrays stay at 64 KiB or less, under the C allocator's default 128 KiB
# mmap and trim thresholds: blocks reuse heap memory instead of faulting in
# fresh pages (the 200-case containment check made 1.86M minor faults at
# 262144 pairs, under 1000 here)
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


def segments_meet(pts: np.ndarray, start: slice | np.ndarray, end: slice | np.ndarray,
                  edge_a: np.ndarray, next_edge: np.ndarray) -> np.ndarray:
    """Closed intersection of the segments ``pts[start] -> pts[end]`` with
    the edges ``edge_a -> edge_a[next_edge]``, shape (S, M).

    True where the two share a point, touching and collinear overlap
    included.  The orientations are the only arithmetic, all taken from the
    one grid of point-minus-edge-start differences (``_orientations``):
    every point against every edge, and every edge start against every
    segment, whose rows and columns give all four.  So segments that share
    endpoints (a polyline, a closed ring) share them, and so do edges that
    share vertices.  The two cross where each one's endpoints lie on
    opposite sides of the other's line (``_crossings``), and a point whose
    orientation against the other segment is exactly zero meets it when it
    lies in that segment's bounding box.
    """
    edge_b = edge_a[next_edge]
    a = edge_a.T[:, None, :]
    d = edge_b.T[:, None, :] - a
    sd = (pts[end] - pts[start]).T[:, :, None]
    o_pts, o_edge = _orientations(pts.T[:, :, None] - a, d, sd, start)
    meet = _crossings(start, end, next_edge, o_pts, o_edge)
    if o_pts.all() and o_edge.all():
        return meet
    ex0, ey0 = edge_a[:, 0], edge_a[:, 1]
    ex1, ey1 = edge_b[:, 0], edge_b[:, 1]
    px, py = pts[:, 0, None], pts[:, 1, None]
    s0, s1 = pts[start], pts[end]
    ax, ay, bx, by = s0[:, 0, None], s0[:, 1, None], s1[:, 0, None], s1[:, 1, None]
    on_edge = ((o_pts == 0) & (np.minimum(ex0, ex1) <= px) & (px <= np.maximum(ex0, ex1))
               & (np.minimum(ey0, ey1) <= py) & (py <= np.maximum(ey0, ey1)))
    on_seg = ((o_edge == 0) & (np.minimum(ax, bx) <= ex0) & (ex0 <= np.maximum(ax, bx))
              & (np.minimum(ay, by) <= ey0) & (ey0 <= np.maximum(ay, by)))
    return meet | on_edge[start] | on_edge[end] | on_seg | on_seg[:, next_edge]


def _crossings(start: slice | np.ndarray, end: slice | np.ndarray, next_edge: np.ndarray,
               o_pts: np.ndarray, o_edge: np.ndarray) -> np.ndarray:
    """The strict-sign part of ``segments_meet`` from its orientation grids
    ``o_pts`` (P, M) and ``o_edge`` (S, M), a zero orientation counting as
    negative: in exact arithmetic the zeros add crossings only where the two
    touch and miss touches, which ``segments_meet``'s box tests find."""
    pos_pts, pos_edge = o_pts > 0, o_edge > 0
    # take is cheaper than fancy indexing on these small grids
    ends = pos_pts[end] if isinstance(end, slice) else pos_pts.take(end, axis=0)
    return (pos_pts[start] != ends) & (pos_edge != pos_edge.take(next_edge, axis=1))


_NEXT_VERTEX = np.array([1, 2, 0], dtype=np.intp)


def triangle_contains(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Closed membership of N points in the triangle with vertex rows
    ``verts`` (3, 2), shape (N,).

    Exact for collinear (degenerate) triangles, whose hull is the union of
    their edges: a point belongs when it meets an edge as a zero-length
    segment, so every vertex belongs even where rounding puts the middle
    one off the line of the outer two.  The vertex order may be either
    orientation.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    (x0, y0), (x1, y1), (x2, y2) = verts.tolist()
    area2 = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if area2 == 0.0:
        return segments_meet(pts, slice(None), slice(None), verts, _NEXT_VERTEX).any(axis=1)
    edge = verts[_NEXT_VERTEX] - verts
    # (3, N) cross products of each edge with the vertex-to-point vectors
    cross = (edge[:, 0, None] * (pts[None, :, 1] - verts[:, 1, None])
             - edge[:, 1, None] * (pts[None, :, 0] - verts[:, 0, None]))
    if area2 < 0.0:
        cross = -cross
    return (cross >= 0.0).all(axis=0)


def triangle_distance(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from N points to the closed triangle with vertex rows
    ``verts`` (3, 2), shape (N,): zero inside, the edge distance outside."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    d = min_distance_to_segments(pts, verts, verts[_NEXT_VERTEX])
    d[triangle_contains(verts, pts)] = 0.0
    return d
