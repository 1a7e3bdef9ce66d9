"""Hand-computed scenes for the benchmark's geometry oracle.

Run with ``python -m pytest bench/test_oracle.py``.
"""

import math

import numpy as np
import pytest

from oracle import (
    Scene,
    headway_reference_error,
    point_along,
    polyline_length,
    segment_distance,
    signed_polygon_distance,
)

SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
BLOCK = [(4, 4), (6, 4), (6, 6), (4, 6)]


@pytest.fixture
def scene():
    return Scene(SQUARE, [BLOCK], robot_radius=0.5)


def seg(*xy):
    return np.array(xy, dtype=float)


def test_segment_distance_cases():
    a, b = seg(0, 0), seg(2, 0)
    assert segment_distance(a, b, seg(0, 1), seg(2, 1)) == 1.0       # parallel
    assert segment_distance(a, b, seg(1, -1), seg(1, 1)) == 0.0      # crossing
    assert segment_distance(a, b, seg(2, 0), seg(3, 5)) == 0.0       # shared end
    assert segment_distance(a, b, seg(3, 0), seg(5, 0)) == 1.0       # collinear gap
    assert segment_distance(a, b, seg(1, 0), seg(5, 0)) == 0.0       # overlap
    assert segment_distance(a, b, seg(5, 4), seg(5, 4)) == 5.0       # point


def test_signed_polygon_distance():
    d = signed_polygon_distance([(5, 5), (7, 5), (5, 4), (0, 0)], BLOCK)
    assert d.tolist() == [-1.0, 1.0, 0.0, math.hypot(4, 4)]


def test_margins(scene):
    m = scene.margins([(5, 8), (1, 2), (-1, 5), (5, 5), (7, 5)])
    assert m.tolist() == [1.5, 0.5, -1.5, -1.5, 0.5]


def test_disk(scene):
    # 2 m to the walls at x = y = 10, 2.83 m to the block corner
    assert scene.disk_clearance((8, 8), 1.0) == 0.5
    assert scene.disk_clearance((8, 8), 2.0) == 0.0
    assert scene.disk_clearance((5, 5), 0.1) == 0.0   # centre in the block


def test_triangle(scene):
    assert scene.triangle_clearance((7, 7), (9, 7), (8, 9)) == 0.5
    assert scene.triangle_clearance((7, 2), (9, 2), (8, 2)) == 0.5   # degenerate
    assert scene.triangle_clearance((5, 7), (5, 5.5), (7, 7)) == 0.0  # crosses block
    # swallows the whole block without touching it
    assert scene.triangle_clearance((1, 1), (9, 1), (5, 9)) == 0.0
    assert scene.triangle_clearance((1, 1), (5, 9), (9, 1)) == 0.0   # clockwise


def test_padded_polyline_against_points(scene):
    line = [(2, 7.5), (8, 7.5)]
    # the segment passes 1.5 m above the block; its end points are 2 m clear
    assert scene.polyline_clearance(line, 0.0) == 1.0
    assert scene.points_clearance(line, 0.0) == 1.5
    assert scene.polyline_clearance(line, 0.25) == 0.75
    assert scene.polyline_clearance([(7, 1), (7, 9)], 0.25) == 0.25
    assert scene.polyline_clearance([(7, 1)], 0.25) == 0.25


def test_path_clearance(scene):
    assert scene.path_clearance([(2, 8), (8, 8)]) == 1.5
    assert scene.path_clearance([(1, 5), (9, 5)]) <= -0.5


def test_sliver_path_is_rejected():
    """A 4 cm sliver across the diagonal of a 100 m square."""
    sliver = [(49.98, 49.6), (50.02, 49.6), (50.02, 50.4), (49.98, 50.4)]
    big = [(0, 0), (100, 0), (100, 100), (0, 100)]
    s = Scene(big, [sliver], robot_radius=0.01)
    assert s.path_clearance([(1, 1), (99, 99)]) <= -0.01
    assert s.path_clearance([(1, 1), (99, 1)]) == pytest.approx(0.99)


def test_path_helpers():
    pts = [(0, 0), (3, 0), (3, 4)]
    assert polyline_length(pts) == 7.0
    assert point_along(pts, 5.0) == (3.0, 2.0)
    assert point_along(pts, 99.0) == (3.0, 4.0)
    assert point_along(pts, -1.0) == (0.0, 0.0)


def test_headway_reference():
    # facing the goal, the robot runs straight in and r(t) = r0 exp(-k t)
    k, eps, r0 = 1.5, 0.5, 2.0
    t = np.linspace(0.0, 3.0, 31)
    r = r0 * np.exp(-k * t)
    states = np.column_stack([1.0 - r, np.zeros_like(r), np.zeros_like(r)])
    assert headway_reference_error(t, states, (1.0, 0.0), eps, k, 1e-6) < 1e-15
    states[10, 1] += 0.01
    assert headway_reference_error(t, states, (1.0, 0.0), eps, k, 1e-6) > 1e-3
