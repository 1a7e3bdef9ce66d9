"""Seeded generator of the ``cluttered-scene`` workload's scene.

Two staggered rows of star-shaped obstacles with many vertices each, and a
serpentine path that weaves between them.  The seed jitters every obstacle's
centre, size and outline; the layout, the edge count and the path stay the
same, so the amount of work per seed stays close while the clearances the
governor sees change.  A scene is accepted only when the oracle's exact path
clearance is positive; the simulator's own (sampled) check plays no part.
"""

from __future__ import annotations

import math

import numpy as np

from oracle import Scene

PAIRS = 3            # obstacle pairs along the path
VERTICES = 96        # vertices per obstacle
PITCH = 2.6          # m between neighbouring obstacles
HEIGHT = 8.0         # m, workspace height
RADIUS = 1.0         # m, mean obstacle radius
WEAVE = 1.0          # m, path offset from the centre line at each obstacle
ROBOT_RADIUS = 0.3
MAX_TRIES = 100


def _obstacle(rng: np.random.Generator, cx: float, cy: float) -> list[list[float]]:
    """Star-shaped polygon, counterclockwise, with a smooth seeded outline."""
    phi = np.arange(VERTICES) * (2.0 * math.pi / VERTICES)
    r0 = RADIUS * rng.uniform(0.95, 1.05)
    radius = np.full(VERTICES, r0)
    for k in range(2, 6):
        radius += r0 * rng.uniform(0.0, 0.04) * np.cos(k * phi + rng.uniform(0.0, 2.0 * math.pi))
    cx += rng.uniform(-0.1, 0.1)
    cy += rng.uniform(-0.1, 0.1)
    return [[float(cx + r * math.cos(p)), float(cy + r * math.sin(p))]
            for r, p in zip(radius, phi)]


def _candidate(rng: np.random.Generator) -> dict:
    width = PITCH * (2 * PAIRS + 1)
    mid = 0.5 * HEIGHT
    obstacles = []
    path = [[0.6, mid]]
    for i in range(2 * PAIRS):
        x = PITCH * (i + 1)
        low = i % 2 == 0
        obstacles.append(_obstacle(rng, x, 2.0 if low else HEIGHT - 2.0))
        path.append([x, mid + (WEAVE if low else -WEAVE)])
    path.append([width - 0.6, mid])
    return {
        "name": "cluttered",
        "workspace": [[0.0, 0.0], [width, 0.0], [width, HEIGHT], [0.0, HEIGHT]],
        "obstacles": obstacles,
        "robot_radius": ROBOT_RADIUS,
        "path": path,
        "controller": {"headway_coeff": 0.5, "ref_gain": 1.0, "goal_tolerance": 1e-4},
        "governor": {"clearance_gain": 4.0, "endpoint_gain": 4.0},
        "integrator": {"step": 0.01, "max_time": 150.0, "goal_tolerance": 2e-4,
                       "prediction_step": 0.02},
    }


def cluttered_scene(seed: int) -> dict:
    """Scenario document (as ``scenario_from_dict`` takes it) for ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        data = _candidate(rng)
        scene = Scene(data["workspace"], data["obstacles"], data["robot_radius"])
        if scene.path_clearance(data["path"]) > 0.0:
            return data
    raise RuntimeError(f"seed {seed}: no scene with a clear path in {MAX_TRIES} tries")
