"""Deterministic SVG rendering of scenes, trajectories, and prediction sets.

SVG output was chosen over raster formats so golden files diff cleanly and
no plotting dependency is needed.  Identical inputs produce byte-identical
documents: floats are formatted with a fixed precision and element order is
fixed by the layer order (environment, path, predictions, trajectories,
speed bars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .environment import Environment, ReferencePath
from .prediction import PredictionSet

_TRAJECTORY_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class RenderError(Exception):
    """Rendering input is unusable (empty trajectory, malformed rows)."""


# world margin around the workspace (m), line width (px), and speed bars:
# one every _SPEED_BAR_STRIDE samples, _SPEED_BAR_SCALE meters per m/s
_WORLD_PADDING = 0.5
_STROKE_WIDTH = 2.0
_SPEED_BAR_STRIDE = 40
_SPEED_BAR_SCALE = 0.3


@dataclass(frozen=True)
class RenderSpec:
    """Canvas width in pixels; the height follows the workspace aspect."""

    width: int = 720

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"canvas width must be positive, got {self.width}")


def _fmt(x: float) -> str:
    return format(x, ".3f")


class _Canvas:
    def __init__(self, env: Environment, spec: RenderSpec):
        xy = env.workspace.xy
        pad = _WORLD_PADDING
        self.min_x = float(xy[:, 0].min()) - pad
        self.max_y = float(xy[:, 1].max()) + pad
        world_w = float(xy[:, 0].max()) + pad - self.min_x
        world_h = self.max_y - (float(xy[:, 1].min()) - pad)
        self.scale = spec.width / world_w
        self.width = spec.width
        self.height = max(1, round(world_h * self.scale))

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.min_x) * self.scale, (self.max_y - y) * self.scale)

    def polyline_points(self, xs, ys) -> str:
        parts = []
        for x, y in zip(xs, ys):
            px, py = self.to_px(float(x), float(y))
            parts.append(f"{_fmt(px)},{_fmt(py)}")
        return " ".join(parts)


_STYLE = """\
.workspace { fill: #fdfdfd; stroke: #222; }
.obstacle { fill: #8a8a8a; stroke: #444; }
.refpath { fill: none; stroke: #c03030; stroke-dasharray: 6 4; }
.prediction { fill: #f4c542; fill-opacity: 0.45; stroke: #b8860b; }
.trajectory { fill: none; }
.speedbar { stroke-opacity: 0.55; }
"""


def render_svg(env: Environment, path: ReferencePath | None = None,
               trajectories: Sequence[Mapping[str, np.ndarray]] = (),
               predictions: Sequence[PredictionSet] = (),
               spec: RenderSpec = RenderSpec()) -> str:
    """Compose the scene into an SVG document string.

    ``trajectories`` are column mappings as produced by
    ``read_trajectory_csv``; each must contain ``x``/``y`` with at least one
    row.  Speed bars are drawn for each trajectory that also has ``v`` and
    ``theta``.  Leave out a layer by passing no path, predictions or
    trajectories.
    """
    for i, traj in enumerate(trajectories):
        if len(traj.get("x", ())) == 0:
            raise RenderError(f"trajectory {i} is empty; nothing to draw")

    canvas = _Canvas(env, spec)
    sw = _STROKE_WIDTH
    out: list[str] = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width}" '
               f'height="{canvas.height}" viewBox="0 0 {canvas.width} {canvas.height}">')
    out.append(f"<style>{_STYLE}</style>")

    out.append(f'<polygon class="workspace" stroke-width="{_fmt(sw)}" points="'
               + canvas.polyline_points(env.workspace.xy[:, 0], env.workspace.xy[:, 1])
               + '"/>')
    for obs in env.obstacles:
        out.append(f'<polygon class="obstacle" stroke-width="{_fmt(0.5 * sw)}" points="'
                   + canvas.polyline_points(obs.xy[:, 0], obs.xy[:, 1]) + '"/>')

    if path is not None:
        xy = np.array([[p.x, p.y] for p in path.waypoints])
        out.append(f'<polyline class="refpath" stroke-width="{_fmt(sw)}" points="'
                   + canvas.polyline_points(xy[:, 0], xy[:, 1]) + '"/>')

    for pred in predictions:
        out.append(_prediction_element(pred, canvas, sw))

    for i, traj in enumerate(trajectories):
        color = _TRAJECTORY_COLORS[i % len(_TRAJECTORY_COLORS)]
        if "v" in traj and "theta" in traj:
            out.extend(_speed_bars(traj, canvas, color, i))
        out.append(f'<polyline class="trajectory traj{i}" stroke="{color}" '
                   f'stroke-width="{_fmt(sw)}" points="'
                   + canvas.polyline_points(traj["x"], traj["y"]) + '"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _prediction_element(pred: PredictionSet, canvas: _Canvas, sw: float) -> str:
    """A filled set is a polygon and a single point a circle.  Other sets
    are drawn as one round-capped band of their padding along the points:
    consecutive forward-sim samples lie at most two paddings apart, so the
    band adds only the slivers between overlapping disks."""
    pts = pred.points
    if pred.filled:
        return (f'<polygon class="prediction" stroke-width="{_fmt(0.5 * sw)}" points="'
                + canvas.polyline_points(pts[:, 0], pts[:, 1]) + '"/>')
    if len(pts) == 1:
        cx, cy = canvas.to_px(float(pts[0, 0]), float(pts[0, 1]))
        r = max(pred.padding * canvas.scale, 0.5 * sw)
        return (f'<circle class="prediction" stroke-width="{_fmt(0.5 * sw)}" '
                f'cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}"/>')
    width = max(2.0 * pred.padding * canvas.scale, 0.5 * sw)
    return (f'<polyline class="prediction" fill="none" stroke-linecap="round" '
            f'stroke-linejoin="round" stroke-width="{_fmt(width)}" points="'
            + canvas.polyline_points(pts[:, 0], pts[:, 1]) + '"/>')


def speed_profile_svg(series: Sequence[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """Overlay of speed-versus-time curves, one per labeled run.

    ``series`` holds ``(label, t, v)`` triples; speeds are plotted as
    absolute values.  Output is deterministic for identical inputs.
    """
    if not series:
        raise RenderError("no speed series to plot")
    for label, t, v in series:
        if len(t) == 0:
            raise RenderError(f"speed series {label!r} is empty")
    t_max = max(float(t[-1]) for _, t, _ in series)
    v_max = max(float(np.abs(v).max()) for _, _, v in series)
    t_max = t_max if t_max > 0 else 1.0
    v_max = v_max if v_max > 0 else 1.0
    width, height = 720, 320
    left, right, top, bottom = 50.0, 10.0, 10.0, 30.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    def to_px(tt, vv):
        return (left + tt / t_max * plot_w, top + (1.0 - vv / v_max) * plot_h)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           "<style>.axis { stroke: #222; } text { font: 12px sans-serif; }</style>",
           f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(top)}" '
           f'x2="{_fmt(left)}" y2="{_fmt(top + plot_h)}"/>',
           f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(top + plot_h)}" '
           f'x2="{_fmt(left + plot_w)}" y2="{_fmt(top + plot_h)}"/>',
           f'<text x="{_fmt(left)}" y="{_fmt(height - 8.0)}">0 s</text>',
           f'<text x="{_fmt(left + plot_w - 40.0)}" y="{_fmt(height - 8.0)}">'
           f'{t_max:.1f} s</text>',
           f'<text x="4" y="{_fmt(top + 12.0)}">{v_max:.2f} m/s</text>']
    for i, (label, t, v) in enumerate(series):
        color = _TRAJECTORY_COLORS[i % len(_TRAJECTORY_COLORS)]
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                       for px, py in (to_px(float(tt), abs(float(vv)))
                                      for tt, vv in zip(t, v)))
        out.append(f'<polyline class="speed-profile profile{i}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        out.append(f'<text x="{_fmt(left + 8.0)}" y="{_fmt(top + 16.0 + 16.0 * i)}" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _speed_bars(traj: Mapping[str, np.ndarray], canvas: _Canvas, color: str,
                index: int) -> list[str]:
    xs, ys = traj["x"], traj["y"]
    ths, vs = traj["theta"], traj["v"]
    bars = []
    for k in range(0, len(xs), _SPEED_BAR_STRIDE):
        bar = abs(float(vs[k])) * _SPEED_BAR_SCALE
        if bar == 0.0:
            continue
        nx = -np.sin(ths[k]) * bar
        ny = np.cos(ths[k]) * bar
        x0, y0 = canvas.to_px(float(xs[k]), float(ys[k]))
        x1, y1 = canvas.to_px(float(xs[k] + nx), float(ys[k] + ny))
        bars.append(f'<line class="speedbar speed{index}" stroke="{color}" '
                    f'stroke-width="{_fmt(_STROKE_WIDTH)}" '
                    f'x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}"/>')
    return bars
