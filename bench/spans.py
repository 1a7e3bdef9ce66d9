"""In-memory spans around the calls into each simulator module.

The traced run patches names in the module namespaces where the simulator
looks them up, so no simulator file changes.  Each span records a name, a
start, an end and its parent span; a layer's self time is its span minus
the spans of its children.  Spans live in flat arrays while the run goes and
are written out once it ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter

# (module where the governor looks the name up, name, layer it belongs to)
GOVERNOR_CALLS = (
    ("environment", "ReferencePath.point_at", "environment.point_at"),
    ("simulation", "prediction_set", "prediction.prediction_set"),
    ("simulation", "safety_distance", "environment.safety_distance"),
    ("simulation", "prediction_goal_radius", "prediction.goal_radius"),
    ("simulation", "_adaptive_control", "unicycle.control"),
    ("simulation", "margin_points", "environment.margin_points"),
    ("simulation", "path_clearance", "environment.path_clearance"),
)
FRAME_CHECKS = ("check_goal_point_equivalence", "check_position_bracket",
                "check_distance_order", "check_nonholonomic_exact")


class Tracer:
    """Span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[list] = []  # [span index, children's time, name]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        frame = [idx, 0.0, name]
        self._stack.append(frame)
        self.start.append(_clock())
        return frame

    def _close(self, frame: list) -> None:
        t1 = _clock()
        idx, covered, name = frame
        self._stack.pop()
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` adds to counters."""
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def subtree_self_sums(self, root_name: str) -> list[tuple[float, float]]:
        """For each span named ``root_name``: (its duration, the sum of the
        self times of every span in its subtree)."""
        start, end, parent = map(np.asarray, (self.start, self.end, self.parent))
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        root_id = self.names.index(root_name)
        ids = np.asarray(self.name_id)
        # spans are opened in order, so a subtree is a contiguous index range
        roots = np.flatnonzero(ids == root_id)
        stops = np.searchsorted(start, end[roots], side="left")
        return [(float(dur[r]), float(self_t[r:stop].sum())) for r, stop in zip(roots, stops)]

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent))


def _count_pairs(counts, args, result):
    counts["geom.segment_distance.pairs"] += len(args[0]) * len(args[1])


def _count_inner_steps(counts, args, result):
    counts["ode.inner_steps"] += len(result.t) - 1


def _patch(patches, owner, attr, replacement):
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextmanager
def instrumented(tracer: Tracer, hs):
    """Patch the simulator's modules (``hs`` maps short module names to the
    imported modules) so that calls into each layer open spans."""
    patches: list = []
    try:
        for mod, dotted, name in GOVERNOR_CALLS:
            owner = hs[mod]
            attr = dotted
            if "." in dotted:
                cls, attr = dotted.split(".")
                owner = getattr(owner, cls)
            _patch(patches, owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        for mod in ("prediction", "properties"):
            _patch(patches, hs[mod], "simulate_to_goal",
                   tracer.wrap("ode.simulate_to_goal", hs[mod].simulate_to_goal,
                               _count_inner_steps))
        _patch(patches, hs["environment"], "_point_segment_distance_matrix",
               tracer.wrap("geom.segment_distance",
                           hs["environment"]._point_segment_distance_matrix, _count_pairs))
        props = hs["properties"]
        _patch(patches, props, "min_distance_to_segments",
               tracer.wrap("geom.segment_distance", props.min_distance_to_segments,
                           _count_pairs))
        _patch(patches, props, "sample_trajectory_cases",
               tracer.wrap("properties.sample_trajectory_cases",
                           props.sample_trajectory_cases))
        for attr in [a for a in vars(props) if a.startswith("check_")]:
            layer = ("properties.check_trajectory_containment"
                     if attr == "check_trajectory_containment"
                     else "properties.frame_checks" if attr in FRAME_CHECKS
                     else "properties.other_checks")
            _patch(patches, props, attr, tracer.wrap(layer, getattr(props, attr)))

        vec2 = hs["geom"].Vec2
        post_init = vec2.__post_init__
        counts = tracer.counts

        def counted_post_init(self):
            counts["geom.vec2_built"] += 1
            post_init(self)

        _patch(patches, vec2, "__post_init__", counted_post_init)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
