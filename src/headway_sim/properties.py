"""Randomized property suites for the controller and prediction guarantees.

Every check is deterministic given a seed and returns a ``CheckResult``
instead of raising, so the CLI can print one line per property and the
test suite can assert on the same records.  Sample counts default to the
sizes used by the acceptance gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .environment import Environment, ReferencePath
from .geom import (
    Polygon,
    Vec2,
    _grid_sq_distance,
    _safe_len2,
    min_distance_to_segments,
    triangle_distance,
)
from .ode import SimConfig, Trajectory, rollout, simulate_many, simulate_to_goal
from .prediction import (
    Disk,
    PredictionSet,
    Tri,
    _sampled_set,
    _triangle_rows,
    circular_prediction,
    forward_sim_prediction,
    prediction_distance,
    prediction_goal_radius,
    triangular_bound,
    triangular_prediction,
)
from .simulation import governor_field
from .unicycle import (
    ControllerParams,
    UnicycleState,
    _fixed_control,
    _turning_frame,
    headway_point,
    wrap_angle,
)

# empirical bound on the prediction-distance Lipschitz constant over the
# sampled state box (r <= 4, eps <= 0.8); measured values stay below ~9
LIPSCHITZ_BOUND = 30.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass
class TrajectoryCase:
    """One integrated fixed-goal run plus the sampling that produced it."""

    state: UnicycleState
    goal: Vec2
    params: ControllerParams
    step: float
    traj: Trajectory


def _sample_params(rng: np.random.Generator, eps_range=(0.1, 0.9)) -> ControllerParams:
    eps = float(rng.uniform(*eps_range))
    return ControllerParams(headway_coeff=eps, ref_gain=1.0, goal_tolerance=1e-4)


def _frame_samples(seed: int, n: int):
    """The ``n`` seeded ``(params, state, goal)`` draws of the headway frame suites."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        params = _sample_params(rng)
        state = UnicycleState(Vec2(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                              float(rng.uniform(-math.pi, math.pi)))
        yield params, state, Vec2(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))


def _sample_goal_state(rng: np.random.Generator, r_range=(0.5, 3.0),
                       aligned: bool | None = None,
                       eps: float | None = None) -> tuple[UnicycleState, Vec2]:
    goal = Vec2(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
    r = float(rng.uniform(*r_range))
    phi = float(rng.uniform(-math.pi, math.pi))
    pos = goal + r * Vec2(math.cos(phi), math.sin(phi))
    bearing = math.atan2(goal.y - pos.y, goal.x - pos.x)
    if aligned is None:
        theta = float(rng.uniform(-math.pi, math.pi))
    elif aligned:
        # heading error strictly inside the forward-motion cone
        cone = math.acos(min(1.0, (eps or 0.0) + 0.02))
        theta = bearing + float(rng.uniform(-cone, cone))
    else:
        theta = bearing + math.pi + float(rng.uniform(-0.5, 0.5))
    return UnicycleState(pos, wrap_angle(theta)), goal


def sample_trajectory_cases(seed: int, n: int) -> list[TrajectoryCase]:
    """Integrate ``n`` seeded closed-loop runs to the goal ball.

    Headway coefficients are drawn from [0.3, 0.8] and the first half of
    the runs start goal-aligned; every run integrates with a 0.01 s step.
    """
    rng = np.random.default_rng(seed)
    step = 0.01
    states, goals, params = [], [], []
    for i in range(n):
        params.append(_sample_params(rng, (0.3, 0.8)))
        state, goal = _sample_goal_state(rng, aligned=i < n // 2, eps=params[-1].headway_coeff)
        states.append(state)
        goals.append(goal)
    trajs = dict(simulate_many(states, goals, params, step))
    return [TrajectoryCase(*run, step, trajs[i])
            for i, run in enumerate(zip(states, goals, params))]


def _series(case: TrajectoryCase) -> dict[str, np.ndarray]:
    """Vectorized per-sample quantities of a trajectory case."""
    st = case.traj.states
    x, y, th = st[:, 0], st[:, 1], st[:, 2]
    gx, gy = case.goal.x, case.goal.y
    dx, dy = gx - x, gy - y
    r = np.hypot(dx, dy)
    safe = np.where(r > 0.0, r, 1.0)
    c, s = np.cos(th), np.sin(th)
    align = (c * dx + s * dy) / safe
    eps = case.params.headway_coeff
    gain = case.params.ref_gain
    v = gain * r * (align - eps) / (1.0 - eps * align)
    hx = x + eps * r * c
    hy = y + eps * r * s
    ghx, ghy = gx - hx, gy - hy
    gh = np.hypot(ghx, ghy)
    ghs = np.where(gh > 0.0, gh, 1.0)
    proj_dist = np.abs((ghx * dx + ghy * dy) / ghs)
    disk_radius = np.where(align >= eps, r, proj_dist / math.sqrt(1.0 - eps * eps))
    return {"x": x, "y": y, "theta": th, "r": r, "align": align, "v": v,
            "hx": hx, "hy": hy, "disk_radius": disk_radius}


# ---------------------------------------------------------------------------
# headway frame properties


def _bracket(state: UnicycleState, goal: Vec2, params: ControllerParams) -> tuple:
    """``(r, qx, qy, ex, ey)``: the goal distance and the projected and
    extended positions of ``_turning_frame``, all the goal when ``r = 0``."""
    p, th, gx, gy = state.position, state.orientation, goal.x, goal.y
    r = math.hypot(gx - p.x, gy - p.y)
    if r == 0.0:
        return r, gx, gy, gx, gy
    _, _, _, _, nx, ny, qx, qy, k = _turning_frame(p.x, p.y, math.cos(th), math.sin(th),
                                                   gx, gy, params.headway_coeff, r)
    return r, qx, qy, qx + nx * k, qy + ny * k


def check_goal_point_equivalence(seed: int = 0, n: int = 10_000) -> CheckResult:
    """Headway point at goal exactly when the robot is at the goal."""
    worst = math.inf
    for params, state, goal in _frame_samples(seed, n):
        r = (state.position - goal).norm()
        h = headway_point(state, goal, params)
        hd = (h - goal).norm()
        if r == 0.0:
            if hd != 0.0:
                return CheckResult("goal-point-equivalence", False,
                                   f"h != g at the goal (|h-g|={hd})")
            continue
        # |h-g| >= (1-eps) |p-g| keeps the headway point away from the goal
        floor = (1.0 - params.headway_coeff) * r
        worst = min(worst, hd - floor * (1.0 - 1e-12))
        if hd <= 0.0 or hd < floor * (1.0 - 1e-12):
            return CheckResult("goal-point-equivalence", False,
                               f"|h-g|={hd} below floor {floor}")
    at_goal = UnicycleState(Vec2(1.0, -2.0), 0.7)
    h = headway_point(at_goal, Vec2(1.0, -2.0), ControllerParams())
    if h != Vec2(1.0, -2.0):
        return CheckResult("goal-point-equivalence", False, "h(goal) != goal")
    return CheckResult("goal-point-equivalence", True,
                       f"{n} samples, min slack {worst:.3e}")


def check_position_bracket(seed: int = 0, n: int = 10_000,
                           tol: float = 1e-9) -> CheckResult:
    """Robot position lies on the projected-extended segment."""
    # per sample: the position, the projected one and extended - projected
    rows = np.empty((n, 6))
    for i, (params, state, goal) in enumerate(_frame_samples(seed, n)):
        _, qx, qy, ex, ey = _bracket(state, goal, params)
        rows[i] = state.position.x, state.position.y, qx, qy, ex - qx, ey - qy
    p, a, d = rows.T.reshape(3, 2, n)
    worst = math.sqrt(_grid_sq_distance(p - a, p, a, d, _safe_len2(d)).max(initial=0.0))
    return CheckResult("position-bracket", worst <= tol,
                       f"{n} samples, max off-segment distance {worst:.3e}")


def check_distance_order(seed: int = 0, n: int = 10_000,
                         rel_tol: float = 1e-12) -> CheckResult:
    """Projected/actual/extended goal distances are ordered, with the exact
    extended-to-projected ratio."""
    worst_order = 0.0
    worst_ratio = 0.0
    for params, state, goal in _frame_samples(seed, n):
        r, qx, qy, ex, ey = _bracket(state, goal, params)
        if r == 0.0:
            continue
        dp = math.hypot(qx - goal.x, qy - goal.y)
        de = math.hypot(ex - goal.x, ey - goal.y)
        scale = max(1.0, de)
        worst_order = max(worst_order, (dp - r) / scale, (r - de) / scale)
        eps = params.headway_coeff
        worst_ratio = max(worst_ratio,
                          abs(de * math.sqrt(1.0 - eps * eps) - dp) / scale)
    ok = worst_order <= rel_tol and worst_ratio <= rel_tol
    return CheckResult("distance-order", ok,
                       f"{n} samples, order slack {worst_order:.3e}, "
                       f"ratio error {worst_ratio:.3e}")


# ---------------------------------------------------------------------------
# closed-loop trajectory properties


def check_alignment_monotone(cases: list[TrajectoryCase],
                             tol: float = 1e-6) -> CheckResult:
    """Goal alignment never decreases along the motion (away from the goal)."""
    worst = 0.0
    for case in cases:
        ser = _series(case)
        align, r = ser["align"], ser["r"]
        active = (r[:-1] > case.params.goal_tolerance) & (r[1:] > case.params.goal_tolerance)
        drops = (align[:-1] - align[1:])[active]
        if len(drops):
            worst = max(worst, float(drops.max()))
    return CheckResult("alignment-monotone", worst <= tol,
                       f"{len(cases)} trajectories, max alignment drop {worst:.3e}")


def check_aligned_forward_motion(cases: list[TrajectoryCase],
                                 tol: float = 1e-9) -> CheckResult:
    """From goal-aligned starts the speed stays positive and the goal
    distance strictly decreases until the stopping ball."""
    checked = 0
    for case in cases:
        ser = _series(case)
        align, r, v = ser["align"], ser["r"], ser["v"]
        if align[0] <= case.params.headway_coeff + 0.01:
            continue
        checked += 1
        active = r > case.params.goal_tolerance
        if np.any(v[active] <= 0.0):
            return CheckResult("aligned-forward-motion", False,
                               f"non-positive speed (min {v[active].min():.3e})")
        both = active[:-1] & active[1:]
        increase = (r[1:] - r[:-1])[both]
        if len(increase) and float(increase.max()) >= tol:
            return CheckResult("aligned-forward-motion", False,
                               f"goal distance grew by {float(increase.max()):.3e}")
    return CheckResult("aligned-forward-motion", checked > 0,
                       f"{checked} aligned trajectories, speeds positive, "
                       "distances strictly decreasing")


def check_global_convergence(seed: int = 0, n: int = 100,
                             target: float = 1e-3) -> CheckResult:
    """Every start reaches the goal ball within the contraction time budget."""
    rng = np.random.default_rng(seed)
    states, goals, params, budgets = [], [], [], []
    for _ in range(n):
        params.append(_sample_params(rng, eps_range=(0.2, 0.8)))
        state, goal = _sample_goal_state(rng, r_range=(0.5, 4.0))
        states.append(state)
        goals.append(goal)
        h0 = (headway_point(state, goal, params[-1]) - goal).norm()
        # the headway point contracts exponentially, and |p-g| <= |h-g|/(1-eps)
        budgets.append(math.log(h0 / ((1.0 - params[-1].headway_coeff) * target))
                       / params[-1].ref_gain)
    ends = {i: (traj.converged, traj.t[-1]) for i, traj in
            simulate_many(states, goals, params, step=0.01, goal_tol=target,
                          max_times=[budget + 0.5 for budget in budgets])}
    worst_slack = math.inf
    for i, budget in enumerate(budgets):
        converged, end = ends[i]
        if not converged:
            return CheckResult("global-convergence", False,
                               f"run missed the {target} ball within {budget:.2f}s")
        worst_slack = min(worst_slack, budget - end)
        if end > budget + 0.011:
            return CheckResult("global-convergence", False,
                               f"reached at {end:.3f}s past budget {budget:.3f}s")
    return CheckResult("global-convergence", True,
                       f"{n} starts converged, min budget slack {worst_slack:.3f}s")


def check_headway_reference_consistency(seed: int = 0, n: int = 5,
                                        tol: float = 1e-5) -> CheckResult:
    """Numerical headway-point velocity matches the first-order feedback law."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        params = _sample_params(rng, eps_range=(0.3, 0.7))
        state, goal = _sample_goal_state(rng, r_range=(1.0, 3.0))
        traj = simulate_to_goal(state, goal, params, step=0.002)
        ser = _series(TrajectoryCase(state, goal, params, 0.002, traj))
        hx, hy, r = ser["hx"], ser["hy"], ser["r"]
        dt = 0.002
        interior = slice(1, -1)
        active = r[interior] > 10.0 * params.goal_tolerance
        dhx = (hx[2:] - hx[:-2]) / (2.0 * dt)
        dhy = (hy[2:] - hy[:-2]) / (2.0 * dt)
        ex = dhx + params.ref_gain * (hx[interior] - goal.x)
        ey = dhy + params.ref_gain * (hy[interior] - goal.y)
        err = np.hypot(ex, ey)[active]
        if len(err):
            worst = max(worst, float(err.max()))
    return CheckResult("headway-reference-consistency", worst <= tol,
                       f"max |dh/dt + gain (h - g)| = {worst:.3e}")


def check_fixed_headway_offset(seed: int = 0, n: int = 20,
                               tol: float = 1e-3) -> CheckResult:
    """The fixed-offset baseline parks one headway distance short of the goal."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        state, goal = _sample_goal_state(rng, r_range=(0.8, 3.0))
        gain = 1.0
        d = float(rng.uniform(0.2, 0.8))
        # no stop radius: the robot never nears the goal, so the run takes 40 s
        traj = rollout(_fixed_control, (gain, d), state, goal, step=0.01, max_time=40.0,
                       tol=0.0)
        x, y, th = traj.states[-1]
        hx, hy = x + d * math.cos(th), y + d * math.sin(th)
        if math.hypot(goal.x - hx, goal.y - hy) > 1e-6:
            return CheckResult("fixed-headway-offset", False,
                               "headway point failed to reach the goal")
        worst = max(worst, abs(math.hypot(goal.x - x, goal.y - y) - d))
    return CheckResult("fixed-headway-offset", worst <= tol,
                       f"{n} runs, max |final distance - headway| = {worst:.3e}")


# ---------------------------------------------------------------------------
# prediction set properties


# trajectory points per block of the banded forward-sim containment search;
# of 16, 32, 64 and 128, 32 searched the 200 acceptance cases fastest
_BAND_CHUNK = 32


def _banded_distances(pts: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest sample of the band next to it, an
    upper bound on the distance to the nearest sample; see
    ``check_trajectory_containment``."""
    m = len(samples)
    d = np.empty(len(pts))
    for i in range(0, len(pts), _BAND_CHUNK):
        lo = min(max(0, i // 2 - 2), m - 1)
        band = samples[lo:max(lo + 1, min(m, (i + _BAND_CHUNK - 1) // 2 + 3))]
        # zero-length segments: the distance to the nearest sample point
        d[i:i + _BAND_CHUNK] = min_distance_to_segments(pts[i:i + _BAND_CHUNK], band, band)
    return d


def _forward_sim_hulls(cases: list[TrajectoryCase]) -> Iterator[tuple[int, PredictionSet]]:
    """Yield ``(i, forward-sim set of case i's initial state at twice its
    step)`` as each run stops, one batch a step.  The stop radius is the
    controller's own, as with ``goal_tol=params.goal_tolerance``."""
    for step in {case.step for case in cases}:
        group = [i for i, case in enumerate(cases) if case.step == step]
        runs = [(cases[i].state, cases[i].goal, cases[i].params) for i in group]
        for k, traj in simulate_many(*zip(*runs), 2.0 * step):
            yield group[k], _sampled_set(traj)


def _containment_violations(cases: list[TrajectoryCase]) -> dict[str, float]:
    """Worst excursion of the trajectories beyond each prediction set of
    their initial states, floored at 0; see ``check_trajectory_containment``."""
    worst = {"circle": 0.0, "triangle-bound": 0.0, "triangle": 0.0, "forward-sim": 0.0}
    # each worst value is a maximum, so the order of the cases does not matter
    for i, hull in _forward_sim_hulls(cases):
        case = cases[i]
        pts = case.traj.positions
        goal = case.goal
        disk = circular_prediction(case.state, goal, case.params)
        dists = np.hypot(pts[:, 0] - goal.x, pts[:, 1] - goal.y)
        worst["circle"] = max(worst["circle"], float(dists.max()) - disk.padding)
        bound = triangular_bound(case.state, goal, case.params).points
        tri = triangular_prediction(case.state, goal, case.params).points
        worst["triangle-bound"] = max(worst["triangle-bound"],
                                      float(triangle_distance(bound, pts).max()))
        worst["triangle"] = max(worst["triangle"], float(triangle_distance(tri, pts).max()))
        d = _banded_distances(pts, hull.points)
        far = d > hull.padding
        if far.any():
            d[far] = min_distance_to_segments(pts[far], hull.points, hull.points)
        worst["forward-sim"] = max(worst["forward-sim"], float(d.max()) - hull.padding)
    return worst


def check_trajectory_containment(cases: list[TrajectoryCase],
                                 tol: float = 1e-6) -> CheckResult:
    """The whole closed-loop trajectory stays inside every prediction set of
    its initial state.

    The forward-sim set is the same closed loop from the same start at twice
    the step, so trajectory point i lies next to sample i/2.  Each block of
    ``_BAND_CHUNK`` points from i is first measured against the band of
    samples i/2 - 2 through (i + 31)/2 + 2 only, and the points whose banded
    distance exceeds the padding are measured again against every sample.
    The result is exact: the distance kernel is elementwise, so a banded
    minimum is a minimum over some of the full row's values and never below
    the true one.  A point the band puts within the padding adds at most 0 to
    a worst value floored at 0, and every other point gets its full row.
    """
    worst = _containment_violations(cases)
    bad = {k: v for k, v in worst.items() if v > tol}
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    return CheckResult("trajectory-containment", not bad,
                       f"{len(cases)} trajectories, worst violations: {detail}")


def check_positive_inclusion(cases: list[TrajectoryCase],
                             slack: float = 1e-9) -> CheckResult:
    """Disk predictions computed later along a run nest inside earlier ones."""
    violations = 0
    for case in cases:
        radius = _series(case)["disk_radius"]
        suffix_max = np.maximum.accumulate(radius[::-1])[::-1]
        violations += int(np.count_nonzero(suffix_max > radius + slack))
    return CheckResult("positive-inclusion", violations == 0,
                       f"{len(cases)} trajectories, {violations} radius increases")


def check_radius_decay(cases: list[TrajectoryCase],
                       bound: float = 1e-3) -> CheckResult:
    """All prediction sets have shrunk essentially to the goal at stop time."""
    worst = 0.0
    for case in cases:
        if not case.traj.converged:
            return CheckResult("radius-decay", False, "a run failed to converge")
        final = case.traj.final_state()
        sim = SimConfig(step=case.step, goal_tolerance=case.params.goal_tolerance)
        for pred in (circular_prediction(final, case.goal, case.params),
                     triangular_prediction(final, case.goal, case.params),
                     forward_sim_prediction(final, case.goal, case.params, sim)):
            worst = max(worst, prediction_goal_radius(pred, case.goal))
    return CheckResult("radius-decay", worst < bound,
                       f"{len(cases)} runs, max stopping radius {worst:.3e}")


def _boundary_state(rng: np.random.Generator, eps: float) -> tuple[UnicycleState, Vec2]:
    goal = Vec2(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
    r = float(rng.uniform(0.2, 3.0))
    phi = float(rng.uniform(-math.pi, math.pi))
    pos = goal + r * Vec2(math.cos(phi), math.sin(phi))
    bearing = math.atan2(goal.y - pos.y, goal.x - pos.x)
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    theta = wrap_angle(bearing + side * math.acos(eps))
    return UnicycleState(pos, theta), goal


def _branch_rows(state: UnicycleState, goal: Vec2, params: ControllerParams):
    p, th = state.position, state.orientation
    return tuple(_triangle_rows(p.x, p.y, math.cos(th), math.sin(th), goal.x, goal.y,
                                params.headway_coeff, aligned) for aligned in (True, False))


def check_branch_continuity(seed: int = 0, n: int = 1000,
                            tol: float = 1e-9) -> CheckResult:
    """On the alignment boundary both triangle constructions agree vertex-wise."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        params = _sample_params(rng, eps_range=(0.1, 0.9))
        state, goal = _boundary_state(rng, params.headway_coeff)
        va, vt = _branch_rows(state, goal, params)
        worst = max(worst, math.dist(va[0], vt[0]))
        pairings = ((va[1], va[2], vt[1], vt[2]), (va[1], va[2], vt[2], vt[1]))
        best = min(max(math.dist(a, c), math.dist(b, d)) for a, b, c, d in pairings)
        worst = max(worst, best)
    return CheckResult("branch-continuity", worst <= tol,
                       f"{n} boundary states, max vertex mismatch {worst:.3e}")


def check_distance_lipschitz(seed: int = 0, n: int = 2000,
                             bound: float = LIPSCHITZ_BOUND) -> CheckResult:
    """Prediction distances vary Lipschitz-continuously with the state, with
    no jump across the alignment branch boundary."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for _ in range(n):
        params = _sample_params(rng, eps_range=(0.3, 0.8))
        state, goal = _sample_goal_state(rng, r_range=(0.3, 4.0))
        z = Vec2(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)))
        dp = rng.uniform(-1e-3, 1e-3, size=2)
        dth = float(rng.uniform(-1e-3, 1e-3))
        moved = UnicycleState(state.position + Vec2(float(dp[0]), float(dp[1])),
                              state.orientation + dth)
        denom = math.hypot(*dp) + abs(dth)
        if denom == 0.0:
            continue
        for build in (circular_prediction, triangular_prediction):
            d0 = prediction_distance(build(state, goal, params), z)
            d1 = prediction_distance(build(moved, goal, params), z)
            worst_ratio = max(worst_ratio, abs(d1 - d0) / denom)

    worst_jump = 0.0
    for _ in range(200):
        params = _sample_params(rng, eps_range=(0.2, 0.8))
        state, goal = _boundary_state(rng, params.headway_coeff)
        z = Vec2(float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)))
        va, vt = _branch_rows(state, goal, params)
        da = prediction_distance(Tri(va), z)
        dtn = prediction_distance(Tri(vt), z)
        worst_jump = max(worst_jump, abs(da - dtn))
        r, _, _, ex, ey = _bracket(state, goal, params)
        aligned_disk = Disk(goal, r)
        turning_disk = Disk(goal, math.hypot(ex - goal.x, ey - goal.y))
        worst_jump = max(worst_jump,
                         abs(prediction_distance(aligned_disk, z)
                             - prediction_distance(turning_disk, z)))
    ok = worst_ratio <= bound and worst_jump <= 1e-9
    return CheckResult("distance-lipschitz", ok,
                       f"empirical L = {worst_ratio:.2f} (bound {bound}), "
                       f"branch jump {worst_jump:.3e}")


# ---------------------------------------------------------------------------
# numerics


def check_rk4_order(ratio_range: tuple[float, float] = (12.0, 20.0)) -> CheckResult:
    """Step-halving error ratio of ``simulate_to_goal`` matches fourth-order
    convergence."""
    start = UnicycleState(Vec2(-2.0, 0.6), 2.2)
    goal = Vec2(0.0, 0.0)
    params = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-12)
    horizon = 2.0

    def final_state(step):
        traj = simulate_to_goal(start, goal, params, step=step, goal_tol=1e-12,
                                max_time=horizon)
        return traj.states[-1]

    ref = final_state(horizon / 4096.0)
    err_h = float(np.linalg.norm(final_state(0.1) - ref))
    err_h2 = float(np.linalg.norm(final_state(0.05) - ref))
    ratio = err_h / err_h2
    ok = ratio_range[0] <= ratio <= ratio_range[1]
    return CheckResult("rk4-order", ok,
                       f"errors {err_h:.3e} / {err_h2:.3e}, ratio {ratio:.2f}")


def check_nonholonomic_exact(seed: int = 0, n: int = 10_000) -> CheckResult:
    """No sideways motion: the pose derivative the governor integrates is
    exactly speed times heading."""
    rng = np.random.default_rng(seed)
    square = Polygon([Vec2(-5.0, -5.0), Vec2(5.0, -5.0), Vec2(5.0, 5.0), Vec2(-5.0, 5.0)])
    env = Environment(square, [], robot_radius=0.1)
    path = ReferencePath([Vec2(-4.0, 0.0), Vec2(4.0, 0.0)])
    params = ControllerParams()
    config = SimConfig()
    for _ in range(n):
        s = float(rng.uniform(0.0, path.length))
        x, y = float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))
        th = float(rng.uniform(-math.pi, math.pi))
        _, x_rate, y_rate, _, v, *_ = governor_field(env, path, params, "circle", config,
                                                     s, x, y, th)
        c, sn = math.cos(th), math.sin(th)
        # the two products of n . o share their factors, so the dot cancels exactly
        if -sn * c + c * sn != 0.0:
            return CheckResult("nonholonomic-exact", False, "normal not orthogonal")
        if x_rate != v * c or y_rate != v * sn:
            return CheckResult("nonholonomic-exact", False, "velocity off heading")
    return CheckResult("nonholonomic-exact", True,
                       f"{n} samples, constraint holds exactly")


def run_all(seed: int = 0, trajectories: int = 200,
            samples: int = 10_000) -> list[CheckResult]:
    """Run every property suite with shared trajectory cases."""
    cases = sample_trajectory_cases(seed, trajectories)
    return [
        check_goal_point_equivalence(seed, samples),
        check_position_bracket(seed, samples),
        check_distance_order(seed, samples),
        check_alignment_monotone(cases),
        check_aligned_forward_motion(cases),
        check_global_convergence(seed),
        check_headway_reference_consistency(seed),
        check_fixed_headway_offset(seed),
        check_trajectory_containment(cases),
        check_positive_inclusion(cases),
        check_radius_decay(cases),
        check_branch_continuity(seed),
        check_distance_lipschitz(seed),
        check_rk4_order(),
        check_nonholonomic_exact(seed, samples),
    ]
