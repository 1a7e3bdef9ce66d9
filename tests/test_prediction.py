import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headway_sim import properties
from headway_sim.geom import (
    Vec2,
    _point_segment_distance_matrix,
    min_distance_to_segments,
    triangle_distance,
)
from headway_sim.ode import SimConfig, simulate_to_goal
from headway_sim.prediction import (
    Disk,
    PredictionSet,
    Tri,
    _disk_radius,
    circular_prediction,
    forward_sim_prediction,
    prediction_distance,
    prediction_goal_radius,
    triangular_bound,
    triangular_prediction,
)
from headway_sim.properties import (
    _BAND_CHUNK,
    _banded_distances,
    _containment_violations,
    check_branch_continuity,
    check_distance_lipschitz,
    check_positive_inclusion,
    check_radius_decay,
    check_trajectory_containment,
    sample_trajectory_cases,
)
from headway_sim.unicycle import ControllerParams, UnicycleState, _turning_frame, headway_point
from test_unicycle import headway_frame

PARAMS = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)
ORIGIN = Vec2(0.0, 0.0)


def state(x, y, th):
    return UnicycleState(Vec2(x, y), th)


class TestPredictionTypes:
    def test_disk_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Disk(ORIGIN, -0.1)

    def test_hull_needs_points_and_padding(self):
        with pytest.raises(ValueError, match="point"):
            PredictionSet(np.zeros((0, 2)), 0.0)
        with pytest.raises(ValueError, match="padding"):
            PredictionSet(np.zeros((1, 2)), -1.0)

    def test_triangle_needs_three_vertices(self):
        with pytest.raises(ValueError, match="3 vertices"):
            Tri([[0.0, 0.0], [1.0, 0.0]])


class TestCircularPrediction:
    def test_facing_goal_uses_position_distance(self):
        disk = circular_prediction(state(1, 0, math.pi), ORIGIN, PARAMS)
        assert disk.center == ORIGIN
        assert disk.radius == pytest.approx(1.0, abs=1e-12)

    def test_at_goal_collapses(self):
        disk = circular_prediction(state(0, 0, 1.0), ORIGIN, PARAMS)
        assert disk.radius == 0.0

    def test_misaligned_uses_extended_distance(self):
        disk = circular_prediction(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS)
        assert disk.radius == pytest.approx(1.0327955589886444, abs=1e-9)


class TestTriangularBound:
    def test_is_a_filled_prediction_set(self):
        bound = triangular_bound(state(0, 0, 0.2), Vec2(1, 1), PARAMS)
        assert isinstance(bound, Tri) and bound.filled and bound.padding == 0.0

    def test_head_on_degenerates_to_segment(self):
        tri = triangular_bound(state(1, 0, math.pi), ORIGIN, PARAMS).triangle
        assert tri.v0 == ORIGIN
        assert tri.v1 == Vec2(1, 0)
        assert tri.v2.x == pytest.approx(0.5, abs=1e-12)
        assert abs(tri.v2.y) < 1e-15
        assert abs((tri.v1 - tri.v0).cross(tri.v2 - tri.v0)) < 1e-15

    def test_at_goal_is_a_point(self):
        tri = triangular_bound(state(0, 0, 0.2), ORIGIN, PARAMS).triangle
        assert tri.v0 == tri.v1 == tri.v2 == ORIGIN

    def test_misaligned_uses_projected_extended(self):
        tri = triangular_bound(state(0, 0, math.pi / 2), Vec2(1, 0), PARAMS).triangle
        assert tri.v0 == Vec2(1, 0)
        assert tri.v1.x == pytest.approx(0.2, abs=1e-12)
        assert tri.v1.y == pytest.approx(0.4, abs=1e-12)
        assert tri.v2.x == pytest.approx(-0.030940107675850306, abs=1e-9)
        assert tri.v2.y == pytest.approx(-0.06188021535170061, abs=1e-9)


class TestGoalAlignment:
    """The heading's alignment with the goal bearing picks the tight bound's
    branch: at or above eps the forward one, below it the turning one."""

    def test_facing_goal(self):
        # the alignment is 1: the forward branch at any eps
        params = ControllerParams(headway_coeff=0.95)
        bound = triangular_bound(state(0, 0, 0), Vec2(2, 0), params).points
        assert np.array_equal(bound, [[2, 0], [0, 0], [1.9, 0]])

    def test_perpendicular(self):
        # the alignment is 0: the turning branch at any eps
        params = ControllerParams(headway_coeff=0.05)
        bound = triangular_bound(state(0, 0, math.pi / 2), Vec2(2, 0), params).points
        *_, qx, qy, _ = _turning_frame(0.0, 0.0, math.cos(math.pi / 2), 1.0, 2.0, 0.0,
                                       0.05, 2.0)
        assert np.array_equal(bound[1], [qx, qy])

    def test_at_goal_defaults_aligned(self):
        # the bearing is undefined at the goal; the forward branch's triangle
        # (goal, position, headway point) is the goal itself, as is every set
        params = ControllerParams(headway_coeff=0.05)
        at_goal = state(1, 1, 0.3)
        assert np.array_equal(triangular_bound(at_goal, Vec2(1, 1), params).points,
                              [[1, 1]] * 3)
        assert circular_prediction(at_goal, Vec2(1, 1), params).padding == 0.0


class TestTriangularPrediction:
    def test_aligned_head_on_keeps_headway_vertex(self):
        # alignment is 1, so the stretch term vanishes and the third vertex
        # stays at the headway point
        tri = triangular_prediction(state(1, 0, math.pi), ORIGIN, PARAMS).triangle
        assert tri.v0 == ORIGIN
        assert tri.v1 == Vec2(1, 0)
        assert tri.v2.x == pytest.approx(0.5, abs=1e-12)
        assert abs(tri.v2.y) < 1e-15

    def test_at_goal_is_a_point(self):
        tri = triangular_prediction(state(0, 0, -1.0), ORIGIN, PARAMS).triangle
        assert tri.v0 == tri.v1 == tri.v2 == ORIGIN

    def test_branches_coincide_on_alignment_boundary(self):
        result = check_branch_continuity(seed=31, n=300)
        assert result.passed, result.detail

    def test_contains_tight_bound(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            eps = rng.uniform(0.2, 0.8)
            params = ControllerParams(headway_coeff=eps)
            st = state(rng.uniform(-3, 3), rng.uniform(-3, 3),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            bound = triangular_bound(st, goal, params)
            pred = triangular_prediction(st, goal, params)
            for v in bound.triangle.vertices:
                assert prediction_distance(pred, v) <= 1e-9


def _heading(th):
    return Vec2(math.cos(th), math.sin(th))


def _vec2_alignment(state, goal):
    delta = goal - state.position
    return _heading(state.orientation).dot(delta) / delta.norm()


def _vec2_frame(state, goal, params):
    """The headway frame composed from Vec2 arithmetic, as the prediction
    sets were built before their float kernels."""
    p = state.position
    delta = goal - p
    eps = params.headway_coeff
    h = p + (eps * delta.norm()) * _heading(state.orientation)
    to_goal = goal - h
    tangent = to_goal * (1.0 / to_goal.norm())
    if delta.dot(_heading(state.orientation).perp()) >= 0.0:
        normal = tangent.perp()
    else:
        normal = -tangent.perp()
    projected = goal + tangent * tangent.dot(p - goal)
    proj_dist = (projected - goal).norm()
    scale = eps / math.sqrt(1.0 - eps * eps)
    return h, tangent, normal, projected, projected + (scale * proj_dist) * normal


def _vec2_disk_radius(state, goal, params):
    r = (state.position - goal).norm()
    if r == 0.0 or _vec2_alignment(state, goal) >= params.headway_coeff:
        return r
    return (_vec2_frame(state, goal, params)[4] - goal).norm()


def _vec2_triangle(state, goal, params, aligned):
    """Both branches' vertices as Vec2 arithmetic composed them."""
    p = state.position
    eps = params.headway_coeff
    if aligned:
        d = eps * (goal - p).norm()
        h = p + (eps * (p - goal).norm()) * _heading(state.orientation)
        a = _vec2_alignment(state, goal)
        stretched = h + ((1.0 - a) / (1.0 - eps) * d) * _heading(state.orientation)
        return goal, p, stretched
    _, tangent, _, proj, _ = _vec2_frame(state, goal, params)
    offset = (eps / math.sqrt(1.0 - eps * eps) * (proj - goal).norm()) * tangent.perp()
    return goal, proj + offset, proj - offset


def _vec2_bound(state, goal, params):
    """The tight triangle's vertices as Vec2 arithmetic composed them."""
    p = state.position
    if (p - goal).norm() == 0.0:
        return goal, goal, goal
    if _vec2_alignment(state, goal) >= params.headway_coeff:
        return goal, p, headway_point(state, goal, params)
    *_, projected, extended = _vec2_frame(state, goal, params)
    return goal, projected, extended


def _rows(vertices):
    return np.array([[v.x, v.y] for v in vertices])


def _outcome(build):
    """What ``build`` returns, or ValueError when the construction refuses."""
    try:
        return build()
    except ValueError:
        return ValueError


def _same(a, b):
    return a is b if a is ValueError or b is ValueError else np.array_equal(a, b)


_coord = st.floats(-8.0, 8.0, allow_nan=False)


class TestFloatBuilders:
    """The circle, both triangles and the headway frame built from floats
    give the floats that Vec2 arithmetic gave, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(x=_coord, y=_coord, gx=_coord, gy=_coord, th=st.floats(-20.0, 20.0),
           eps=st.floats(0.05, 0.95), case=st.sampled_from(
               ["free", "at goal", "at the boundary", "just past the boundary"]))
    # a subnormal goal distance: the tangent has no inverse, and both refuse;
    # ahead, only the turning constructions need it, behind, all of them do
    @example(x=0.0, y=0.0, gx=0.0, gy=2.225073858507e-311, th=1.0, eps=0.5, case="free")
    @example(x=0.0, y=0.0, gx=0.0, gy=2.225073858507e-311, th=-1.0, eps=0.5, case="free")
    def test_match_vec2_construction(self, x, y, gx, gy, th, eps, case):
        if case == "at goal":
            gx, gy = x, y
        state, goal = UnicycleState(Vec2(x, y), th), Vec2(gx, gy)
        r = (state.position - goal).norm()
        if r != 0.0 and case in ("at the boundary", "just past the boundary"):
            # alignment exactly at eps takes the forward-motion branch, the
            # next float above it the turning branch
            a = _vec2_alignment(state, goal)
            if case == "just past the boundary":
                a = math.nextafter(a, 2.0)
            if 0.0 < a < 1.0:
                eps = a
        params = ControllerParams(headway_coeff=eps)

        disk = _outcome(lambda: circular_prediction(state, goal, params))
        assert _same(disk if disk is ValueError else disk.padding,
                     _outcome(lambda: _vec2_disk_radius(state, goal, params)))
        if disk is not ValueError:
            assert np.array_equal(disk.points, [[gx, gy]])

        tri = _outcome(lambda: triangular_prediction(state, goal, params).points)
        bound = _outcome(lambda: triangular_bound(state, goal, params).points)
        assert _same(bound, _outcome(lambda: _rows(_vec2_bound(state, goal, params))))
        if r == 0.0:
            assert np.array_equal(tri, [[gx, gy]] * 3)
            assert np.array_equal(bound, [[gx, gy]] * 3)
            return
        aligned = _vec2_alignment(state, goal) >= eps
        assert _same(tri, _outcome(lambda: _rows(_vec2_triangle(state, goal, params, aligned))))
        branches = _outcome(lambda: properties._branch_rows(state, goal, params))
        turning = _outcome(lambda: _rows(_vec2_triangle(state, goal, params, False)))
        if branches is ValueError:
            assert turning is ValueError
        else:
            assert np.array_equal(branches[0], _rows(_vec2_triangle(state, goal, params, True)))
            assert _same(branches[1], turning)
        frame = _outcome(lambda: headway_frame(state, goal, params))
        reference = _outcome(lambda: _vec2_frame(state, goal, params))
        if frame is ValueError:
            assert reference is ValueError
        else:
            assert frame == reference
            assert frame[0] == headway_point(state, goal, params)

    def test_alignment_at_eps_takes_the_forward_branch(self):
        state, goal = UnicycleState(Vec2(0.0, 0.0), 0.3), Vec2(2.0, 1.0)
        a = _vec2_alignment(state, goal)
        branches = {}
        for eps, aligned in ((a, True), (math.nextafter(a, 2.0), False)):
            params = ControllerParams(headway_coeff=eps)
            branches[aligned] = _rows(_vec2_triangle(state, goal, params, aligned))
            assert np.array_equal(triangular_prediction(state, goal, params).points,
                                  branches[aligned])
        # the branches agree to rounding here, but not bit for bit
        assert not np.array_equal(branches[True], branches[False])


class TestForwardSimPrediction:
    def test_at_goal_single_point(self):
        hull = forward_sim_prediction(state(0, 0, 0.5), ORIGIN, PARAMS, SimConfig())
        assert hull.points.shape == (1, 2)
        assert hull.padding == 0.0
        assert hull.converged

    def test_head_on_stays_on_segment(self):
        hull = forward_sim_prediction(state(1, 0, math.pi), ORIGIN, PARAMS,
                                      SimConfig(step=0.01))
        assert hull.converged
        assert np.all(hull.points[:, 0] >= -1e-9)
        assert np.all(hull.points[:, 0] <= 1.0 + 1e-9)
        assert np.all(np.abs(hull.points[:, 1]) <= 1e-9)

    def test_hull_inside_circular_prediction(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            st = state(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-math.pi, math.pi))
            goal = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            hull = forward_sim_prediction(st, goal, PARAMS, SimConfig(step=0.01))
            disk = circular_prediction(st, goal, PARAMS)
            dists = np.hypot(hull.points[:, 0] - goal.x, hull.points[:, 1] - goal.y)
            assert float(dists.max()) <= disk.radius + 1e-6

    def test_budget_exhaustion_flag(self, monkeypatch):
        import headway_sim.ode as ode_mod

        monkeypatch.setattr(ode_mod, "convergence_budget", lambda *args: 0.05)
        hull = forward_sim_prediction(state(3, 0, 0), ORIGIN, PARAMS, SimConfig(step=0.01))
        assert not hull.converged

    def test_inner_horizon_independent_of_episode_horizon(self):
        hull = forward_sim_prediction(state(3, 0, 0), ORIGIN, PARAMS,
                                      SimConfig(step=0.01, max_time=0.05))
        assert hull.converged


class TestPredictionDistance:
    def test_disk(self):
        assert prediction_distance(Disk(ORIGIN, 1.0), Vec2(3, 0)) == 2

    def test_triangle_interior(self):
        tri = Tri([[0, 0], [1, 0], [0, 1]])
        assert prediction_distance(tri, Vec2(0.2, 0.2)) == 0

    def test_hull_with_padding(self):
        hull = PredictionSet(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.1)
        assert prediction_distance(hull, Vec2(1, 1)) == pytest.approx(0.9, abs=1e-12)

    def test_unfilled_set_is_its_padded_points(self):
        pair = PredictionSet(np.array([[0.0, 0.0], [2.0, 0.0]]), 0.5)
        assert prediction_distance(pair, Vec2(1, 0)) == 0.5

    def test_degenerate_triangle_uses_segment_distance(self):
        tri = Tri([[0, 0], [2, 0], [1, 0]])
        assert prediction_distance(tri, Vec2(1, 0.5)) == pytest.approx(0.5, abs=1e-12)
        assert prediction_distance(tri, Vec2(1.5, 0)) == 0


class TestPredictionGoalRadius:
    def test_disk(self):
        assert prediction_goal_radius(Disk(ORIGIN, 0.7), ORIGIN) == 0.7

    def test_triangle_max_vertex(self):
        tri = Tri([[0, 0], [1, 0], [0, 2]])
        assert prediction_goal_radius(tri, ORIGIN) == 2

    def test_point_set(self):
        assert prediction_goal_radius(PredictionSet(np.array([[1.0, 1.0]]), 0.0),
                                      Vec2(1, 1)) == 0

    def test_hull_adds_padding(self):
        hull = PredictionSet(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.25)
        assert prediction_goal_radius(hull, ORIGIN) == pytest.approx(1.25, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.just(300) | st.integers(1, 300),
           scale=st.integers(-163, -154) | st.integers(-170, 150),
           kind=st.sampled_from(["cloud", "ring", "cluster"]), padded=st.booleans())
    # the point of the largest square is not the one of the largest hypot
    @example(seed=5, n=60, scale=-3, kind="ring", padded=False)
    @example(seed=2, n=300, scale=-3, kind="ring", padded=False)
    def test_equals_the_hypot_loop(self, seed, n, scale, kind, padded):
        # the goal radius is the hypot loop's value at every size and scale;
        # rings tie the distances to the last bits (which a padding of their
        # size may round away), and from about 1e-154 m down the squares lose
        # precision to underflow
        rng = np.random.default_rng(seed)
        size = 10.0 ** scale
        goal = rng.normal(size=2) * size
        if kind == "ring":
            angle = rng.uniform(-np.pi, np.pi, n)
            pts = goal + size * np.column_stack([np.cos(angle), np.sin(angle)])
        else:
            spread = size * (10.0 ** rng.uniform(-16, 0) if kind == "cluster" else 1.0)
            pts = goal + rng.normal(size=(n, 2)) * spread
        pred = PredictionSet(pts, float(rng.uniform(0, 1)) * size if padded else 0.0)
        g = Vec2(*goal)
        loop = max(math.hypot(x - g.x, y - g.y) for x, y in pts.tolist()) + pred.padding
        assert prediction_goal_radius(pred, g) == loop


@pytest.fixture(scope="module")
def cases():
    # smaller sample size here; the acceptance suite runs the full sizes
    return sample_trajectory_cases(seed=34, n=30)


class TestTrajectoryLevelProperties:
    def test_containment(self, cases):
        result = check_trajectory_containment(cases)
        assert result.passed, result.detail

    def test_positive_inclusion(self, cases):
        result = check_positive_inclusion(cases)
        assert result.passed, result.detail

    def test_radius_decay(self, cases):
        result = check_radius_decay(cases)
        assert result.passed, result.detail

    def test_distance_lipschitz(self):
        result = check_distance_lipschitz(seed=35, n=800)
        assert result.passed, result.detail


def _hull(case):
    # the forward-sim set criterion 2 measures: the same loop at twice the step
    return forward_sim_prediction(
        case.state, case.goal, case.params,
        SimConfig(step=case.step, prediction_step=2.0 * case.step,
                  goal_tolerance=case.params.goal_tolerance, max_time=120.0))


def _brute_force_violations(cases):
    """Criterion 2's four worst values, every point against every sample."""
    worst = dict.fromkeys(("circle", "triangle-bound", "triangle", "forward-sim"), 0.0)
    for case in cases:
        pts = case.traj.positions
        goal = case.goal
        disk = circular_prediction(case.state, goal, case.params)
        worst["circle"] = max(worst["circle"], float(np.hypot(
            pts[:, 0] - goal.x, pts[:, 1] - goal.y).max()) - disk.padding)
        bound = triangular_bound(case.state, goal, case.params).points
        tri = triangular_prediction(case.state, goal, case.params).points
        worst["triangle-bound"] = max(worst["triangle-bound"],
                                      float(triangle_distance(bound, pts).max()))
        worst["triangle"] = max(worst["triangle"], float(triangle_distance(tri, pts).max()))
        hull = _hull(case)
        d = min_distance_to_segments(pts, hull.points, hull.points)
        worst["forward-sim"] = max(worst["forward-sim"], float(d.max()) - hull.padding)
    return worst


def _band(i, m):
    lo = min(max(0, i // 2 - 2), m - 1)
    return slice(lo, max(lo + 1, min(m, (i + _BAND_CHUNK - 1) // 2 + 3)))


class TestBandedContainmentSearch:
    def test_band_distances_are_full_matrix_columns(self, cases):
        # exactness rests on the kernel being elementwise: a pair's distance
        # is the same in a chunk's matrix as in the full one
        for case in cases:
            pts, q = case.traj.positions, _hull(case).points
            full = _point_segment_distance_matrix(pts, q, q)
            banded = _banded_distances(pts, q)
            for i in range(0, len(pts), _BAND_CHUNK):
                rows, band = slice(i, i + _BAND_CHUNK), _band(i, len(q))
                chunk = _point_segment_distance_matrix(pts[rows], q[band], q[band])
                assert np.array_equal(chunk, full[rows, band])
                assert np.array_equal(banded[rows], full[rows, band].min(axis=1))

    def test_band_leaves_only_points_outside_the_padding(self, cases):
        # the band is wide enough that the full-row fallback runs only for
        # points whose nearest sample really is beyond the padding
        for case in cases:
            hull = _hull(case)
            pts, q = case.traj.positions, hull.points
            banded = _banded_distances(pts, q)
            full = min_distance_to_segments(pts, q, q)
            assert np.count_nonzero(banded > hull.padding) == \
                np.count_nonzero(full > hull.padding)

    def test_matches_brute_force(self, cases):
        assert _containment_violations(cases) == _brute_force_violations(cases)

    def test_reversed_samples_take_the_fallback(self, cases, monkeypatch):
        real, search = properties._forward_sim_hulls, properties.min_distance_to_segments
        reversed_hulls, full_rows = [], []

        def reversed_hull(some):
            for i, hull in real(some):
                reversed_hulls.append(PredictionSet(hull.points[::-1].copy(), hull.padding,
                                                    hull.converged))
                yield i, reversed_hulls[-1]

        def recorded_search(pts, a, b):
            full_rows.extend(len(pts) for hull in reversed_hulls if a is hull.points)
            return search(pts, a, b)

        some = cases[:5]
        # reversed, the band holds samples far from its points
        hull = _hull(some[0])
        banded = _banded_distances(some[0].traj.positions, hull.points[::-1])
        assert (banded > hull.padding).any()
        monkeypatch.setattr(properties, "_forward_sim_hulls", reversed_hull)
        monkeypatch.setattr(properties, "min_distance_to_segments", recorded_search)
        assert _containment_violations(some) == _brute_force_violations(some)
        assert len(reversed_hulls) == len(some)
        assert sum(full_rows) > 0  # points measured against a whole reversed hull

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_held_out_seeds_match_brute_force(self, seed):
        cases = sample_trajectory_cases(seed, 5)
        assert _containment_violations(cases) == _brute_force_violations(cases)


def _scalar_runs(states, goals, params, step, goal_tol=None, max_times=None):
    horizons = max_times if max_times is not None else [None] * len(states)
    return enumerate(simulate_to_goal(*run, step, goal_tol, horizon)
                     for *run, horizon in zip(states, goals, params, horizons))


class TestBatchedRuns:
    """The suite's lockstep runs are the scalar runs, byte for byte."""

    def test_cases_and_hulls_match_the_scalar_runs(self, cases):
        hulls = dict(properties._forward_sim_hulls(cases))
        assert sorted(hulls) == list(range(len(cases)))
        for i, case in enumerate(cases):
            traj = simulate_to_goal(case.state, case.goal, case.params, case.step)
            assert traj.t.tobytes() == case.traj.t.tobytes()
            assert traj.states.tobytes() == case.traj.states.tobytes()
            assert traj.converged == case.traj.converged
            scalar, hull = _hull(case), hulls[i]
            assert scalar.points.tobytes() == hull.points.tobytes()
            assert (scalar.padding, scalar.converged) == (hull.padding, hull.converged)

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_run_all_reports_match_the_scalar_path(self, seed, monkeypatch):
        batched = [r.line() for r in properties.run_all(seed)]
        monkeypatch.setattr(properties, "simulate_many", _scalar_runs)
        monkeypatch.setattr(properties, "_forward_sim_hulls",
                            lambda cases: enumerate(_hull(case) for case in cases))
        assert batched == [r.line() for r in properties.run_all(seed)]


class TestSeriesMatchesBuilders:
    """``properties._series`` recomputes the disk radius (criterion 3) and
    the headway point (the headway-reference check) in vectorised form; it
    must certify what ``_disk_radius`` and ``headway_point`` compute."""

    def test_disk_radius_and_headway_point(self):
        worst_radius = worst_point = 0.0
        for case in sample_trajectory_cases(0, 200):
            ser = properties._series(case)
            g, eps = case.goal, case.params.headway_coeff
            for i in range(0, len(ser["r"]), 7):
                x, y, th = case.traj.states[i].tolist()
                radius = _disk_radius(x, y, math.cos(th), math.sin(th), g.x, g.y, eps)
                worst_radius = max(worst_radius,
                                   abs(ser["disk_radius"][i] - radius) / max(radius, 1e-300))
                h = headway_point(UnicycleState(Vec2(x, y), th), g, case.params)
                worst_point = max(worst_point, math.hypot(ser["hx"][i] - h.x, ser["hy"][i] - h.y)
                                  / max(1.0, math.hypot(h.x, h.y)))
        assert worst_radius <= 1e-13
        assert worst_point <= 1e-13


class TestDecayAlongTrajectory:
    def test_radius_shrinks_to_zero(self):
        case_state = state(2.0, -1.0, 2.8)
        goal = ORIGIN
        traj = simulate_to_goal(case_state, goal, PARAMS, step=0.01)
        assert traj.converged
        final = traj.final_state()
        for pred in (circular_prediction(final, goal, PARAMS),
                     triangular_prediction(final, goal, PARAMS)):
            assert prediction_goal_radius(pred, goal) < 1e-3
