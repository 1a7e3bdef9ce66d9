"""The benchmark's four workloads: what each round runs and how it is checked.

A round runs every operation of a workload once, one after another (a closed
loop, one thread).  An operation is one governed episode or one property
suite.  Checks compare the outputs with the oracle (``oracle.py``), with the
paper's closed-form headway dynamics and with properties the method must
have; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from oracle import Scene, headway_reference_error, point_along, polyline_length
from scenes import cluttered_scene

clock = time.perf_counter

SHIPPED = ("corridor", "office", "open", "slalom", "uturn")
NODES_CHECKED = 24      # seeded nodes per episode whose delta_F is rebuilt
INNER_CHECKED = 4       # of those, forward-sim nodes whose inner run is replayed
EXACT = 1e-9            # m, agreement asked of margins and clearances
FINAL_DISTANCE = 1e-3   # m, largest final distance to the path end
PROPERTY_SEED = 0       # the acceptance gate's seed and sizes
PROPERTY_TRAJECTORIES = 200
PROPERTY_SAMPLES = 10_000
PROPERTY_SUITES = 15


@dataclass
class Workload:
    name: str
    scenes: tuple[str, ...] = ()        # shipped scenario names, or "cluttered"
    methods: tuple[str, ...] = ()

    @property
    def governed(self) -> bool:
        return bool(self.methods)

    def operations(self) -> list[tuple[str, str]]:
        return [(scene, method) for scene in self.scenes for method in self.methods]


WORKLOADS = {w.name: w for w in (
    Workload("shipped-analytic", SHIPPED, ("circle", "triangle")),
    Workload("cluttered-scene", ("cluttered",), ("triangle", "circle")),
    Workload("shipped-forward-sim", ("corridor", "uturn"), ("forward-sim",)),
    Workload("property-suite"),
)}


@dataclass
class Op:
    """One operation's outcome within a round."""

    key: str
    seconds: float = 0.0
    result: object = None
    digest: tuple = ()      # sha256 of each output file that must repeat
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def record_outputs(self, files: list[Path]) -> None:
        sums = [_digest(f) for f in files]
        self.digest = tuple(h for h, _ in sums)
        self.output_bytes = sum(n for _, n in sums)


@dataclass
class Round:
    ops: list[Op]

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def _digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


class Inputs:
    """Scenario documents for one workload and seed, read or generated by the
    benchmark, plus the oracle's view of each scene."""

    def __init__(self, workload: Workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.documents: dict[str, dict] = {}
        self.files: dict[str, Path] = {}
        for name in workload.scenes:
            if name == "cluttered":
                self.documents[name] = cluttered_scene(seed)
            else:
                self.files[name] = root / "scenarios" / f"{name}.yaml"
                self.documents[name] = yaml.safe_load(self.files[name].read_text())
        self.truth = {name: Scene(doc["workspace"], doc.get("obstacles") or [],
                                  doc["robot_radius"])
                      for name, doc in self.documents.items()}

    def load(self, hs) -> dict:
        """Validate every scenario through the simulator's public loaders."""
        return {name: (hs["scenario"].load_scenario(self.files[name]) if name in self.files
                       else hs["scenario"].scenario_from_dict(self.documents[name]))
                for name in self.workload.scenes}


# ---------------------------------------------------------------------------
# rounds


def run_round(workload: Workload, hs, scenarios: dict, out: Path, tracer=None) -> Round:
    """Run every operation once and write its outputs."""
    span = tracer.span if tracer is not None else nullcontext
    if not workload.governed:
        return Round([_property_op(hs, out, span)])
    return Round([_episode_op(hs, scenarios[scene], scene, method, out, span)
                  for scene, method in workload.operations()])


def _episode_op(hs, sc, scene: str, method: str, out: Path, span) -> Op:
    op = Op(f"{scene}_{method}")
    try:
        t0 = clock()
        with span("simulation.run_episode"):
            res = hs["simulation"].run_episode(sc.environment, sc.path, sc.controller,
                                               method, sc.sim, sc.initial_theta)
        op.seconds = clock() - t0
        op.result = res
        directory = out / op.key
        directory.mkdir(parents=True, exist_ok=True)
        with span("simulation.write_csv"):
            res.write_csv(directory / "trajectory.csv")
        with span("simulation.write_summary"):
            res.write_summary(directory / "summary.yaml")
        with span("render.render_svg"):
            traj = {"x": res.x, "y": res.y, "theta": res.theta, "v": res.v}
            render = hs["render"]
            svg = render.render_svg(sc.environment, sc.path, [traj], [], render.RenderSpec())
            (directory / "trajectory.svg").write_text(svg)
    except Exception as exc:  # the operation failed; the run goes on
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return op
    # summary.yaml records a host timing, so only the CSV and SVG must repeat
    op.record_outputs([directory / "trajectory.csv", directory / "trajectory.svg"])
    return op


def _property_op(hs, out: Path, span) -> Op:
    op = Op("properties")
    try:
        t0 = clock()
        with span("properties.run_all"):
            results = hs["properties"].run_all(PROPERTY_SEED, samples=PROPERTY_SAMPLES,
                                               trajectories=PROPERTY_TRAJECTORIES)
        op.seconds = clock() - t0
        op.result = results
        out.mkdir(parents=True, exist_ok=True)
        (out / "check.txt").write_text("".join(r.line() + "\n" for r in results))
    except Exception as exc:  # the operation failed; the run goes on
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return op
    op.record_outputs([out / "check.txt"])
    return op


def property_cases(hs):
    """The trajectory cases ``run_all`` draws, drawn again for the checks."""
    return hs["properties"].sample_trajectory_cases(PROPERTY_SEED, PROPERTY_TRAJECTORIES)


# ---------------------------------------------------------------------------
# checks


def check_round(workload: Workload, inputs: Inputs, hs, scenarios: dict, rnd: Round,
                out: Path, cases=None) -> None:
    """Record each operation's problems on the operation itself."""
    for index, op in enumerate(rnd.ops):
        if op.problems:
            continue
        if workload.governed:
            scene = op.key.rsplit("_", 1)[0]
            rng = np.random.default_rng([inputs.seed, index])
            _check_episode(op, inputs, scene, scenarios[scene], hs, out / op.key, rng)
        else:
            _check_properties(op, cases)


def _check_episode(op: Op, inputs: Inputs, scene: str, sc, hs, directory: Path,
                   rng: np.random.Generator) -> None:
    res = op.result
    doc = inputs.documents[scene]
    truth = inputs.truth[scene]
    waypoints = np.asarray(doc["path"], dtype=float)
    length = polyline_length(waypoints)
    stop_tol = sc.sim.goal_tolerance
    bad = op.problems.append

    if not res.converged:
        bad("did not converge")
    end = np.hypot(res.x[-1] - waypoints[-1, 0], res.y[-1] - waypoints[-1, 1])
    if not end < FINAL_DISTANCE:
        bad(f"final distance to the path end {end:.3e} m")
    if np.any(np.diff(res.s) < 0.0):
        bad("path parameter s decreased")
    if not (length - stop_tol - EXACT <= res.s[-1] <= length + EXACT):
        bad(f"s ends at {res.s[-1]!r}, path length {length!r}")

    margins = truth.margins(np.column_stack([res.x, res.y]))
    if not margins.min() > 0.0:
        bad(f"oracle margin {margins.min():.3e} m is not positive")
    worst = float(np.abs(margins - res.margin).max())
    if worst > EXACT:
        bad(f"margin column differs from the oracle by {worst:.3e} m")

    table = hs["simulation"].read_trajectory_csv(directory / "trajectory.csv")
    for name, col in zip(hs["simulation"].CSV_COLUMNS, res.columns()):
        if not np.array_equal(table[name], col):
            bad(f"CSV column {name} does not round-trip")

    nodes = rng.choice(len(res.t), size=min(NODES_CHECKED, len(res.t)), replace=False)
    for k, i in enumerate(sorted(nodes)):
        _check_node(op, hs, sc, truth, waypoints, res, int(i), replay=k < INNER_CHECKED)


def _check_node(op: Op, hs, sc, truth: Scene, waypoints, res, i: int, replay: bool) -> None:
    """Rebuild node ``i``'s prediction set and compare its clearance; for a
    forward-sim set, ``replay`` also checks the inner run's dynamics."""
    geom, unicycle, pred_mod = hs["geom"], hs["unicycle"], hs["prediction"]
    gx, gy = point_along(waypoints, float(res.s[i]))
    goal = geom.Vec2(gx, gy)
    state = unicycle.UnicycleState(geom.Vec2(float(res.x[i]), float(res.y[i])),
                                   float(res.theta[i]))
    pred = hs["simulation"].prediction_set(res.method, state, goal, sc.controller, sc.sim)
    delta_f = float(res.delta_f[i])
    if isinstance(pred, pred_mod.Disk):
        exact = truth.disk_clearance((pred.center.x, pred.center.y), pred.radius)
    elif isinstance(pred, pred_mod.Tri):
        tri = pred.triangle
        exact = truth.triangle_clearance(*[(v.x, v.y) for v in tri.vertices])
    else:
        # the set is the sampled points widened by the padding; it covers
        # the bare polyline and sits inside the padded one
        exact = truth.points_clearance(pred.points, pred.padding)
        low = truth.polyline_clearance(pred.points, pred.padding)
        high = truth.polyline_clearance(pred.points, 0.0)
        if not low - EXACT <= delta_f <= high + EXACT:
            op.problems.append(f"node {i}: delta_F {delta_f!r} outside the padded "
                               f"polyline bounds [{low!r}, {high!r}]")
        if replay:
            _check_inner_run(op, hs, sc, state, goal, i)
    if abs(exact - delta_f) > EXACT:
        op.problems.append(f"node {i}: delta_F {delta_f!r}, oracle {exact!r}")


def _check_inner_run(op: Op, hs, sc, state, goal, i: int) -> None:
    """A forward-sim inner run follows the closed-form headway motion."""
    params = sc.controller
    step = sc.sim.inner_step()
    traj = hs["ode"].simulate_to_goal(state, goal, params, step=step,
                                      goal_tol=sc.sim.goal_tolerance)
    err = _headway_error(traj, goal, params, step, sc.sim.goal_tolerance)
    if err is not None:
        op.problems.append(f"node {i}: inner run {err}")


def _headway_error(traj, goal, params, step: float, stop_tol: float):
    """None when the run follows h(t) = g + exp(-k t) (h0 - g) to RK4 accuracy.

    RK4's global error is of order (k dt)^4; the runs here stay ten times
    below that.  Samples within twice the stop radius are left out: the
    controller freezes inside its goal ball, where the closed form ends.
    """
    tol = (params.ref_gain * step) ** 4
    stop = 2.0 * max(params.goal_tolerance, stop_tol)
    err = headway_reference_error(traj.t, traj.states, (goal.x, goal.y),
                                  params.headway_coeff, params.ref_gain, stop)
    return None if err <= tol else f"leaves the headway closed form by {err:.3e} (tol {tol:.1e})"


def _check_properties(op: Op, cases) -> None:
    results = op.result
    if len(results) != PROPERTY_SUITES:
        op.problems.append(f"{len(results)} property suites, expected {PROPERTY_SUITES}")
    for r in results:
        if not r.passed:
            op.problems.append(r.line())
    for n, case in enumerate(cases):
        err = _headway_error(case.traj, case.goal, case.params, case.step,
                             case.params.goal_tolerance)
        if err is not None:
            op.problems.append(f"case {n}: {err}")


def cross_checks(workload: Workload, rounds: list[Round]) -> list[str]:
    """Checks that span operations or rounds; a failure makes the run incorrect."""
    problems = []
    digests: dict[str, set] = {}
    for rnd in rounds:
        for op in rnd.ops:
            if not op.problems:
                digests.setdefault(op.key, set()).add(op.digest)
    for key, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{key}: repeated runs wrote different bytes")
    if set(workload.methods) >= {"circle", "triangle"}:
        for rnd in rounds:
            times = {op.key: op.result.travel_time for op in rnd.ops if not op.problems}
            for scene in workload.scenes:
                tri, circ = times.get(f"{scene}_triangle"), times.get(f"{scene}_circle")
                if tri is not None and circ is not None and not tri < circ:
                    problems.append(f"{scene}: triangle travel time {tri} is not below "
                                    f"circle's {circ}")
    return problems
