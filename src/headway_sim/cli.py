"""Command-line front end: run episodes, compare methods, render, check.

Exit codes are part of the interface and stay stable:

    0  success
    1  schema error (unparseable or invalid scenario, bad render input or
       option value, unreadable input or unwritable output path)
    2  clearance error (path touches the free-space boundary)
    3  non-convergence (time horizon exhausted)
    4  collision (recorded margin went negative)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .environment import ClearanceError
from .properties import run_all
from .render import RenderError, RenderSpec, render_svg, speed_profile_svg
from .scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
)
from .simulation import (
    METHODS,
    EpisodeResult,
    NonConvergenceError,
    prediction_set,
    read_trajectory_csv,
    run_episode,
)
from .unicycle import UnicycleState
from .geom import Vec2

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_CLEARANCE = 2
EXIT_NONCONVERGENCE = 3
EXIT_COLLISION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headway-sim",
        description="Adaptive-headway unicycle control and safe path following")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--method", choices=METHODS, help="override the scenario method")
        p.add_argument("--epsilon", type=float, help="override the headway coefficient")
        p.add_argument("--dt", type=float, help="override the integration step (s)")
        p.add_argument("--max-time", type=float, help="override the time horizon (s)")
        p.add_argument("--out", help="output directory (default $HEADWAY_SIM_OUT or ./out)")

    p_run = sub.add_parser("run", help="run one episode and write CSV/summary/SVG")
    add_scenario_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several methods and epsilons")
    add_scenario_args(p_cmp)
    p_cmp.add_argument("--methods", default=",".join(METHODS),
                       help="comma-separated method list")
    p_cmp.add_argument("--epsilons", default="",
                       help="comma-separated headway coefficients (default: scenario value)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ren = sub.add_parser("render", help="render trajectory CSVs over the scene")
    p_ren.add_argument("--scenario", required=True)
    p_ren.add_argument("--csv", action="append", required=True,
                       help="trajectory CSV (repeatable for overlays)")
    p_ren.add_argument("--out", required=True, help="output SVG path")
    p_ren.add_argument("--method", choices=METHODS,
                       help="prediction method for snapshots (default: scenario)")
    p_ren.add_argument("--snapshots", default="",
                       help="comma-separated times for prediction-set snapshots")
    p_ren.add_argument("--size", type=int, default=720, help="canvas width in px")
    p_ren.set_defaults(func=cmd_render)

    p_chk = sub.add_parser("check", help="run the randomized property suites")
    p_chk.add_argument("--seed", type=int, default=0, help="random generator seed")
    p_chk.add_argument("--trajectories", type=int, default=200, help=(
        "trajectory cases shared by alignment-monotone, aligned-forward-motion, "
        "trajectory-containment, positive-inclusion and radius-decay"))
    p_chk.add_argument("--samples", type=int, default=10_000, help=(
        "samples of goal-point-equivalence, position-bracket, distance-order and "
        "nonholonomic-exact; the other suites have fixed sizes"))
    p_chk.set_defaults(func=cmd_check)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("HEADWAY_SIM_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> Scenario:
    return load_scenario(args.scenario).with_overrides(
        method=args.method, epsilon=args.epsilon, step=args.dt, max_time=args.max_time)


def _numbers(text: str, option: str) -> list[float]:
    """The numbers of a comma-separated option value; blank items are skipped."""
    try:
        return [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ValueError(f"{option} must be a comma-separated list of numbers, "
                         f"got {text!r}") from None


def _episode_exit(result: EpisodeResult) -> int:
    if result.collision_flag:
        return EXIT_COLLISION
    if not result.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _write_episode(scenario: Scenario, result: EpisodeResult, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    result.write_csv(directory / "trajectory.csv")
    result.write_summary(directory / "summary.yaml")
    traj = {"x": result.x, "y": result.y, "theta": result.theta, "v": result.v}
    svg = render_svg(scenario.environment, scenario.path, [traj], [],
                     RenderSpec())
    (directory / "trajectory.svg").write_text(svg)


def cmd_run(args) -> int:
    scenario = _load(args)
    out = _out_dir(args) / f"{scenario.name}_{scenario.method}"
    out.mkdir(exist_ok=True)  # an unusable --out is refused before the run
    try:
        result = run_episode(scenario.environment, scenario.path, scenario.controller,
                             scenario.method, scenario.sim, scenario.initial_theta)
    except NonConvergenceError as exc:
        if exc.result is not None:  # the nodes before the fault, as a max_time exit writes
            _write_episode(scenario, exc.result, out)
        raise
    _write_episode(scenario, result, out)
    summary = result.summary()
    print(f"{scenario.name} [{scenario.method}] converged={summary['converged']} "
          f"travel_time={summary['travel_time']:.3f}s "
          f"avg_speed={summary['avg_speed']:.3f}m/s "
          f"min_margin={summary['min_margin']:.4f}m -> {out}")
    return _episode_exit(result)


def cmd_compare(args) -> int:
    scenario = _load(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"--methods must name one or more of {list(METHODS)}, "
                         f"got {args.methods!r}")
    epsilons = _numbers(args.epsilons, "--epsilons") or [scenario.controller.headway_coeff]
    runs = [scenario.with_overrides(method=method, epsilon=eps)
            for eps in epsilons for method in methods]
    out = _out_dir(args)
    rows = []
    worst = EXIT_OK
    overlays = []
    speed_series = []
    for sc in runs:
        eps = sc.controller.headway_coeff
        result = run_episode(sc.environment, sc.path, sc.controller, sc.method,
                             sc.sim, sc.initial_theta)
        _write_episode(sc, result, out / f"{sc.name}_{sc.method}_eps{eps:g}")
        rows.append(result.summary())
        overlays.append({"x": result.x, "y": result.y,
                         "theta": result.theta, "v": result.v})
        stride = max(1, len(result.t) // 600)
        speed_series.append((f"{sc.method} eps={eps:g}",
                             result.t[::stride], result.v[::stride]))
        worst = max(worst, _episode_exit(result))
    header = f"{'method':<12} {'eps':>5} {'travel_time':>12} {'avg_speed':>10} " \
             f"{'min_margin':>11} {'eval_us':>8} {'collision':>9}"
    print(header)
    for row in rows:
        print(f"{row['method']:<12} {row['epsilon']:>5.2f} {row['travel_time']:>12.3f} "
              f"{row['avg_speed']:>10.3f} {row['min_margin']:>11.4f} "
              f"{row['governor_eval_seconds'] * 1e6:>8.1f} {str(row['collision']):>9}")
    svg = render_svg(scenario.environment, scenario.path, overlays, [], RenderSpec())
    (out / f"{scenario.name}_compare.svg").write_text(svg)
    (out / f"{scenario.name}_speeds.svg").write_text(speed_profile_svg(speed_series))
    table = out / f"{scenario.name}_compare.csv"
    with open(table, "w") as fh:
        keys = ("method", "epsilon", "travel_time", "avg_speed", "min_margin",
                "governor_eval_seconds", "collision", "converged")
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(format(row[k], ".12g") if isinstance(row[k], float)
                              else str(row[k]) for k in keys) + "\n")
    return worst


def cmd_render(args) -> int:
    scenario = load_scenario(args.scenario)
    method = args.method or scenario.method
    trajectories = [read_trajectory_csv(f) for f in args.csv]
    snapshots = _numbers(args.snapshots, "--snapshots")
    if not all(map(math.isfinite, snapshots)):
        raise RenderError(f"snapshot times must be finite, got {args.snapshots!r}")
    predictions = []
    for t_snap in snapshots:
        base = trajectories[0]
        if len(base["t"]) == 0:
            raise RenderError("cannot take snapshots of an empty trajectory")
        idx = int(abs(base["t"] - t_snap).argmin())
        state = UnicycleState(Vec2(float(base["x"][idx]), float(base["y"][idx])),
                              float(base["theta"][idx]))
        goal = scenario.path.point_at(float(base["s"][idx]))
        predictions.append(prediction_set(method, state, goal,
                                          scenario.controller, scenario.sim))
    svg = render_svg(scenario.environment, scenario.path, trajectories,
                     predictions, RenderSpec(width=args.size))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    # the first half of the trajectory cases start goal-aligned, and
    # aligned-forward-motion needs one of them
    if args.trajectories < 2:
        raise ValueError(f"--trajectories must be at least 2, got {args.trajectories}")
    if args.seed < 0:  # numpy's own refusal does not name the option
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    results = run_all(args.seed, trajectories=args.trajectories, samples=args.samples)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} property suites passed")
    return EXIT_OK if not failed else EXIT_SCHEMA


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"{args.scenario}: OK ({scenario.name}, method={scenario.method}, "
          f"path length={scenario.path.length:.3f} m)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ScenarioValidationError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_SCHEMA
    except ClearanceError as exc:
        print(f"clearance error: {exc}", file=sys.stderr)
        return EXIT_CLEARANCE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except RenderError as exc:
        print(f"render error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
