"""headway-sim benchmark: governed episodes, forward simulation and the
property suite, timed end to end and per module.

    python3 bench/run.py --workload shipped-analytic --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the simulator from its
``src`` directory, in this process and on one thread.  The untraced mode
(``--trace 0``) reports the end-to-end metrics; the traced mode (``--trace 1``)
runs one untraced and one traced round and reports the per-module metrics.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread; set before numpy loads

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, instrumented
from workloads import (
    WORKLOADS,
    Inputs,
    Round,
    Workload,
    check_round,
    cross_checks,
    property_cases,
    run_round,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3  # at the start of a run and at its end; once more after each round
MIN_ROUNDS = 2     # every operation is timed at least twice and checked for byte-identical repeats
MODULES = ("geom", "unicycle", "ode", "prediction", "environment", "simulation",
           "scenario", "render", "properties")
PAIR_BYTES = 96  # float64 temporaries per point-segment pair in the distance kernel

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "eval_us": "us", "sim_time_s": "sim_s",
                    "peak_rss_mib": "MiB"}

clock = time.perf_counter


class SetupError(Exception):
    """The checkout lacks the simulator or its scenarios."""


def import_simulator() -> dict:
    """Import the simulator afresh from the checkout's ``src`` directory."""
    for name in [m for m in sys.modules if m == "headway_sim" or m.startswith("headway_sim.")]:
        del sys.modules[name]
    package = importlib.import_module("headway_sim")
    src = ROOT / "src"
    if Path(package.__file__).resolve().parent.parent != src:
        raise SetupError(f"headway_sim was imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"headway_sim.{name}") for name in MODULES}


def setup(workload: Workload, seed: int, repeats: int):
    """Inputs, simulator modules, validated scenarios and set-up times.

    Set-up is importing the package and loading and validating every
    scenario (the benchmark reads or generates the scenario documents
    before the clock starts).  It is repeated so that its median can be
    reported.
    """
    src = ROOT / "src"
    if not (src / "headway_sim" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        inputs = Inputs(workload, seed, ROOT)
    except OSError as exc:
        raise SetupError(f"cannot read the workload's scenarios: {exc}") from exc
    hs, scenarios, times = time_setup(inputs, repeats)
    return inputs, hs, scenarios, times


def time_setup(inputs: Inputs, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = clock()
        hs = import_simulator()
        scenarios = inputs.load(hs)
        times.append(clock() - t0)
    return hs, scenarios, times


def summed_fastest(rounds: list[Round]) -> float:
    """Each operation's fastest time over the rounds, summed.

    The host is shared and its speed drifts in spells of seconds; an
    operation cannot run faster than its own cost, so its fastest repeat is
    the one the host disturbed least.
    """
    best: dict[str, float] = {}
    for rnd in rounds:
        for op in rnd.ops:
            best[op.key] = min(best.get(op.key, op.seconds), op.seconds)
    return sum(best.values())


def end_to_end(workload: Workload, rounds: list[Round], setup_times, peak_mib, cases) -> dict:
    first = [op.result for op in rounds[0].ops if op.result is not None]
    if workload.governed:
        evals = sum(r.n_governor_evals for r in first)
        sim_time = sum(r.travel_time for r in first)
    else:
        # the suite's shared trajectory cases stand in for episodes
        evals = sum(len(c.traj.t) - 1 for c in cases)
        sim_time = sum(float(c.traj.t[-1]) for c in cases)
    wall = summed_fastest(rounds)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "eval_us": wall / max(1, evals) * 1e6,
        "sim_time_s": sim_time,
        "peak_rss_mib": peak_mib,
    }


def per_layer(tracer: Tracer, plain: Round, traced: Round) -> dict:
    """Layer metrics of the traced round; times are self times."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    results = [op.result for op in traced.ops
               if op.result is not None and hasattr(op.result, "n_governor_evals")]
    evals = sum(r.n_governor_evals for r in results)
    steps = sum(len(r.t) - 1 for r in results)

    def per_call(name, scale=1e6):
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    pairs = counts["geom.segment_distance.pairs"]
    inner = counts["ode.inner_steps"]
    m = {
        "simulation.steps": (steps, "count"),
        "simulation.evals": (evals, "count"),
        "simulation.self_us_per_eval": (per(self_s["simulation.run_episode"], evals, 1e6), "us"),
        "environment.point_at.calls": (calls["environment.point_at"], "count"),
        "environment.point_at.us_per_call": (per_call("environment.point_at"), "us"),
        "environment.safety_distance.calls": (calls["environment.safety_distance"], "count"),
        "environment.safety_distance.us_per_call":
            (per_call("environment.safety_distance"), "us"),
        "environment.margin_points.ms": (self_s["environment.margin_points"] * 1e3, "ms"),
        "environment.path_clearance.ms": (self_s["environment.path_clearance"] * 1e3, "ms"),
        "prediction.prediction_set.calls": (calls["prediction.prediction_set"], "count"),
        "prediction.prediction_set.us_per_call": (per_call("prediction.prediction_set"), "us"),
        "prediction.goal_radius.us_per_call": (per_call("prediction.goal_radius"), "us"),
        "unicycle.control.calls": (calls["unicycle.control"], "count"),
        "unicycle.control.us_per_call": (per_call("unicycle.control"), "us"),
        "ode.simulate_to_goal.calls": (calls["ode.simulate_to_goal"], "count"),
        "ode.inner_steps": (inner, "count"),
        "ode.inner_steps_per_s": (per(inner, self_s["ode.simulate_to_goal"], 1.0), "1/s"),
        "geom.vec2_built": (counts["geom.vec2_built"], "count"),
        "geom.segment_distance.pairs": (pairs, "count"),
        "geom.segment_distance.ns_per_pair":
            (per(self_s["geom.segment_distance"], pairs, 1e9), "ns"),
        "geom.segment_distance.mib_computed": (pairs * PAIR_BYTES / 2**20, "MiB"),
        "scenario.load.ms": (self_s["scenario.load"] * 1e3, "ms"),
        "simulation.write_csv.ms": (self_s["simulation.write_csv"] * 1e3, "ms"),
        "simulation.write_summary.ms": (self_s["simulation.write_summary"] * 1e3, "ms"),
        "render.render_svg.ms": (self_s["render.render_svg"] * 1e3, "ms"),
        "output.bytes": (sum(op.output_bytes for op in traced.ops), "count"),
        "properties.sample_trajectory_cases.s":
            (self_s["properties.sample_trajectory_cases"], "s"),
        "properties.check_trajectory_containment.s":
            (self_s["properties.check_trajectory_containment"], "s"),
        "properties.frame_checks.s": (self_s["properties.frame_checks"], "s"),
        "properties.other_checks.s": (self_s["properties.other_checks"], "s"),
        "trace.overhead_s": (traced.seconds - plain.seconds, "s"),
    }
    return m


def additivity(tracer: Tracer) -> list[str]:
    """Each episode's (or suite's) layer self times add up to its wall time."""
    problems = []
    for root in ("simulation.run_episode", "properties.run_all"):
        if root not in tracer.names:
            continue
        for n, (wall, total) in enumerate(tracer.subtree_self_sums(root)):
            if abs(wall - total) > 1e-9 * (1.0 + wall):
                problems.append(f"{root} #{n}: self times sum to {total!r} s, "
                                f"span is {wall!r} s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name

    try:
        inputs, hs, scenarios, setup_times = setup(
            workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # whole rounds, at least MIN_ROUNDS, and no round that would end past --seconds
    rounds = []
    start = lap = clock()
    shortest = float("inf")
    while True:
        rounds.append(run_round(workload, hs, scenarios, out))
        if args.trace:
            break
        setup_times += time_setup(inputs, 1)[2]
        now = clock()
        shortest, lap = min(shortest, now - lap), now
        if len(rounds) >= MIN_ROUNDS and now - start + shortest > args.seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        tracer = Tracer()
        with instrumented(tracer, hs):
            with tracer.span("scenario.load"):
                inputs.load(hs)
            rounds.append(run_round(workload, hs, scenarios, out, tracer))
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "trace" / f"{workload.name}-seed{args.seed}.npz")

    cases = None if workload.governed else property_cases(hs)
    for rnd in rounds:
        check_round(workload, inputs, hs, scenarios, rnd, out, cases)
    problems = cross_checks(workload, rounds)
    if tracer is not None:
        problems += additivity(tracer)

    attempted = sum(len(r.ops) for r in rounds)
    failed = 0
    for rnd in rounds:
        for op in rnd.ops:
            failed += bool(op.problems)
            for p in op.problems:
                print(f"FAILED {op.key}: {p}", file=sys.stderr)
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)

    if tracer is not None:
        metrics = per_layer(tracer, rounds[0], rounds[1])
    else:
        # host speed drifts over seconds, so set-up is sampled across the run
        setup_times += time_setup(inputs, SETUP_REPEATS)[2]
        values = end_to_end(workload, rounds, setup_times, peak_mib, cases)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name}: {len(rounds)} round(s) of "
          f"{', '.join(f'{r.seconds:.3f}' for r in rounds)} s, "
          f"{attempted} operations, {failed} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
