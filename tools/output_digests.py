"""Print the sha256 of every deterministic output of the shipped scenarios.

Runs ``headway-sim run`` at scenario defaults on the five shipped scenes
with each prediction method, ``render --snapshots 0,3`` on ``open`` for each
method, ``compare --methods circle,triangle`` on ``open``, ``validate`` and
``write_scenario`` on each shipped scene, ``check`` at its defaults and at
``--seed 2024`` (the acceptance gate's seed), and ``check --trajectories 1``,
which is refused, all from the source tree this script sits in.  It also
writes the trajectory columns (``EpisodeResult.columns()``, stacked float64
bytes) of the benchmark's cluttered scene (``bench/scenes.py``), seeds 1-3,
with circle and triangle.  Each command's exit code, ``validate``'s report
after the scenario path and the two ``check`` reports are written next to
the CSV/SVG/YAML outputs, so one listing covers files, exit codes and
property-suite lines.
``summary.yaml`` and ``*_compare.csv`` record wall-clock cost and are left
out.  Output is sorted ``sha256  path`` lines, so two trees compare with
``diff``:

    python tools/output_digests.py OUT_DIR > digests.txt

Took 85 s on a 2-core Xeon host.  ``write_outputs(out, fast=True)`` writes
the subset that ``tests/test_output_digests.py`` checks: no forward-sim
run, ``render``, ``compare`` or ``check`` other than ``--seed 2024``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ("corridor", "office", "open", "slalom", "uturn")
METHODS = ("circle", "triangle", "forward-sim")


# loads a scenario and writes it back: write_scenario(load_scenario(argv[1]), argv[2])
WRITE = ("import sys; from headway_sim.scenario import load_scenario, write_scenario; "
         "write_scenario(load_scenario(sys.argv[1]), sys.argv[2])")

# writes the cluttered scene's trajectory columns for seeds 1-3 and the
# analytic methods under cluttered/; argv[1] is the bench directory
COLUMNS = """import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from scenes import cluttered_scene
from headway_sim.scenario import scenario_from_dict
from headway_sim.simulation import run_episode
for seed in (1, 2, 3):
    sc = scenario_from_dict(cluttered_scene(seed))
    for method in ("circle", "triangle"):
        res = run_episode(sc.environment, sc.path, sc.controller, method, sc.sim,
                          sc.initial_theta)
        with open(f"cluttered/seed{seed}_{method}.columns", "wb") as f:
            f.write(np.column_stack(res.columns()).tobytes())
"""


def _python(out: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HEADWAY_SIM_OUT", None)
    return subprocess.run([sys.executable, *args], cwd=out, env=env,
                          capture_output=True, text=True)


def _cli(out: Path, *args: str) -> subprocess.CompletedProcess:
    return _python(out, "-m", "headway_sim.cli", *args)


def write_outputs(out: Path, fast: bool = False) -> None:
    """Write every listed output under the existing directory ``out``."""
    methods = METHODS[:2] if fast else METHODS
    codes = []
    for name in ("written", "validate", "cluttered"):
        (out / name).mkdir(exist_ok=True)
    for scene in SCENES:
        source = str(ROOT / "scenarios" / f"{scene}.yaml")
        done = _cli(out, "validate", "--scenario", source)
        codes.append(f"{done.returncode}  validate {scene}")
        (out / "validate" / f"{scene}.txt").write_text(done.stdout.removeprefix(f"{source}: "))
        done = _python(out, "-c", WRITE, source, f"written/{scene}.yaml")
        codes.append(f"{done.returncode}  write_scenario {scene}")
        for method in methods:
            done = _cli(out, "run", "--scenario", source, "--method", method,
                        "--out", "runs")
            codes.append(f"{done.returncode}  run {scene} {method}")
    done = _python(out, "-c", COLUMNS, str(ROOT / "bench"))
    codes.append(f"{done.returncode}  cluttered columns")
    checks = [(("--seed", "2024"), "check_seed2024.txt")]
    if not fast:
        for method in METHODS:
            done = _cli(out, "render", "--scenario", str(ROOT / "scenarios" / "open.yaml"),
                        "--csv", f"runs/open_{method}/trajectory.csv", "--method", method,
                        "--snapshots", "0,3", "--out", f"render/open_{method}.svg")
            codes.append(f"{done.returncode}  render open {method}")
        done = _cli(out, "compare", "--scenario", str(ROOT / "scenarios" / "open.yaml"),
                    "--methods", "circle,triangle", "--out", "compare")
        codes.append(f"{done.returncode}  compare open circle,triangle")
        checks.insert(0, ((), "check.txt"))
    for args, report in checks:
        done = _cli(out, "check", *args)
        codes.append(f"{done.returncode}  " + " ".join(("check", *args)))
        (out / report).write_text(done.stdout)
    if not fast:
        done = _cli(out, "check", "--trajectories", "1")
        codes.append(f"{done.returncode}  check --trajectories 1")
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")


def listing(out: Path) -> list[str]:
    """The sorted ``sha256  path`` lines of the outputs under ``out``."""
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "summary.yaml"
                   and not p.name.endswith("_compare.csv"))
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
            for p in files]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_outputs(out)
    print("\n".join(listing(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
