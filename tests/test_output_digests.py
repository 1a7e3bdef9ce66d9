"""Byte-identical outputs as a test.

Recomputes the sha256 of the fast subset of ``tools/output_digests.py``'s
listing (``write_outputs(out, fast=True)``) and compares them with
``output_digests.txt`` next to this file:

* ``trajectory.csv`` and ``trajectory.svg`` of ``headway-sim run`` on the
  five shipped scenes with ``circle`` and ``triangle``, and its
  ``summary.yaml`` without the host-time line ``governor_eval_seconds``;
* the trajectory columns of the benchmark's cluttered scene, seeds 1-3,
  with both methods;
* the ``check --seed 2024`` report (the acceptance gate's seed);
* for each shipped scene, ``validate``'s report and the file
  ``write_scenario`` writes;
* every command's exit code.

The full listing also covers forward-sim, ``render`` and ``compare`` and
takes minutes.  The bits depend on libm and numpy, so the file records the
Python and numpy versions it was made with.  A change that moves an output
on purpose regenerates the file and says which digests moved, and why:

    PYTHONPATH=src python tests/test_output_digests.py
"""

from __future__ import annotations

import importlib.util
import platform
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.txt")

_spec = importlib.util.spec_from_file_location("output_digests",
                                               ROOT / "tools" / "output_digests.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def output_digests(out: Path) -> dict[str, str]:
    """The digest of each output of the fast subset, by path, writing the
    files under ``out``."""
    tool.write_outputs(out, fast=True)
    return {name: digest for digest, name in (line.split("  ", 1)
                                              for line in tool.listing(out))}


def _made_with() -> str:
    return f"Python {platform.python_version()} and numpy {np.__version__}"


def _read_digests() -> tuple[str, dict[str, str]]:
    lines = DIGESTS.read_text().splitlines()
    made_with = lines[0].removeprefix("# made with ")
    return made_with, dict(reversed(line.split("  ", 1)) for line in lines[1:])


def test_outputs_match_the_recorded_digests(tmp_path):
    made_with, recorded = _read_digests()
    digests = output_digests(tmp_path)
    moved = sorted(name for name in recorded.keys() | digests.keys()
                   if recorded.get(name) != digests.get(name))
    assert not moved, (
        f"{len(moved)} of {len(recorded)} outputs moved: {', '.join(moved)}.  The digests "
        f"were made with {made_with}; this run has {_made_with()}.  If the change moves "
        f"them on purpose, regenerate {DIGESTS.name} and list each moved digest in CHANGES.md.")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        rows = [f"{h}  {name}" for name, h in sorted(output_digests(Path(scratch)).items())]
    DIGESTS.write_text("\n".join([f"# made with {_made_with()}", *rows]) + "\n")
