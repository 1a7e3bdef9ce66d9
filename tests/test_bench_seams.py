"""The names and attributes the benchmark in ``bench/`` relies on.

``bench/spans.py`` traces a run by patching names in the simulator's module
namespaces, and ``bench/workloads.py`` rebuilds prediction sets to check
them against its oracle.  A change that drops one of those names fails
here rather than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from headway_sim.geom import Vec2
from headway_sim.ode import SimConfig
from headway_sim.prediction import Disk, PredictionSet, Tri
from headway_sim.simulation import prediction_set
from headway_sim.unicycle import ControllerParams, UnicycleState

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("geom", "unicycle", "ode", "prediction", "environment", "simulation",
           "scenario", "render", "properties")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(hs):
    spaces = {name: dict(vars(mod)) for name, mod in hs.items()}
    spaces["ReferencePath"] = dict(vars(hs["environment"].ReferencePath))
    spaces["Vec2"] = dict(vars(hs["geom"].Vec2))
    return spaces


def test_tracer_patches_every_seam_and_restores_it():
    spans = _load_spans()
    hs = {name: importlib.import_module(f"headway_sim.{name}") for name in MODULES}
    before = _namespaces(hs)
    tracer = spans.Tracer()
    with spans.instrumented(tracer, hs):
        path = hs["environment"].ReferencePath([Vec2(0, 0), Vec2(2, 0)])
        assert path.point_at(1.0) == Vec2(1, 0)
        assert hs["simulation"].prediction_set is not before["simulation"]["prediction_set"]
    assert tracer.calls["environment.point_at"] == 1
    after = _namespaces(hs)
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        changed = [k for k, v in names.items() if after[space][k] is not v]
        assert not changed, (space, changed)


def test_prediction_sets_expose_what_the_oracle_reads():
    params = ControllerParams(headway_coeff=0.5, ref_gain=1.0, goal_tolerance=1e-4)
    sim = SimConfig()
    state = UnicycleState(Vec2(0.0, 0.0), 0.3)
    goal = Vec2(2.0, 1.0)

    disk = prediction_set("circle", state, goal, params, sim)
    assert isinstance(disk, Disk)
    assert (disk.center.x, disk.center.y) == (2.0, 1.0) and disk.radius > 0.0

    tri = prediction_set("triangle", state, goal, params, sim)
    assert isinstance(tri, Tri)
    assert len([(v.x, v.y) for v in tri.triangle.vertices]) == 3

    hull = prediction_set("forward-sim", state, goal, params, sim)
    # the oracle reads every set that is neither a Disk nor a Tri as points
    assert isinstance(hull, PredictionSet) and not isinstance(hull, (Disk, Tri))
    assert hull.points.shape[1] == 2 and hull.padding > 0.0
    assert sim.inner_step() > 0.0 and sim.goal_tolerance > 0.0
    assert np.allclose(hull.points[0], [0.0, 0.0])
