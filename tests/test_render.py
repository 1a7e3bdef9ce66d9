import numpy as np
import pytest

from headway_sim.environment import Environment, ReferencePath
from headway_sim.geom import Polygon, Vec2
from headway_sim.prediction import Disk, PredictionSet, Tri
from headway_sim.render import RenderError, RenderSpec, render_svg


@pytest.fixture
def env():
    workspace = Polygon([Vec2(0, 0), Vec2(10, 0), Vec2(10, 8), Vec2(0, 8)])
    obstacle = Polygon([Vec2(4, 3), Vec2(6, 3), Vec2(6, 5), Vec2(4, 5)])
    return Environment(workspace, [obstacle], robot_radius=0.3)


@pytest.fixture
def path():
    return ReferencePath([Vec2(1, 1), Vec2(9, 7)])


def traj(n=50):
    t = np.linspace(0, 1, n)
    return {"t": t, "x": 1 + 8 * t, "y": 1 + 6 * t,
            "theta": np.full(n, 0.6435), "v": np.ones(n)}


class TestRenderSvg:
    def test_structure(self, env, path):
        svg = render_svg(env, path, [traj()], [])
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert '<polygon class="workspace"' in svg
        assert '<polygon class="obstacle"' in svg
        assert '<polyline class="refpath"' in svg
        assert 'class="trajectory traj0"' in svg

    def test_triangle_snapshot_renders_polygon_element(self, env, path):
        pred = Tri([[1, 1], [2, 1], [1, 2]])
        svg = render_svg(env, path, [traj()], [pred])
        assert '<polygon class="prediction"' in svg

    def test_disk_snapshot_renders_circle_element(self, env, path):
        svg = render_svg(env, path, [traj()], [Disk(Vec2(2, 2), 0.8)])
        assert '<circle class="prediction"' in svg

    def test_hull_snapshot_renders_polyline(self, env, path):
        hull = PredictionSet(np.array([[1.0, 1.0], [2.0, 1.5], [3.0, 1.7]]), 0.05)
        svg = render_svg(env, path, [traj()], [hull])
        assert '<polyline class="prediction"' in svg

    def test_two_trajectories_distinct_classes(self, env, path):
        svg = render_svg(env, path, [traj(), traj(30)], [])
        assert 'traj0' in svg and 'traj1' in svg

    def test_empty_trajectory_is_an_error(self, env, path):
        empty = {k: np.zeros(0) for k in ("t", "x", "y", "theta", "v")}
        with pytest.raises(RenderError, match="empty"):
            render_svg(env, path, [empty], [])

    def test_deterministic_output(self, env, path):
        a = render_svg(env, path, [traj()], [Disk(Vec2(2, 2), 0.8)])
        b = render_svg(env, path, [traj()], [Disk(Vec2(2, 2), 0.8)])
        assert a == b

    def test_speed_bars_drawn(self, env, path):
        svg = render_svg(env, path, [traj(200)], [])
        # one bar every 40 samples
        assert svg.count('<line class="speedbar speed0"') == 5

    def test_layer_toggles(self, env, path):
        # each layer is left out by leaving out its input
        no_v = {k: c for k, c in traj().items() if k != "v"}
        svg = render_svg(env, None, [no_v], [])
        assert '<polyline class="refpath"' not in svg
        assert '<line class="speedbar' not in svg
        assert '<circle class="prediction"' not in svg
        assert 'class="trajectory traj0"' in svg
        assert '<line class="speedbar' in render_svg(env, None, [traj()], [])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="width"):
            RenderSpec(width=0)
