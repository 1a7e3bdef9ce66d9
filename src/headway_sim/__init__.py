"""Adaptive-headway unicycle control, feedback motion prediction, and
time-governed safe path following around polygonal obstacles."""

__version__ = "0.1.0"

from .geom import (
    Polygon,
    Triangle,
    Vec2,
    triangle_contains,
)
from .unicycle import (
    ControllerParams,
    UnicycleState,
    headway_point,
    wrap_angle,
)
from .ode import SimConfig, Trajectory, rollout, simulate_to_goal
from .prediction import (
    Disk,
    PredictionSet,
    Tri,
    circular_prediction,
    forward_sim_prediction,
    prediction_distance,
    prediction_goal_radius,
    triangular_bound,
    triangular_prediction,
)
from .environment import (
    ClearanceError,
    Environment,
    ReferencePath,
    path_clearance,
    safety_distance,
)
from .simulation import (
    METHODS,
    EpisodeResult,
    governor_field,
    run_episode,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    write_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
