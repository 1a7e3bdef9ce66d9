"""Adaptive-headway unicycle control, feedback motion prediction, and
time-governed safe path following around polygonal obstacles."""

__version__ = "0.1.0"

from .geom import (
    Polygon,
    Segment,
    Triangle,
    Vec2,
    point_segment_distance,
    rotate,
    triangle_contains,
)
from .unicycle import (
    ControlInput,
    ControllerParams,
    HeadwayFrame,
    UnicycleState,
    adaptive_headway_control,
    fixed_headway_control,
    headway_distance,
    headway_frame,
    headway_point,
    unicycle_derivative,
    wrap_angle,
)
from .ode import SimConfig, Trajectory, rollout, simulate_to_goal
from .prediction import (
    Disk,
    Hull,
    PredictionSet,
    Tri,
    circular_prediction,
    forward_sim_prediction,
    goal_alignment,
    prediction_distance,
    prediction_goal_radius,
    triangular_bound,
    triangular_prediction,
)
from .environment import (
    ClearanceError,
    Environment,
    ReferencePath,
    free_space_margin,
    path_clearance,
    safety_distance,
)
from .simulation import (
    METHODS,
    EpisodeResult,
    compare_methods,
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
