"""Deterministic multi-vehicle path-following simulation.

Fixed-wing kinematics under gusty wind, look-ahead pursuit guidance,
sampling-based obstacle replanning, and leaderless arrival-time consensus
over a range-limited network, plus a scenario harness and CLI.
"""

__version__ = "0.1.0"

from .coordination import (
    CoordinationGains,
    consensus_rate,
    speed_command,
    time_index,
)
from .dynamics import (
    AutopilotParams,
    UavLimits,
    UavState,
    WindModel,
    WindParams,
    actuator_bounds,
    fleet_arrays,
    step_autopilot,
    step_kinematics,
    wrap_angle,
)
from .geo import (
    DemFormatError,
    DemGrid,
    Obstacle,
    OutOfBoundsError,
    Point3,
    dem_elevation,
    distance3,
    lateral_distance,
    load_dem,
    save_dem,
    segment_above_terrain,
    segment_obstructed,
)
from .guidance import (
    DegenerateGeometryError,
    GuidanceParams,
    WaypointPath,
    advance_virtual_target,
    convergence_conditions,
    guidance_commands,
    look_ahead_angles,
    reference_angles,
    steering_rates,
)
from .harness import (
    LOG_COLUMNS,
    Metrics,
    ReplanEvent,
    RunError,
    RunLog,
    ScenarioError,
    compute_metrics,
    export,
    load_scenario,
    run,
)
from .network import (
    CommConfig,
    DropoutWindow,
    build_topology,
    deliver,
)
from .replanner import (
    ReplanError,
    ReplanParams,
    best_detour,
    candidate_cost,
    replan,
    sample_region,
)

__all__ = [
    "__version__",
    # geo
    "Point3",
    "Obstacle",
    "DemGrid",
    "DemFormatError",
    "OutOfBoundsError",
    "lateral_distance",
    "distance3",
    "dem_elevation",
    "segment_obstructed",
    "segment_above_terrain",
    "load_dem",
    "save_dem",
    # dynamics
    "UavLimits",
    "UavState",
    "AutopilotParams",
    "WindParams",
    "WindModel",
    "fleet_arrays",
    "actuator_bounds",
    "step_autopilot",
    "step_kinematics",
    "wrap_angle",
    # guidance
    "GuidanceParams",
    "WaypointPath",
    "DegenerateGeometryError",
    "advance_virtual_target",
    "reference_angles",
    "look_ahead_angles",
    "steering_rates",
    "guidance_commands",
    "convergence_conditions",
    # replanner
    "ReplanParams",
    "ReplanError",
    "sample_region",
    "candidate_cost",
    "best_detour",
    "replan",
    # network
    "CommConfig",
    "DropoutWindow",
    "build_topology",
    "deliver",
    # coordination
    "CoordinationGains",
    "time_index",
    "consensus_rate",
    "speed_command",
    # harness
    "ScenarioError",
    "RunError",
    "LOG_COLUMNS",
    "ReplanEvent",
    "RunLog",
    "Metrics",
    "load_scenario",
    "run",
    "compute_metrics",
    "export",
]
