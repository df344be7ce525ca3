"""The package's public names and the names of the run metrics.

The public API is ``__version__`` plus each re-exported submodule's
``__all__``; ``Metrics`` fields carry their ``metrics.json`` keys.
"""

import dataclasses
import importlib
import json

import flocksim
from flocksim import Metrics, export, load_scenario, run

SUBMODULES = ("coordination", "dynamics", "geo", "guidance", "harness", "network", "replanner")

PUBLIC_NAMES = {
    "__version__",
    "AutopilotParams", "CommConfig", "CoordinationGains", "DegenerateGeometryError", "DemFormatError",
    "DemGrid", "DropoutWindow", "FleetPaths", "GuidanceParams", "LOG_COLUMNS", "Metrics", "Obstacle",
    "OutOfBoundsError", "Point3", "ReplanError", "ReplanEvent", "ReplanParams", "RunError", "RunLog",
    "ScenarioError", "UavLimits", "UavState", "WindModel", "WindParams",
    "actuator_bounds", "advance_virtual_target", "best_detour", "build_topology", "candidate_cost",
    "comm_step", "compute_metrics", "consensus_rate", "control_step", "convergence_conditions",
    "deliver", "dem_elevation", "distance3", "export", "fleet_arrays", "guidance_commands",
    "lateral_distance", "load_dem", "load_scenario", "look_ahead_angles", "reference_angles", "replan",
    "run", "sample_region", "save_dem", "segment_above_terrain", "segment_obstructed", "speed_command",
    "steering_rates", "step_autopilot", "step_kinematics", "time_index", "wrap_angle",
}


def test_public_names_are_unique_and_resolve():
    assert len(PUBLIC_NAMES) == 58
    assert set(flocksim.__all__) == PUBLIC_NAMES
    assert len(flocksim.__all__) == len(set(flocksim.__all__))
    for name in flocksim.__all__:
        assert hasattr(flocksim, name), name


def test_public_names_are_the_submodules_all():
    names = {"__version__"}
    for module in SUBMODULES:
        names |= set(importlib.import_module(f"flocksim.{module}").__all__)
    assert set(flocksim.__all__) == names


def test_metrics_fields_are_the_metrics_json_keys(make_scenario_file, tmp_path):
    log, metrics = run(load_scenario(make_scenario_file(duration_s=5.0)))
    export(log, metrics, tmp_path / "out")
    written = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert sorted(written) == sorted(f.name for f in dataclasses.fields(Metrics))
    assert written == metrics.as_dict()
