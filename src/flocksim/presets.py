"""Bundled scenario builders.

The reference mission puts four vehicles on cardinal approaches to a
shared rendezvous with deliberately unequal path lengths (about 65 s of
initial time-index spread at the shared cruise speed), gusty wind, and a
pop-up cylinder that activates across vehicle 0's corridor at 75 s.  The
cylinder sits 45 m east of the corridor axis: still well inside its own
90 m radius, so the leg is obstructed, but the detour basin is one-sided
instead of splitting symmetrically around the disc.
A fleet builder places N vehicles on a 2.74 km circle with randomized
bearings, doglegs, and initial speeds for scale tests.

All builders emit plain scenario dictionaries ready for YAML; `write_*`
helpers put files on disk so `load_scenario` remains the single
validation path.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .geo import DemGrid, save_dem
from .seeding import derive_rng

__all__ = [
    "reference_elevation",
    "make_reference_dem",
    "alternating_blackout",
    "reference_scenario_dict",
    "fleet_scenario_dict",
    "write_scenario",
    "write_bundle",
    "CRUISE_SPEED",
    "FLIGHT_HEIGHT",
    "CIRCLE_RADIUS",
]

CRUISE_SPEED = 13.5
FLIGHT_HEIGHT = 110.0
CIRCLE_RADIUS = 2740.0

_DEM_CELL = 100.0
_DEM_NODES = 85
_DEM_ORIGIN = -4200.0


def reference_elevation(north, east):
    """Smooth analytic terrain in [50, 90] m over the test footprint."""
    north = np.asarray(north, dtype=float)
    east = np.asarray(east, dtype=float)
    return (
        70.0
        + 12.0 * np.sin(north / 1100.0) * np.cos(east / 900.0)
        + 8.0 * np.sin((north + east) / 1500.0)
    )


def make_reference_dem() -> DemGrid:
    axis = _DEM_ORIGIN + _DEM_CELL * np.arange(_DEM_NODES)
    nn, ee = np.meshgrid(axis, axis, indexing="ij")
    return DemGrid(
        origin_north=_DEM_ORIGIN,
        origin_east=_DEM_ORIGIN,
        cell_size=_DEM_CELL,
        elevation=reference_elevation(nn, ee),
    )


def alternating_blackout(duration_s: float, n_uavs: int) -> list[list[float]]:
    """Dropout rows silencing every link during alternating windows.

    Within each 10 s block the second 5 s are blacked out for all pairs,
    so the fleet repeatedly loses and regains the whole network.
    """
    rows: list[list[float]] = []
    start = 5.0
    while start < duration_s:
        end = min(start + 5.0, duration_s)
        for a in range(n_uavs):
            for b in range(a + 1, n_uavs):
                rows.append([float(start), float(end), a, b])
        start += 10.0
    return rows


def _common_blocks(master_seed: int, gamma_signal: float) -> dict:
    return {
        "guidance": {
            "k_chi": 8.8844,
            "k_gamma": 8.8844,
            "acceptance_radius_m": 40.0,
            "delta_lat_rad": 0.5,
            "delta_lon_rad": 0.5,
        },
        "coordination": {"k_theta": 1.0, "gamma_d": 1.0, "k_vg": 0.001},
        "comm": {
            "r_com_m": 30000.0,
            "c_max": 2,
            "gamma_signal": gamma_signal,
            "dropout_schedule": [],
        },
        "replan": {
            "k_samples": 2000,
            "delta_r_m": 300.0,
            "delta_h_m": 60.0,
            "delta_angle_rad": math.pi / 3,
            "clearance_m": 10.0,
            "terrain_step_m": 25.0,
            "max_iterations": 20,
        },
        "autopilot": {"tau_phi_s": 0.5, "tau_n_s": 0.5, "tau_v_s": 2.0, "tau_psi_s": 1.0},
        "wind": {
            "ambient_mps": [2.5, 0.0, 0.0],
            "sigma_u_mps": 2.12,
            "sigma_v_mps": 2.12,
            "sigma_w_mps": 1.4,
            "length_u_m": 200.0,
            "length_v_m": 200.0,
            "length_w_m": 50.0,
            "airspeed_nominal_mps": CRUISE_SPEED,
            "d_max_radps": 0.1,
        },
        "limits": {
            "v_g_min_mps": 9.0,
            "v_g_max_mps": 18.0,
            "phi_min_rad": -0.6,
            "phi_max_rad": 0.6,
            "n_lf_min": 0.0,
            "n_lf_max": 2.1,
            "eta_lat_min_rad": -1.5,
            "eta_lat_max_rad": 1.5,
            "eta_lon_min_rad": -1.5,
            "eta_lon_max_rad": 1.5,
        },
        "master_seed": master_seed,
    }


def _uav_entry(uav_id: int, start, waypoints, v_g: float = CRUISE_SPEED) -> dict:
    chi = math.atan2(waypoints[0][1] - start[1], waypoints[0][0] - start[0])
    return {
        "id": uav_id,
        "initial": {
            "north_m": float(start[0]),
            "east_m": float(start[1]),
            "height_m": FLIGHT_HEIGHT,
            "chi_rad": chi,
            "gamma_rad": 0.0,
            "psi_rad": chi,
            "v_g_mps": float(v_g),
            "phi_rad": 0.0,
            "n_lf": 1.0,
        },
        "waypoints": [[float(n), float(e), FLIGHT_HEIGHT] for n, e in waypoints],
    }


def reference_scenario_dict(with_dropouts: bool = False) -> dict:
    """Four-vehicle rendezvous with a pop-up obstacle on vehicle 0's leg.

    Path lengths 2735 / 3010.5 / 3348 / 3618 m at a shared 13.5 m/s start
    give time indices of about 202.6 / 223 / 248 / 268 s, a 65 s initial
    spread, with joint arrival near t=265 on a 270 s horizon.
    """
    duration = 270.0
    doc: dict = {
        "name": "reference_4uav_dropout" if with_dropouts else "reference_4uav",
        "dem_file": "terrain.dem",
        "duration_s": duration,
        "dt_s": 1.0,
        "target": {"north_m": 0.0, "east_m": 0.0, "height_m": FLIGHT_HEIGHT},
    }
    doc.update(_common_blocks(master_seed=20260819, gamma_signal=5.0e4))
    if with_dropouts:
        doc["comm"]["dropout_schedule"] = alternating_blackout(duration, 4)
    doc["obstacle"] = {
        "center_north_m": -1585.0,
        "center_east_m": 45.0,
        "lateral_radius_m": 90.0,
        "base_height_m": 0.0,
        "top_height_m": 250.0,
        "activation_time_s": 75.0,
    }
    doc["uavs"] = [
        _uav_entry(
            0,
            (-2735.0, 0.0),
            [(-2135.0, 0.0), (-1135.0, 0.0), (-535.0, 0.0), (0.0, 0.0)],
        ),
        _uav_entry(
            1,
            (0.0, 3010.5),
            [(0.0, 2300.0), (0.0, 1500.0), (0.0, 700.0), (0.0, 0.0)],
        ),
        _uav_entry(
            2,
            (3348.0, 0.0),
            [(2600.0, 0.0), (1800.0, 0.0), (900.0, 0.0), (0.0, 0.0)],
        ),
        _uav_entry(
            3,
            (0.0, -3618.0),
            [(0.0, -2800.0), (0.0, -2000.0), (0.0, -1100.0), (0.0, 0.0)],
        ),
    ]
    return doc


def fleet_scenario_dict(n_uavs: int, master_seed: int = 7) -> dict:
    """N vehicles on a 2.74 km circle with randomized approaches.

    Each vehicle gets a random bearing on the circle and a mid waypoint
    with a small angular dogleg, drawn from per-vehicle streams of
    ``master_seed``.  All start at the shared cruise speed, so the
    time-index spread stays small and consensus only has to hold it.
    """
    if n_uavs < 2:
        raise ValueError(f"fleet scenario needs at least 2 vehicles, got {n_uavs}")
    doc: dict = {
        "name": f"fleet_{n_uavs:02d}",
        "dem_file": "terrain.dem",
        "duration_s": 230.0,
        "dt_s": 1.0,
        "target": {"north_m": 0.0, "east_m": 0.0, "height_m": FLIGHT_HEIGHT},
    }
    # Vehicles on the same circle can start a few hundred meters apart, so
    # the link strength gamma/d is orders of magnitude hotter than in the
    # cardinal-approach mission; a strong gamma makes the speed loop
    # bang-bang between the rails. Scale it to the close-range regime.
    doc.update(_common_blocks(master_seed, gamma_signal=1.0e3))
    uavs = []
    for i in range(n_uavs):
        rng = derive_rng(master_seed, i, "start")
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        jitter = rng.uniform(-math.radians(10.0), math.radians(10.0))
        start = (CIRCLE_RADIUS * math.cos(alpha), CIRCLE_RADIUS * math.sin(alpha))
        mid_r = 0.5 * CIRCLE_RADIUS
        mid = (mid_r * math.cos(alpha + jitter), mid_r * math.sin(alpha + jitter))
        uavs.append(_uav_entry(i, start, [mid, (0.0, 0.0)]))
    doc["uavs"] = uavs
    return doc


def write_scenario(doc: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None))
    return path


def write_bundle(out_dir: str | Path) -> list[Path]:
    """Write the terrain raster and every bundled scenario to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dem_path = out / "terrain.dem"
    save_dem(make_reference_dem(), dem_path)
    written = [dem_path]
    written.append(write_scenario(reference_scenario_dict(), out / "reference_4uav.yaml"))
    written.append(
        write_scenario(
            reference_scenario_dict(with_dropouts=True), out / "reference_4uav_dropout.yaml"
        )
    )
    for n in (4, 7, 10, 13):
        written.append(write_scenario(fleet_scenario_dict(n), out / f"fleet_{n:02d}.yaml"))
    return written
