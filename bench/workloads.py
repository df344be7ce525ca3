"""The benchmark's workloads and the generator for its synthetic fleets.

Two workloads replay bundled scenario files; two are generated here from
the workload seed. The generator carries its own copy of the fleet recipe
(vehicles on a 2.74 km circle around a shared target, reference terrain,
default controller blocks) and does not import ``flocksim.presets``, so an
edit to the presets cannot shift a workload. It writes a YAML file and a
DEM, and the simulator sees only those files, through ``load_scenario``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import yaml

CRUISE_SPEED = 13.5
FLIGHT_HEIGHT = 110.0
CIRCLE_RADIUS = 2740.0

DEM_ORIGIN = -4200.0
DEM_CELL = 100.0
DEM_NODES = 85

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
BUNDLED = {
    "ref4": "scenarios/reference_4uav.yaml",
    "dropout4": "scenarios/reference_4uav_dropout.yaml",
}


def mission_seed(seed: int, k: int) -> int:
    """Master seed of mission ``k`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"bench/{int(seed)}/mission/{int(k)}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _digest(seed: int, *labels: object) -> bytes:
    return hashlib.sha256("/".join(str(x) for x in ("bench", int(seed), *labels)).encode()).digest()


def _unit(seed: int, *labels: object) -> float:
    """A number in [0, 1) that depends only on the seed and the labels."""
    return int.from_bytes(_digest(seed, *labels)[:8], "little") / 2.0**64


def _rng(seed: int, *labels: object) -> np.random.Generator:
    return np.random.default_rng(int.from_bytes(_digest(seed, *labels)[:16], "little"))


def dem_text() -> str:
    """The reference terrain: smooth analytic relief in [50, 90] m."""
    axis = DEM_ORIGIN + DEM_CELL * np.arange(DEM_NODES)
    nn, ee = np.meshgrid(axis, axis, indexing="ij")
    elev = 70.0 + 12.0 * np.sin(nn / 1100.0) * np.cos(ee / 900.0) + 8.0 * np.sin((nn + ee) / 1500.0)
    lines = [
        f"nrows {DEM_NODES}",
        f"ncols {DEM_NODES}",
        f"origin_north_m {DEM_ORIGIN!r}",
        f"origin_east_m {DEM_ORIGIN!r}",
        f"cell_size_m {DEM_CELL!r}",
    ]
    lines.extend(" ".join(repr(float(z)) for z in row) for row in elev)
    return "\n".join(lines) + "\n"


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
        "comm": {"r_com_m": 30000.0, "c_max": 2, "gamma_signal": gamma_signal, "dropout_schedule": []},
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


def _uav(uav_id: int, start: tuple[float, float], waypoints: list[tuple[float, float]]) -> dict:
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
            "v_g_mps": CRUISE_SPEED,
            "phi_rad": 0.0,
            "n_lf": 1.0,
        },
        "waypoints": [[float(n), float(e), FLIGHT_HEIGHT] for n, e in waypoints],
    }


def _polar(r: float, a: float) -> tuple[float, float]:
    return (r * math.cos(a), r * math.sin(a))


def _header(name: str, seed: int, k: int, gamma_signal: float) -> dict:
    doc: dict = {
        "name": name,
        "dem_file": "terrain.dem",
        "duration_s": 230.0,
        "dt_s": 1.0,
        "target": {"north_m": 0.0, "east_m": 0.0, "height_m": FLIGHT_HEIGHT},
    }
    doc.update(_common_blocks(mission_seed(seed, k), gamma_signal))
    return doc


def fleet104_dict(seed: int, k: int) -> dict:
    """Mission ``k``: 104 vehicles at random bearings on the circle, each with a dogleg mid waypoint."""
    # Close starts make the 1/d link strength hot; gamma is scaled to that
    # regime as in the bundled fleet scenarios.
    doc = _header("bench_fleet104", seed, k, gamma_signal=1.0e3)
    uavs = []
    for i in range(104):
        rng = _rng(seed, k, "fleet", i)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        jitter = rng.uniform(-math.radians(10.0), math.radians(10.0))
        mid = _polar(0.5 * CIRCLE_RADIUS, alpha + jitter)
        uavs.append(_uav(i, _polar(CIRCLE_RADIUS, alpha), [mid, (0.0, 0.0)]))
    doc["uavs"] = uavs
    return doc


def popup16_dict(seed: int, k: int) -> dict:
    """Mission ``k``: 16 vehicles in a +-10 degree sector, a cylinder pops up across every corridor.

    Each vehicle flies radially: a mid waypoint at 0.8 R on its own
    bearing, then the target. The 250 m cylinder sits at mid-radius on the
    sector's axis, where every radial corridor within 10 degrees passes
    less than 1370 m * sin(10 deg) = 238 m from its centre, and it appears
    at 30 s, while every vehicle is still outside it.

    Replanning cost depends on the terrain around the cylinder, so the
    sector axis steps by the golden angle from mission to mission: every
    run covers the compass evenly, whatever its seed, and its median does
    not hinge on a few lucky or unlucky axes.
    """
    doc = _header("bench_popup16", seed, k, gamma_signal=1.0e3)
    axis = 2.0 * math.pi * ((_unit(seed, "popup", "axis") + k * _GOLDEN) % 1.0)
    center = _polar(0.5 * CIRCLE_RADIUS, axis)
    doc["obstacle"] = {
        "center_north_m": center[0],
        "center_east_m": center[1],
        "lateral_radius_m": 250.0,
        "base_height_m": 0.0,
        "top_height_m": 250.0,
        "activation_time_s": 30.0,
    }
    uavs = []
    for i in range(16):
        alpha = axis + _rng(seed, k, "popup", i).uniform(-math.radians(10.0), math.radians(10.0))
        mid = _polar(0.8 * CIRCLE_RADIUS, alpha)
        uavs.append(_uav(i, _polar(CIRCLE_RADIUS, alpha), [mid, (0.0, 0.0)]))
    doc["uavs"] = uavs
    return doc


GENERATORS = {"fleet104": fleet104_dict, "popup16": popup16_dict}
WORKLOADS = (*BUNDLED, *GENERATORS)


def scenario_yaml(name: str, seed: int, k: int) -> str:
    return yaml.safe_dump(GENERATORS[name](seed, k), sort_keys=False, default_flow_style=None)


def prepare(name: str, seed: int, k: int, work_dir: Path) -> Path:
    """Scenario file of mission ``k``; a generated one is written to ``work_dir``.

    Mission k of a generated workload has its own geometry, so a run's
    median is taken over many layouts instead of resting on one.
    """
    if name in BUNDLED:
        return Path(BUNDLED[name])
    work_dir.mkdir(parents=True, exist_ok=True)
    dem = work_dir / "terrain.dem"
    if not dem.is_file():
        dem.write_text(dem_text())
    path = work_dir / f"{name}.yaml"
    path.write_text(scenario_yaml(name, seed, k))
    return path
