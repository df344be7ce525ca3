"""Scenario loading, the fleet tick loop, metrics, and run export.

A scenario is one YAML file naming a terrain raster, a shared target, a
fleet of vehicles with waypoint paths, and the controller parameters.
Each tick ``run`` walks the fleet's virtual targets and replans around an
active obstacle, then makes one ``comm_step`` (time indices, reference
angles, consensus rate and speed command) and one ``control_step``
(steering commands, premise monitor, autopilot, wind and RK4).  Time
indices reach their receivers one tick later, so no vehicle ever acts on
a peer's current-tick value.

Everything downstream of a (scenario, master seed) pair is deterministic;
exports are byte-stable and the wall-clock timings that cannot be stable
are quarantined in a separate timing file.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import itertools
import json
import math
import operator
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator, get_type_hints

import numpy as np
import orjson
import yaml

from . import __version__ as _VERSION
from .coordination import CoordinationGains, consensus_rate, speed_command, time_index
from .dynamics import (
    AutopilotParams,
    UavLimits,
    UavState,
    WindParams,
    _FleetWind,
    actuator_bounds,
    fleet_arrays,
    step_autopilot,
    step_kinematics,
)
from .geo import (DemFormatError, DemGrid, Obstacle, Point3, _path_length, _read_dem, _read_once, distance3,
                  segment_obstructed)
from .guidance import (
    FleetPaths,
    GuidanceParams,
    advance_virtual_target,
    convergence_conditions,
    guidance_commands,
    look_ahead_angles,
    reference_angles,
)
from .network import CommConfig, DropoutWindow, build_topology, deliver
from .replanner import ReplanError, ReplanParams, replan
from .seeding import derive_seed

__all__ = [
    "ScenarioError",
    "RunError",
    "LOG_COLUMNS",
    "ReplanEvent",
    "RunLog",
    "Metrics",
    "load_scenario",
    "run",
    "comm_step",
    "control_step",
    "compute_metrics",
    "export",
]

# Below this distance (m) to its active waypoint a vehicle has no bearing
# and keeps its course and climb.
_COINCIDENT_EPS = 1e-9

# Export files that carry wall-clock measurements. Replay verification
# compares every exported file except these.
WALL_CLOCK_FILES = ("timing.json",)

# The columns of RunLog.data, one row per vehicle and tick. The first ten
# are the trajectory CSV's values after tick and t_s, in CSV order; the
# last three are the flags of convergence_conditions, as 0/1.
LOG_COLUMNS = ("north", "east", "height", "chi", "gamma", "phi", "n_lf", "v_g", "theta", "cursor",
               "psi", "phi_cmd", "n_lf_cmd", "v_g_cmd", "eta_lat", "eta_lon", "theta_dot",
               "lat_ok", "lon_ok", "sign_ok")
_PREMISES = slice(LOG_COLUMNS.index("lat_ok"), len(LOG_COLUMNS))

_TRAJECTORY_COLUMNS = (
    "tick",
    "t_s",
    "p_north_m",
    "p_east_m",
    "height_m",
    "chi_rad",
    "gamma_rad",
    "phi_rad",
    "n_lf",
    "v_g_mps",
    "theta_s",
    "cursor",
)

_EVENT_COLUMNS = ("event", "tick", "t_s", "uav_id", "detail")


class ScenarioError(ValueError):
    """A scenario file failed structural or semantic validation."""


class RunError(RuntimeError):
    """A run aborted; the message carries tick and vehicle context."""


@dataclass(frozen=True, eq=False)
class UavSpec:
    """One vehicle of a scenario; ``waypoints`` is its (m, 3) path, last row at the target."""

    uav_id: int
    initial: UavState
    limits: UavLimits
    waypoints: np.ndarray


@dataclass
class Scenario:
    """A fully validated simulation configuration."""

    dem: DemGrid
    uavs: list[UavSpec]
    target: Point3
    comm: CommConfig
    coordination: CoordinationGains
    guidance: GuidanceParams
    replan: ReplanParams
    autopilot: AutopilotParams
    wind: WindParams
    master_seed: int
    duration: float
    dt: float
    obstacle: Obstacle | None = None
    name: str = ""
    source_path: str | None = None
    source_sha256: str = ""
    dem_sha256: str = ""


@dataclass(frozen=True)
class ReplanEvent:
    tick: int
    uav_id: int
    waypoints: tuple[Point3, ...]
    overhead: float
    wall_ms: float


@dataclass(frozen=True)
class ReplanFailure:
    tick: int
    uav_id: int
    reason: str


@dataclass(eq=False)
class RunLog:
    """Complete per-tick history of one run.

    ``data[tick, uav_id]`` holds that vehicle's ``LOG_COLUMNS`` at that
    tick, whose time is ``tick * dt``.
    """

    n_uavs: int
    dt: float
    n_ticks: int
    data: np.ndarray = field(init=False, repr=False)
    replan_events: list[ReplanEvent] = field(default_factory=list)
    replan_failures: list[ReplanFailure] = field(default_factory=list)
    scenario_path: str = "<memory>"
    scenario_sha256: str = ""
    dem_sha256: str = ""
    master_seed: int = 0
    wall_s: float = 0.0

    def __post_init__(self) -> None:
        self.data = np.zeros((self.n_ticks, self.n_uavs, len(LOG_COLUMNS)))

    def positions(self, uav_id: int) -> np.ndarray:
        """(n_ticks, 3) view of [north, east, height] for one vehicle."""
        return self.data[:, uav_id, :3]

    def thetas(self) -> np.ndarray:
        """(n_ticks, n_uavs) view of the time indices."""
        return self.data[:, :, LOG_COLUMNS.index("theta")]

    def premise_violations(self) -> np.ndarray:
        """(n_ticks, n_uavs) mask of the vehicle-ticks where a convergence premise failed.

        A premise fails unless all three flags hold.
        """
        lat_ok, lon_ok, sign_ok = np.moveaxis(self.data[:, :, _PREMISES], 2, 0)
        return ~((lat_ok != 0.0) & (lon_ok != 0.0) & (sign_ok != 0.0))


@dataclass
class Metrics:
    """Fleet-level summary of one run (all values >= 0).

    Each field is named as its key in ``metrics.json``.
    """

    ae_mean_m: float
    rmse_mean_m: float
    md_max_s: float
    md_final_s: float
    detour_overhead_s: float
    per_uav_ae_m: list[float]
    n_replan_events: int
    n_replan_failures: int
    n_premise_violations: int

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Scenario loading

# The YAML keys of each param class. A key is its field's name, with a unit
# suffix (_m, _s, _rad, _mps or _radps) appended where the quantity has a
# unit and the name does not already end in one. The default and the
# int/float type of each key come from its field, read as a parameter of the
# class's constructor (a dataclass or a named tuple); a field without a
# default is a required key. Fields the loader fills itself
# (CommConfig.dropout_schedule, WindParams.ambient, UavState.position) are
# not listed. ``_fields`` reads a section by this table, and ``_node``
# writes one for ``presets``.
_KEYS: dict[type, tuple[str, ...]] = {
    Point3: ("north_m", "east_m", "height_m"),
    GuidanceParams: ("k_chi", "k_gamma", "acceptance_radius_m", "delta_lat_rad", "delta_lon_rad"),
    CoordinationGains: ("k_theta", "gamma_d", "k_vg"),
    CommConfig: ("r_com_m", "c_max", "gamma_signal"),
    DropoutWindow: ("start_s", "end_s", "uav_a", "uav_b"),
    ReplanParams: ("k_samples", "delta_r_m", "delta_h_m", "delta_angle_rad", "clearance_m",
                   "terrain_step_m", "max_iterations"),
    AutopilotParams: ("tau_phi_s", "tau_n_s", "tau_v_s", "tau_psi_s"),
    WindParams: ("sigma_u_mps", "sigma_v_mps", "sigma_w_mps", "length_u_m", "length_v_m",
                 "length_w_m", "airspeed_nominal_mps", "d_max_radps"),
    Obstacle: ("center_north_m", "center_east_m", "lateral_radius_m", "base_height_m",
               "top_height_m", "activation_time_s"),
    UavLimits: ("v_g_min_mps", "v_g_max_mps", "phi_min_rad", "phi_max_rad", "n_lf_min", "n_lf_max",
                "eta_lat_min_rad", "eta_lat_max_rad", "eta_lon_min_rad", "eta_lon_max_rad"),
    UavState: ("chi_rad", "gamma_rad", "psi_rad", "v_g_mps", "phi_rad", "n_lf"),
}
_ROOT_KEYS = ("name", "dem_file", "duration_s", "dt_s", "master_seed", "target", "guidance",
              "coordination", "comm", "replan", "autopilot", "wind", "obstacle", "limits", "uavs")
_UAV_KEYS = ("id", "initial", "limits", "waypoints")

# A number with an unsigned exponent, which YAML 1.1 (PyYAML) reads as a
# string: sign, digits before and after the point, exponent.
_UNSIGNED_EXPONENT = re.compile(r"([-+]?)(?=\.?\d)(\d*)\.?(\d*)[eE](\d+)")

# libyaml's parser when PyYAML was built with it: it builds the same
# documents as the pure-Python SafeLoader, about eight times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# No array above this many bytes can be addressed, so the loader refuses a
# run log or a replan sample block that ``run`` could never allocate.
_MAX_ARRAY_BYTES = 2**47


def _expect_mapping(node: Any, ctx: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{ctx}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, ctx: str, known: tuple[str, ...]) -> None:
    # Called after the known keys are read, so their errors come first.
    for key in node:
        if key not in known:
            raise ScenarioError(f"{ctx}: unknown key {key!r}")


def _get(node: dict, key: str, ctx: str) -> Any:
    if key not in node:
        raise ScenarioError(f"{ctx}: missing required field '{key}'")
    return node[key]


# No default: the marker ``inspect.signature`` gives a required parameter.
_ABSENT = inspect.Parameter.empty
# A number beyond this magnitude (or NaN) is not a finite float.
_FLOAT_MAX = sys.float_info.max


def _value(node: dict, key: str, ctx: str, default: Any = _ABSENT, integer: bool = False) -> Any:
    """``node[key]`` as a finite float, or as an int when ``integer``."""
    if (value := node.get(key, _ABSENT)) is _ABSENT:
        if default is _ABSENT:
            raise ScenarioError(f"{ctx}: missing required field '{key}'")
        return default
    if integer:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{ctx}.{key}: expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str) and (m := _UNSIGNED_EXPONENT.fullmatch(value)):
            sign, whole, fraction, exponent = m.groups()
            hint = (f" (YAML reads an exponent without a sign as text;"
                    f" write {sign}{whole or 0}.{fraction or 0}e+{exponent})")
        raise ScenarioError(f"{ctx}.{key}: expected a number, got {value!r}{hint}")
    if not abs(value) <= _FLOAT_MAX:  # NaN, inf, or an int too large for a float
        raise ScenarioError(f"{ctx}.{key}: must be finite, got {value!r}")
    return float(value)


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(key, field name, default, is-int) for each key of ``cls``, read once per class."""
    by_name = inspect.signature(cls).parameters
    # Resolved types: under postponed evaluation a signature's annotation is
    # a string for a dataclass and a ForwardRef for a named tuple.
    types = get_type_hints(cls)
    rows = []
    for key in _KEYS[cls]:
        f = by_name.get(key) or by_name[key.rpartition("_")[0]]
        rows.append((key, f.name, f.default, types[f.name] is int))
    return tuple(rows)


def _node(obj: Any) -> dict[str, Any]:
    """The mapping ``_fields`` reads ``obj``'s fields back from, keyed in ``_KEYS`` order.

    The fields the loader fills itself are not in it.
    """
    return {key: getattr(obj, name) for key, name, _, _ in _schema(type(obj))}


def _fields(cls: type, node: Any, ctx: str, other_keys: tuple[str, ...] = ()) -> dict[str, Any]:
    """The field values of ``cls``, read from the mapping ``node`` by its ``_KEYS`` row.

    ``other_keys`` names the keys of ``node`` that the loader reads
    elsewhere. Any other key is unknown.
    """
    node = _expect_mapping(node, ctx)
    values = {name: _value(node, key, ctx, default, integer) for key, name, default, integer in _schema(cls)}
    _reject_unknown(node, ctx, _KEYS[cls] + other_keys)
    return values


def _section(cls: type, node: Any, ctx: str, other_keys: tuple[str, ...] = (), **extra: Any) -> Any:
    """Build ``cls`` from ``node`` as read by ``_fields``.

    ``extra`` holds the fields the loader fills itself.
    """
    values = _fields(cls, node, ctx, other_keys)
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _tick_count(duration: float, dt: float) -> int:
    """The ticks ``run`` makes of a ``duration``-second scenario at step ``dt``.

    The loader admits only a ratio within 1e-9 (relative) of a whole number.
    """
    return int(round(duration / dt))


def _row(row: Any, keys: tuple[str, ...], ctx: str) -> dict[str, Any]:
    """The list ``row`` as a mapping from ``keys``, for ``_value`` to read."""
    if not isinstance(row, (list, tuple)) or len(row) != len(keys):
        raise ScenarioError(f"{ctx}: expected [{', '.join(keys)}], got {row!r}")
    return dict(zip(keys, row))


def _parse_yaml(data: bytes, path: Path) -> Any:
    """The YAML document in scenario file bytes ``data``; errors name ``path``.

    ``geo._read_once`` keeps the document: the loader only reads it, and no
    ``Scenario`` holds a mutable part of it.
    """
    try:
        return yaml.load(data.decode(), Loader=_YAML_LOADER)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file.

    Every structural problem (missing field, unknown key, wrong type) and
    semantic problem (limit ordering, a path of fewer than two waypoints
    or with two coincident consecutive ones, waypoint outside the terrain
    footprint, final waypoint not at the target, dropout window naming a
    vehicle outside the fleet, a run log or replan sample block too large
    for ``run`` to allocate) raises
    :class:`ScenarioError` naming the offending field. Omitted optional
    keys take the defaults of the param dataclasses, and every number, in
    a list row too, is read by one rule.

    ``source_sha256`` is the sha256 of the file's bytes. The file and its
    terrain are read as ``geo._read_once`` reads them: bytes equal to the
    last it parsed as YAML, or as a DEM, at any path, are not parsed
    again, so scenarios over identical DEM bytes share one immutable grid.
    Every field is still validated on each call, and each call returns a
    new ``Scenario``.
    """
    path = Path(path)
    root, source_sha256 = _read_once(path, _parse_yaml, ScenarioError, "scenario")
    root = _expect_mapping(root, str(path))

    dem_rel = _get(root, "dem_file", "scenario")
    if not isinstance(dem_rel, str):
        raise ScenarioError(f"scenario.dem_file: expected a path string, got {dem_rel!r}")
    try:
        dem, dem_sha256 = _read_dem((path.parent / dem_rel).resolve())
    except DemFormatError as exc:
        raise ScenarioError(f"scenario.dem_file: {exc}") from exc

    duration = _value(root, "duration_s", "scenario")
    dt = _value(root, "dt_s", "scenario")
    if not dt > 0.0:
        raise ScenarioError(f"scenario.dt_s: must be positive, got {dt}")
    if not duration >= 0.0:
        raise ScenarioError(f"scenario.duration_s: must be >= 0, got {duration}")
    master_seed = _value(root, "master_seed", "scenario", integer=True)

    target = _section(Point3, _get(root, "target", "scenario"), "scenario.target")
    if not dem.contains(target.north, target.east):
        raise ScenarioError("scenario.target: outside the terrain footprint")

    guidance = _section(GuidanceParams, root.get("guidance", {}), "scenario.guidance")
    coordination = _section(CoordinationGains, root.get("coordination", {}), "scenario.coordination")

    m_node = _expect_mapping(root.get("comm", {}), "scenario.comm")
    rows = m_node.get("dropout_schedule", [])
    if not isinstance(rows, list):
        raise ScenarioError("scenario.comm.dropout_schedule: expected a list")
    windows = []
    for k, row in enumerate(rows):
        ctx = f"scenario.comm.dropout_schedule[{k}]"
        windows.append(_section(DropoutWindow, _row(row, _KEYS[DropoutWindow], ctx), ctx))
    comm = _section(CommConfig, m_node, "scenario.comm", other_keys=("dropout_schedule",),
                    dropout_schedule=tuple(windows))

    replan_params = _section(ReplanParams, root.get("replan", {}), "scenario.replan")
    autopilot = _section(AutopilotParams, root.get("autopilot", {}), "scenario.autopilot")

    w_node = _expect_mapping(root.get("wind", {}), "scenario.wind")
    ambient = {}
    if "ambient_mps" in w_node:
        ctx = "scenario.wind.ambient_mps"
        axes = _row(w_node["ambient_mps"], ("north", "east", "up"), ctx)
        ambient["ambient"] = tuple(_value(axes, a, ctx) for a in axes)
    wind = _section(WindParams, w_node, "scenario.wind", other_keys=("ambient_mps",), **ambient)

    obstacle = None
    if root.get("obstacle") is not None:
        obstacle = _section(Obstacle, root["obstacle"], "scenario.obstacle")

    # The root block is merged into each vehicle's block, so its keys and
    # values are checked here and its min < max orderings once merged.
    default_limits_node = root.get("limits", {})
    _fields(UavLimits, default_limits_node, "scenario.limits")

    uav_rows = _get(root, "uavs", "scenario")
    if not isinstance(uav_rows, list) or not uav_rows:
        raise ScenarioError("scenario.uavs: expected a non-empty list")
    uavs: list[UavSpec] = []
    for k, row in enumerate(uav_rows):
        ctx = f"scenario.uavs[{k}]"
        row = _expect_mapping(row, ctx)
        uav_id = _value(row, "id", ctx, integer=True)
        if uav_id != k:
            raise ScenarioError(f"{ctx}.id: ids must be contiguous from 0, expected {k} got {uav_id}")

        merged = dict(default_limits_node)
        merged.update(_expect_mapping(row.get("limits", {}), f"{ctx}.limits"))
        limits = _section(UavLimits, merged, f"{ctx}.limits")

        init_ctx = f"{ctx}.initial"
        init_node = _expect_mapping(_get(row, "initial", ctx), init_ctx)
        initial = _section(
            UavState,
            # UavState.gamma has no default; a vehicle starts level unless told otherwise.
            {"gamma_rad": 0.0, **init_node},
            init_ctx,
            other_keys=_KEYS[Point3],
            position=_section(Point3, init_node, init_ctx, other_keys=_KEYS[UavState]),
        )
        for value, lo, hi, name in (
            (initial.v_g, limits.v_g_min, limits.v_g_max, "v_g_mps"),
            (initial.phi, limits.phi_min, limits.phi_max, "phi_rad"),
            (initial.n_lf, limits.n_lf_min, limits.n_lf_max, "n_lf"),
        ):
            if not lo <= value <= hi:
                raise ScenarioError(f"{ctx}.initial.{name}: {value} outside limits [{lo}, {hi}]")
        if not -math.pi / 2 < initial.gamma < math.pi / 2:
            raise ScenarioError(f"{ctx}.initial.gamma_rad: must lie in (-pi/2, pi/2)")
        if not dem.contains(initial.position.north, initial.position.east):
            raise ScenarioError(f"{ctx}.initial: position outside the terrain footprint")

        wp_rows = _get(row, "waypoints", ctx)
        if not isinstance(wp_rows, list):
            raise ScenarioError(f"{ctx}.waypoints: expected a list of [n, e, h] rows")
        waypoints = []
        for j, wp in enumerate(wp_rows):
            wp_ctx = f"{ctx}.waypoints[{j}]"
            wp = _row(wp, _KEYS[Point3], wp_ctx)
            waypoints.append(Point3(*[_value(wp, key, wp_ctx) for key in wp]))
        if len(waypoints) < 2:
            raise ScenarioError(f"{ctx}.waypoints: path needs at least 2 waypoints, got {len(waypoints)}")
        for j in range(len(waypoints) - 1):
            if waypoints[j] == waypoints[j + 1]:
                raise ScenarioError(
                    f"{ctx}.waypoints: consecutive waypoints {j} and {j + 1} coincide: {waypoints[j]}"
                )
        for j, wp in enumerate(waypoints):
            if not dem.contains(wp.north, wp.east):
                raise ScenarioError(f"{ctx}.waypoints[{j}]: outside the terrain footprint")
        if waypoints[-1] != target:
            raise ScenarioError(
                f"{ctx}.waypoints: final waypoint {waypoints[-1]} must equal the shared target {target}"
            )
        _reject_unknown(row, ctx, _UAV_KEYS)
        uavs.append(UavSpec(uav_id=uav_id, initial=initial, limits=limits,
                            waypoints=np.array(waypoints)))

    for k, w in enumerate(comm.dropout_schedule):
        if not (0 <= w.uav_a < len(uavs) and 0 <= w.uav_b < len(uavs)):
            raise ScenarioError(
                f"scenario.comm.dropout_schedule[{k}]: vehicles {w.uav_a} and {w.uav_b} must both lie in"
                f" [0, {len(uavs)})"
            )

    # duration / dt is tested first: its rounding overflows when it is infinite.
    if (duration / dt > _MAX_ARRAY_BYTES
            or _tick_count(duration, dt) * len(uavs) * len(LOG_COLUMNS) * 8 > _MAX_ARRAY_BYTES):
        raise ScenarioError(f"scenario.duration_s: the run log of {duration} s at dt_s {dt} for {len(uavs)}"
                            f" vehicles exceeds {_MAX_ARRAY_BYTES} bytes")
    # run makes _tick_count steps, so any other duration would be cut or stretched.
    if abs(duration / dt - _tick_count(duration, dt)) > 1e-9 * (duration / dt):
        raise ScenarioError(f"scenario.duration_s: {duration} s is not a whole number of dt_s {dt} s steps")
    if replan_params.k_samples * 3 * 8 > _MAX_ARRAY_BYTES:
        raise ScenarioError(f"scenario.replan.k_samples: a ({replan_params.k_samples}, 3) sample block"
                            f" exceeds {_MAX_ARRAY_BYTES} bytes")

    name = root.get("name", Scenario.name)
    if not isinstance(name, str):
        raise ScenarioError(f"scenario.name: expected a string, got {name!r}")
    _reject_unknown(root, "scenario", _ROOT_KEYS)

    return Scenario(
        dem=dem,
        uavs=uavs,
        target=target,
        comm=comm,
        coordination=coordination,
        guidance=guidance,
        replan=replan_params,
        autopilot=autopilot,
        wind=wind,
        master_seed=master_seed,
        duration=duration,
        dt=dt,
        obstacle=obstacle,
        name=name,
        source_path=str(path),
        source_sha256=source_sha256,
        dem_sha256=dem_sha256,
    )


# ---------------------------------------------------------------------------
# The tick loop


def comm_step(paths: FleetPaths, offset: np.ndarray, distance: np.ndarray, y: np.ndarray, act: np.ndarray,
              received: np.ndarray, strength: np.ndarray, gains: CoordinationGains,
              lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """One comm step of the fleet: (N,) theta, chi_c, gamma_c, theta_dot and v_cmd.

    ``offset`` and ``distance`` lead to the active waypoints of ``paths``;
    a vehicle within 1e-9 m of its own keeps its course and climb.  No
    step enters: the speed command looks a fixed second ahead.
    """
    theta = time_index(distance, paths.remaining, act[2])
    if distance.min() >= _COINCIDENT_EPS:
        chi_c, gamma_c = reference_angles(offset)
    else:
        far = distance >= _COINCIDENT_EPS
        chi_c, gamma_c = y[3].copy(), y[4].copy()
        chi_c[far], gamma_c[far] = reference_angles(offset[:, far])
    theta_dot = consensus_rate(theta, received, strength, gains)
    return theta, chi_c, gamma_c, theta_dot, speed_command(theta, theta_dot, act[2], gains, lo, hi)


def control_step(y: np.ndarray, act: np.ndarray, chi_c: np.ndarray, gamma_c: np.ndarray, v_cmd: np.ndarray,
                 target_height: np.ndarray, wind: _FleetWind, lo: np.ndarray, hi: np.ndarray, dt: float,
                 gp: GuidanceParams, ap: AutopilotParams) -> tuple[Any, ...]:
    """One control step of the fleet: ``(y, act, cmd, (eta_lat, eta_lon), premises)``.

    Look-ahead, steering commands (the (3, N) ``cmd``, ``v_cmd`` its last
    row), the premise monitor, the autopilot, the fleet's (2, N) gust block
    from ``wind``, then RK4 on the autopilot's output: the next ``y``, ``act``.
    """
    eta_lat, eta_lon = look_ahead_angles(y[3], y[4], chi_c, gamma_c)
    phi_c, n_lf_c = guidance_commands(eta_lat, eta_lon, y, act, gp, lo, hi)
    premises = convergence_conditions(eta_lat, eta_lon, y, target_height, gp)
    cmd = np.array((phi_c, n_lf_c, v_cmd))
    act = step_autopilot(act, cmd, lo, hi, dt, ap)
    y = step_kinematics(y, act, wind.sample(dt), dt, ap)
    return y, act, cmd, (eta_lat, eta_lon), premises


def _replan_obstructed(scenario: Scenario, log: RunLog, paths: FleetPaths, y: np.ndarray, act: np.ndarray,
                       tick: int, t: float, replan_counts: list[int]) -> bool:
    """Splice a detour into each path that the obstacle blocks, logging each replan; True if one was spliced."""
    positions, actives = y[:3].T.tolist(), paths.active.T.tolist()
    spliced = False
    for i in range(len(positions)):
        if not segment_obstructed(positions[i], actives[i], scenario.obstacle, t):
            continue
        wall0 = time.perf_counter()
        event_seed = derive_seed(scenario.master_seed, i, "replan", replan_counts[i])
        replan_counts[i] += 1
        pos, active = Point3(*positions[i]), Point3(*actives[i])
        chi, gamma, psi = y[3:, i].tolist()
        phi, n_lf, v_g = act[:, i].tolist()
        state = UavState(pos, chi, gamma, psi, v_g, phi, n_lf)
        try:
            detour = replan(state, active, scenario.obstacle, scenario.dem, scenario.replan, event_seed, t)
        except ReplanError as exc:
            # No acceptable detour from this pose. Keep flying the
            # current path and retry on later ticks; the failure is
            # surfaced in the event log rather than killing the run.
            log.replan_failures.append(ReplanFailure(tick=tick, uav_id=i, reason=str(exc)))
            continue
        wall_ms = (time.perf_counter() - wall0) * 1e3
        # replan repeats the obstruction test above, so it returns at
        # least one waypoint here.
        detour_len = _path_length([positions[i], *detour.tolist(), actives[i]])
        overhead = (detour_len - distance3(positions[i], actives[i])) / v_g
        paths.splice(i, detour)
        spliced = True
        waypoints = tuple(Point3(*row) for row in detour.tolist())
        log.replan_events.append(ReplanEvent(tick=tick, uav_id=i, waypoints=waypoints, overhead=overhead,
                                             wall_ms=wall_ms))
    return spliced


def run(scenario: Scenario) -> tuple[RunLog, Metrics]:
    """Execute the scenario and return its full log plus fleet metrics.

    Per tick, on the tick-t state: the virtual-target walk, the replans
    while the obstacle is active, ``comm_step`` on last tick's deliveries,
    ``control_step`` to tick t + 1, the log row, and the delivery of the
    tick-t time indices over the tick-t topology.  An allocation that
    fails raises ``RunError`` naming the run log's shape or the tick.
    """
    t_start = time.perf_counter()
    n = len(scenario.uavs)
    dt = scenario.dt
    n_ticks = _tick_count(scenario.duration, dt)
    gains = scenario.coordination
    gp = scenario.guidance
    ap = scenario.autopilot

    y, act = fleet_arrays([spec.initial for spec in scenario.uavs])
    lo, hi = actuator_bounds([spec.limits for spec in scenario.uavs])
    paths = FleetPaths([spec.waypoints for spec in scenario.uavs])
    wind = _FleetWind(scenario.wind, [derive_seed(scenario.master_seed, spec.uav_id, "wind") for spec in scenario.uavs])
    # Tick 0 has received nothing: one slot of strength 0 per vehicle.
    received = strength = np.zeros((n, 1))
    replan_counts = [0] * n

    try:
        log = RunLog(n_uavs=n, dt=dt, n_ticks=n_ticks, scenario_path=scenario.source_path or "<memory>",
                     scenario_sha256=scenario.source_sha256, dem_sha256=scenario.dem_sha256,
                     master_seed=scenario.master_seed)
    except MemoryError as exc:
        raise RunError(f"cannot allocate the run log of shape {(n_ticks, n, len(LOG_COLUMNS))}: {exc}") from exc
    try:
        for tick in range(n_ticks):
            t = tick * dt
            offset, distance = advance_virtual_target(paths, y, gp)
            # comm_step reads the cursors and active waypoints that the walk and
            # the replans leave, so a test can splice any detour in between.
            if scenario.obstacle is not None and scenario.obstacle.is_active(t) and _replan_obstructed(
                scenario, log, paths, y, act, tick, t, replan_counts
            ):
                offset, distance = paths.offsets(y)
            theta, chi_c, gamma_c, theta_dot, v_cmd = comm_step(
                paths, offset, distance, y, act, received, strength, gains, lo, hi
            )
            y_next, act_next, cmd, eta, premises = control_step(
                y, act, chi_c, gamma_c, v_cmd, paths.active[2], wind, lo, hi, dt, gp, ap
            )

            row = log.data[tick].T
            row[:5] = y[:5]
            row[5:8] = act
            row[8:10] = (theta, paths.cursor)
            row[10] = y[5]
            row[11:14] = cmd
            row[14:17] = (*eta, theta_dot)
            row[_PREMISES] = premises

            graph = build_topology(y[:3], scenario.comm, t)
            received, strength = deliver(theta, graph), graph.strength

            y, act = y_next, act_next
            # A non-finite speed makes that vehicle's position non-finite in the
            # same step, so the (6, N) block alone names the first bad vehicle.
            if not np.isfinite(y).all():
                i = int(np.argmin(np.isfinite(y).all(axis=0)))
                values = dict(zip(("north", "east", "height", "chi", "gamma", "psi", "v_g"),
                                  [*y[:, i].tolist(), float(act[2, i])]))
                raise RunError(f"tick {tick}, uav {i}: state became non-finite: {values}")
    except MemoryError as exc:
        raise RunError(f"tick {tick}: cannot allocate: {exc}") from exc

    log.wall_s = time.perf_counter() - t_start
    return log, compute_metrics(log, scenario)


# ---------------------------------------------------------------------------
# Metrics


def compute_metrics(log: RunLog, scenario: Scenario) -> Metrics:
    """Closest-approach error statistics, time-index agreement and replan totals.

    For each vehicle and each waypoint of its original path, the error is
    taken at the tick of closest 3D approach over the whole run.  The AE
    is the mean error norm over waypoints, averaged over vehicles; the
    RMSE spreads the norms about the norm of the mean error vector with
    an n-1 denominator.  MD is the worst pairwise time-index gap, both
    over the whole run and at the final tick.  The final tick ends the
    scenario's ``duration_s``, which the bundled scenarios set past the
    vehicles' closest approach to the target, so ``md_final_s`` is the
    time-index spread after arrival, not at it, and does not measure
    how far apart the vehicles arrived.  ``detour_overhead_s`` adds the
    replans' overheads in event order, left to right from 0.0.
    """
    n = len(scenario.uavs)
    if log.n_ticks == 0:
        return Metrics(
            ae_mean_m=0.0,
            rmse_mean_m=0.0,
            md_max_s=0.0,
            md_final_s=0.0,
            detour_overhead_s=0.0,
            per_uav_ae_m=[0.0] * n,
            n_replan_events=0,
            n_replan_failures=0,
            n_premise_violations=0,
        )

    per_uav_ae: list[float] = []
    per_uav_rmse: list[float] = []
    for spec in scenario.uavs:
        traj = log.positions(spec.uav_id)
        d = np.linalg.norm(traj[:, None, :] - spec.waypoints, axis=2)
        err = spec.waypoints - traj[d.argmin(axis=0)]
        norms = np.linalg.norm(err, axis=1)
        per_uav_ae.append(float(np.mean(norms)))
        mean_norm = float(np.linalg.norm(np.mean(err, axis=0)))
        per_uav_rmse.append(float(np.sqrt(np.sum((norms - mean_norm) ** 2) / (len(norms) - 1))))

    thetas = log.thetas()
    spread = thetas.max(axis=1) - thetas.min(axis=1)
    md = float(spread.max())
    md_final = float(spread[-1])

    overhead = functools.reduce(operator.add, [e.overhead for e in log.replan_events], 0.0)

    return Metrics(
        ae_mean_m=float(np.mean(per_uav_ae)),
        rmse_mean_m=float(np.mean(per_uav_rmse)),
        md_max_s=md,
        md_final_s=md_final,
        detour_overhead_s=overhead,
        per_uav_ae_m=per_uav_ae,
        n_replan_events=len(log.replan_events),
        n_replan_failures=len(log.replan_failures),
        n_premise_violations=int(np.count_nonzero(log.premise_violations())),
    )


# ---------------------------------------------------------------------------
# Export


# The detail cell of a premise row and its line end: json.dumps(sort_keys=True)
# of its three flags, quoted as csv.writer quotes it.  Index
# 4 * lat_ok + 2 * lon_ok + sign_ok.
_PREMISE_DETAILS = tuple(
    '"{}"\n'.format(json.dumps({"lat_ok": lat, "lon_ok": lon, "sign_ok": sign}, sort_keys=True).replace('"', '""'))
    for lat, lon, sign in itertools.product((False, True), repeat=3)
)

# Vehicle-ticks per block of events.csv premise rows.  Export formats and
# writes one block at a time, so the memory it adds is bounded by the block,
# not by the number of rows.
_EVENT_BLOCK = 1024


def _orjson_band(values: np.ndarray) -> np.ndarray:
    """Mask of the floats in ``values`` that orjson spells as ``repr`` does.

    orjson writes the shortest round-trip digits, as ``repr`` does, and
    spells them as ``repr`` does for ±0 and for magnitudes in [1e-4, 1e16).
    Other values (smaller or larger magnitudes, NaN and the infinities)
    are outside the band.
    """
    mag = np.abs(values)
    return (mag >= 1e-4) & (mag < 1e16) | (mag == 0.0)


def _repr_rows(block: np.ndarray) -> list[str]:
    """One string per row of the (T, k) float ``block``: the comma-joined ``repr`` of its cells.

    The rows are orjson's text; a row with any cell outside ``_orjson_band``
    is written by ``repr``.
    """
    if not len(block):
        return []
    text = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = text[2:-2].decode().split("],[")  # b"[[a,b],[c,d]]" -> ["a,b", "c,d"]
    for i in np.flatnonzero(~_orjson_band(block).all(axis=1)).tolist():
        rows[i] = ",".join(map(repr, block[i].tolist()))
    return rows


@contextlib.contextmanager
def _open_in_place(fp: Path, mode: str) -> Iterator[IO[Any]]:
    """``fp`` opened with ``mode`` (``"wb"`` or ``"w"``) to be rewritten from its start.

    The file is never cut to length zero: on a file that holds data, ext4
    makes ``O_TRUNC`` cost more than overwriting the same blocks.  When the
    block ends, the file is cut at the last position written, which drops
    the tail of a longer earlier file.
    """
    with open(os.open(fp, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), mode) as f:
        yield f
        f.truncate()


def export(log: RunLog, metrics: Metrics, out_dir: str | Path) -> list[Path]:
    """Write the run to ``out_dir``; returns the files written.

    Per-vehicle trajectory CSVs, an event CSV (replans and premise
    violations), metrics JSON, and a manifest tying the run to the sha256
    of its scenario file's bytes (``scenario_sha256``) and of its DEM
    file's bytes, and to its seed.  All of
    those are byte-stable for a fixed (scenario, DEM, seed).  Wall-clock
    timings go to timing.json, which replay verification ignores.

    A float cell of a CSV is Python's ``repr`` of the value: the shortest
    text that reads back to the same double, and ``nan``, ``inf`` or
    ``-inf`` when it is not finite.  ``tick`` and ``uav_id`` are integers,
    and ``cursor`` is its logged value truncated toward zero.  A
    trajectory CSV's nine float cells per row come from one
    ``orjson.dumps`` call per vehicle, whose text equals ``repr`` for ±0
    and magnitudes in [1e-4, 1e16); a row holding any other value is
    written by ``repr`` itself.

    Every row of ``events.csv`` has one form: event, tick, ``t_s``,
    ``uav_id`` and a ``detail`` cell that is ``json.dumps(...,
    sort_keys=True)`` of the event's fields: a replan's detour
    ``waypoints`` and ``overhead_s``, a failed replan's ``reason``, a
    premise violation's three flags (booleans ``true``/``false``,
    non-finite floats ``NaN``, ``Infinity`` and ``-Infinity``, points as
    [north, east, height] lists), double-quoted with inner quotes doubled,
    as ``csv.writer`` quotes a field that holds a quote.  A premise row's
    cell is one of eight constant strings, chosen by its flags.
    Event rows are sorted by (tick, uav_id, event).
    ``events.csv`` is written through one open file, a fixed block of
    vehicle-ticks' premise rows at a time, so the memory export adds does
    not grow with the number of rows.

    Export into a used directory rewrites each file it names in place and
    then cuts it to its new length, never to length zero first.  It
    deletes nothing: the ``uav_XX.csv`` files of an earlier, larger fleet
    in ``out_dir`` stay as they were.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RunError(f"cannot create output directory {out}: {exc}") from exc

    written: list[Path] = []
    header = ",".join(_TRAJECTORY_COLUMNS) + "\n"
    # A file's text is one join of one list, reused across vehicles: the
    # header, then per tick its "tick,t_s," prefix (made once for the fleet),
    # the row's floats, ",", the cursor (int() truncates it) and "\n".  One
    # join per file sizes its text once: a %-format over the rows grows its
    # buffer as it goes, which left glibc's heap fragmented in a long process
    # (+3.7 MB peak RSS after a few 104-vehicle missions).
    prefixes = [f"{tick},{tick * log.dt!r}," for tick in range(log.n_ticks)]
    parts = [header] + ["", "", ",", "", "\n"] * log.n_ticks
    parts[1::5] = prefixes
    for uav_id in range(log.n_uavs):
        parts[2::5] = _repr_rows(log.data[:, uav_id, :9])
        parts[4::5] = map(str, map(int, log.data[:, uav_id, 9].tolist()))
        text = "".join(parts).encode()
        fp = out / f"uav_{uav_id:02d}.csv"
        with _open_in_place(fp, "wb") as f:
            f.write(text)
        written.append(fp)

    # Replan rows are few: sort them once on (tick, uav_id, event), then
    # merge each into the block of premise rows that holds its vehicle-tick,
    # after that vehicle-tick's premise row ("premise_violation" sorts
    # before both replan names).
    rows = [("replan", e.tick, e.uav_id, {"waypoints": e.waypoints, "overhead_s": e.overhead})
            for e in log.replan_events]
    rows += [("replan_failed", f.tick, f.uav_id, {"reason": f.reason}) for f in log.replan_failures]
    replans: list[tuple[int, int, str, str]] = []
    for event, tick, uav_id, detail in rows:
        quoted = json.dumps(detail, sort_keys=True).replace('"', '""')
        replans.append((tick, uav_id, event, f'{event},{prefixes[tick]}{uav_id},"{quoted}"\n'))
    replans.sort(key=operator.itemgetter(0, 1, 2))
    replan_at = [tick * log.n_uavs + uav_id for tick, uav_id, _, _ in replans]

    # Premise rows in flat (tick, uav_id) order, one block at a time.
    violations = log.premise_violations().ravel()
    fp = out / "events.csv"
    with _open_in_place(fp, "w") as events:
        events.write(",".join(_EVENT_COLUMNS) + "\n")
        r = 0
        for start in range(0, violations.size, _EVENT_BLOCK):
            at = np.flatnonzero(violations[start:start + _EVENT_BLOCK]) + start
            ticks, uav_ids = np.divmod(at, log.n_uavs)
            flags = ((log.data[ticks, uav_ids, _PREMISES] != 0.0) @ (4, 2, 1)).tolist()
            lines = [
                f"premise_violation,{prefixes[tick]}{uav_id},{_PREMISE_DETAILS[d]}"
                for tick, uav_id, d in zip(ticks.tolist(), uav_ids.tolist(), flags)
            ]
            end = bisect.bisect_left(replan_at, start + _EVENT_BLOCK, r)
            # Last first, so that each insert leaves the earlier positions valid.
            for k in range(end - 1, r - 1, -1):
                lines.insert(np.searchsorted(at, replan_at[k], side="right"), replans[k][3])
            r = end
            events.write("".join(lines))
    written.append(fp)

    manifest = {
        "scenario_path": log.scenario_path,
        "scenario_sha256": log.scenario_sha256,
        "dem_sha256": log.dem_sha256,
        "master_seed": log.master_seed,
        "n_uavs": log.n_uavs,
        "n_ticks": log.n_ticks,
        "dt_s": log.dt,
        "software_version": _VERSION,
    }
    timing = {"run_wall_s": log.wall_s, "replan_wall_ms": [e.wall_ms for e in log.replan_events]}
    for name, doc in (("metrics.json", metrics.as_dict()), ("manifest.json", manifest), ("timing.json", timing)):
        fp = out / name
        with _open_in_place(fp, "w") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(fp)
    return written
