"""Waypoint pursuit: virtual-target management and look-ahead steering.

The vehicle chases the active waypoint of its path (the virtual target).
Reference course/climb angles point straight at that target; the look-ahead
angles are the wrapped differences between reference and current angles;
and the steering law turns those differences into roll and load-factor
setpoints through a sine feedback with hard saturation.

A separate, purely observational condition monitor reports whether the
finite-time convergence premises of the steering law hold at the current
tick.  Violations are logged by the harness, never acted on.

The fleet's paths live in one :class:`FleetPaths` table, which
:func:`advance_virtual_target` walks in place and the replanner's
detours are spliced into.  The walk, the reference angles, the steering
commands and the monitor take and return arrays with one element or
column per vehicle (see :mod:`flocksim.dynamics` for the block layout);
under ``_ARRAY_MIN_N`` vehicles the walk's headings and flag test and
the steering commands compute per vehicle on Python floats, with the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics
from .dynamics import GRAVITY, _clip, wrap_angle
from .geo import _path_length

__all__ = [
    "GuidanceParams",
    "FleetPaths",
    "DegenerateGeometryError",
    "advance_virtual_target",
    "reference_angles",
    "look_ahead_angles",
    "steering_rates",
    "guidance_commands",
    "convergence_conditions",
]


class DegenerateGeometryError(ValueError):
    """A bearing was requested between coincident points."""


@dataclass(frozen=True)
class GuidanceParams:
    """Steering gains (1/s), waypoint acceptance radius (m) and premise trust bounds (rad)."""

    k_chi: float = 8.8844
    k_gamma: float = 8.8844
    acceptance_radius: float = 40.0
    delta_lat: float = 0.5
    delta_lon: float = 0.5

    def __post_init__(self) -> None:
        if not (self.k_chi > 0.0 and self.k_gamma > 0.0):
            raise ValueError("guidance gains must be positive")
        if not self.acceptance_radius >= 0.0:
            raise ValueError("acceptance_radius must be >= 0")
        if not (0.0 <= self.delta_lat < math.pi / 2 and 0.0 <= self.delta_lon < math.pi / 2):
            raise ValueError("delta_lat/delta_lon must lie in [0, pi/2)")


class FleetPaths:
    """The fleet's waypoint paths and the active waypoint of each.

    ``waypoints[i]`` is vehicle i's (m_i, 3) array of [north, east,
    height] rows and ``cursor[i]`` the row of its active waypoint, the
    virtual target.  Read off those per vehicle and refreshed whenever a
    cursor or a path changes: ``active``, the (3, N) block of active
    waypoints; ``remaining``, the path length from the active waypoint
    through the last one; ``movable``, whether the active waypoint is not
    the last one.  The paths are taken as valid: at least two waypoints
    and no coincident consecutive pair (the loader checks the scenario's
    paths).  Each cursor starts at 0 unless given.
    """

    def __init__(self, waypoints: Sequence[np.ndarray], cursor: Sequence[int] | None = None) -> None:
        n = len(waypoints)
        self.waypoints = [np.asarray(w, dtype=float) for w in waypoints]
        self.cursor = np.zeros(n, dtype=int) if cursor is None else np.array(cursor, dtype=int)
        if not all(0 <= c < len(w) for c, w in zip(self.cursor.tolist(), self.waypoints)):
            raise ValueError(f"cursor {self.cursor.tolist()} out of range for the paths")
        self.active, self.remaining = np.empty((3, n)), np.empty(n)
        self.movable = np.empty(n, dtype=bool)
        for i in range(n):
            self._refresh(i)

    def _refresh(self, i: int) -> None:
        rows = self.waypoints[i][self.cursor[i]:].tolist()
        self.active[:, i] = rows[0]
        # The exported time indices depend on this summation order to the last bit.
        self.remaining[i] = _path_length(rows)
        self.movable[i] = len(rows) > 1

    def splice(self, i: int, detour: np.ndarray) -> None:
        """Insert the (k, 3) ``detour`` rows ahead of vehicle i's active waypoint.

        The cursor stays, so it points at the first detour waypoint; the
        previously active waypoint follows the detour, and the last
        waypoint never changes.
        """
        self.waypoints[i] = np.insert(self.waypoints[i], self.cursor[i], detour, axis=0)
        self._refresh(i)

    def offsets(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(3, N) offsets from the (6, N) state ``y`` to the active waypoints, and their (N,) distances."""
        offset = self.active - y[:3]
        # numpy's hypot differs from math's in the last bit for some inputs.
        return offset, np.array(list(map(math.hypot, *offset.tolist())))


def advance_virtual_target(
    paths: FleetPaths, y: np.ndarray, gp: GuidanceParams
) -> tuple[np.ndarray, np.ndarray]:
    """Move each vehicle's cursor past the waypoints it has reached, in place.

    ``y`` is the fleet's (6, N) kinematic block.  A movable vehicle's
    active waypoint is flagged when the vehicle is within
    ``gp.acceptance_radius`` of it or has it behind its velocity
    direction.  The walk: test the fleet, move each flagged cursor on by
    one, test again, until nothing is flagged; the last waypoint is never
    passed.  Returns the (3, N) offsets from each vehicle to its active
    waypoint and their (N,) distances, after the walk, as
    :meth:`FleetPaths.offsets` gives them.  Under ``_ARRAY_MIN_N``
    vehicles the headings (``_headings_floats``) and the flag test run on
    Python floats, with the same bits; an infinite angle, which ``math``
    rejects, takes the arrays.
    """
    radius = gp.acceptance_radius
    # Every angle goes through math before a cursor moves, so a rejected one moves none.
    try:
        heading = _headings_floats(y) if y.shape[1] < dynamics._ARRAY_MIN_N else None
    except ValueError:
        heading = None
    if heading is None:
        # numpy's cos and sin give math's bits.
        cos, sin = np.cos(y[3:5]), np.sin(y[3:5])
        u_n, u_e, u_h = cos[1] * cos[0], cos[1] * sin[0], sin[1]
    while True:
        offset = paths.active - y[:3]
        dn, de, dh = offset.tolist()
        distance = list(map(math.hypot, dn, de, dh))
        if heading is None:
            distance = np.array(distance)
            along = offset[0] * u_n + offset[1] * u_e + offset[2] * u_h
            flagged = (paths.movable & ((distance <= radius) | (along < 0.0))).nonzero()[0].tolist()
        else:
            flagged = [i for i, (o_n, o_e, o_h, d, (h_n, h_e, h_h), m) in enumerate(
                       zip(dn, de, dh, distance, heading, paths.movable.tolist()))
                       if m and (d <= radius or o_n * h_n + o_e * h_e + o_h * h_h < 0.0)]
        if not flagged:
            return offset, np.asarray(distance)
        for i in flagged:
            paths.cursor[i] += 1
            paths._refresh(i)


def _headings_floats(y: np.ndarray) -> list[tuple[float, float, float]]:
    """Each vehicle's unit velocity direction on Python floats; an infinite angle raises ``ValueError``."""
    cos, sin = math.cos, math.sin
    return [(cos(g) * cos(x), cos(g) * sin(x), sin(g)) for x, g in zip(*y[3:5].tolist())]


def reference_angles(offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N,) course and climb angles pointing straight along each column of ``offset``.

    ``offset`` is the (3, N) north, east and height offset from each
    vehicle to its target.  Full-quadrant: a target behind the vehicle
    yields |chi_c| > pi/2 rather than the wrapped-into-quadrant value a
    plain arctangent would give.  A zero column has no bearing and raises
    ``DegenerateGeometryError``.
    """
    dn, de, dh = offset.tolist()
    # numpy's arctan2 and hypot differ from math's in the last bit for some inputs.
    lateral = list(map(math.hypot, dn, de))
    if 0.0 in lateral and any(lat == 0.0 and h == 0.0 for lat, h in zip(lateral, dh)):
        raise DegenerateGeometryError("bearing undefined for a zero offset")
    return np.array(list(map(math.atan2, de, dn))), np.array(list(map(math.atan2, dh, lateral)))


def look_ahead_angles(chi, gamma, chi_c, gamma_c):
    """(eta_lat, eta_lon): angular error from course/climb to the reference angles.

    Elementwise; takes floats or arrays.
    """
    return wrap_angle(chi_c - chi), gamma_c - gamma


def steering_rates(eta_lat, eta_lon, k_chi: float, k_gamma: float):
    """Commanded course/climb rates (f_chi, f_gamma) before actuator mapping.

    Sine feedback: smooth, bounded, and with Jacobian -diag(k_chi, k_gamma)
    at the origin, so the symmetrized Jacobian is negative definite there.
    """
    return -k_chi * np.sin(eta_lat), -k_gamma * np.sin(eta_lon)


def guidance_commands(
    eta_lat: np.ndarray,
    eta_lon: np.ndarray,
    y: np.ndarray,
    act: np.ndarray,
    gp: GuidanceParams,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map look-ahead angles to (N,) roll and load-factor setpoints.

    ``y`` and ``act`` are the fleet's kinematic and actuator blocks, and
    ``lo``/``hi`` its actuator bounds.  The roll inverts the
    coordinated-turn relation for the commanded course rate, with the asin
    argument saturated to [-1, 1] (at practical gains the argument
    routinely exceeds 1; saturation is the only continuous completion).
    The load factor inverts the climb-rate relation at the commanded roll.
    Both outputs are clipped to the bounds.  Under ``_ARRAY_MIN_N``
    vehicles ``_commands_floats`` gives the same bits; an infinite angle,
    which ``math`` rejects, takes the array path.
    """
    if y.shape[1] < dynamics._ARRAY_MIN_N:
        try:
            return _commands_floats(eta_lat, eta_lon, y, act, gp, lo, hi)
        except ValueError:
            pass
    f_chi, f_gamma = steering_rates(eta_lat, eta_lon, gp.k_chi, gp.k_gamma)
    v_g = act[2]
    arg = _clip(v_g * np.cos(act[0]) / GRAVITY * f_chi, -1.0, 1.0)
    # numpy's arcsin differs from math.asin in the last bit for some inputs.
    phi_c = _clip(np.array([-math.asin(a) for a in arg.tolist()]), lo[0], hi[0])
    n_lf_c = (GRAVITY * np.cos(y[4]) - v_g * f_gamma) / (GRAVITY * np.cos(phi_c))
    return phi_c, _clip(n_lf_c, lo[1], hi[1])


def _commands_floats(eta_lat: np.ndarray, eta_lon: np.ndarray, y: np.ndarray, act: np.ndarray,
                     gp: GuidanceParams, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``guidance_commands`` one vehicle at a time, on Python floats.

    Each clip is ``min(max(x, lo), hi)`` as two conditional expressions,
    which keep NaN and signed zeros as ``_clip`` does.
    """
    sin, cos, asin = math.sin, math.cos, math.asin
    k_chi, k_gamma = -gp.k_chi, -gp.k_gamma
    phi_lo, n_lo, _ = lo.tolist()
    phi_hi, n_hi, _ = hi.tolist()
    phi_out, n_out = [], []
    for lat, lon, gamma, phi, v_g, p_lo, p_hi, l_lo, l_hi in zip(
            eta_lat.tolist(), eta_lon.tolist(), y[4].tolist(), act[0].tolist(), act[2].tolist(),
            phi_lo, phi_hi, n_lo, n_hi):
        f_chi, f_gamma = k_chi * sin(lat), k_gamma * sin(lon)
        arg = v_g * cos(phi) / GRAVITY * f_chi
        arg = -1.0 if -1.0 > arg else arg
        phi_c = -asin(1.0 if 1.0 < arg else arg)
        phi_c = p_lo if p_lo > phi_c else phi_c
        phi_c = p_hi if p_hi < phi_c else phi_c
        n_lf_c = (GRAVITY * cos(gamma) - v_g * f_gamma) / (GRAVITY * cos(phi_c))
        n_lf_c = l_lo if l_lo > n_lf_c else n_lf_c
        phi_out.append(phi_c)
        n_out.append(l_hi if l_hi < n_lf_c else n_lf_c)
    return np.array(phi_out), np.array(n_out)


def convergence_conditions(
    eta_lat: np.ndarray,
    eta_lon: np.ndarray,
    y: np.ndarray,
    target_height: np.ndarray,
    gp: GuidanceParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the finite-time convergence premises at the current tick.

    Returns (N,) arrays ``lat_ok``, ``lon_ok`` and ``sign_ok``: both
    look-ahead angles inside their trust bounds, and the climb direction
    not diverging from the target height (gamma and the height error may
    not have the same sign).  The premises guarantee finite-time
    convergence only while all three flags hold.  Observational only; the
    harness logs violations and control proceeds regardless.

    The law's closure-speed premise, V_g cos(delta_lon) cos(delta_lat) >
    V_t with V_t = 0 for a virtual target that is a fixed waypoint, is not
    checked here: the loader's checks make it hold at every vehicle-tick.
    ``UavLimits`` requires ``v_g_min > 0``, the loader requires each
    initial V_g >= ``v_g_min`` (and the autopilot clips V_g there), and
    ``GuidanceParams`` requires both trust bounds in [0, pi/2).
    """
    return (
        np.abs(eta_lat) <= gp.delta_lat,
        np.abs(eta_lon) <= gp.delta_lon,
        y[4] * (y[2] - target_height) <= 0.0,
    )
