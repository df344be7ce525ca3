"""Waypoint pursuit: virtual-target management and look-ahead steering.

The vehicle chases the active waypoint of its path (the virtual target).
Reference course/climb angles point straight at that target; the look-ahead
angles are the wrapped differences between reference and current angles;
and the steering law turns those differences into roll and load-factor
setpoints through a sine feedback with hard saturation.

A separate, purely observational condition monitor reports whether the
finite-time convergence premises of the steering law hold at the current
tick.  Violations are logged by the harness, never acted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .dynamics import GRAVITY, UavLimits, UavState, wrap_angle
from .geo import Point3, distance3

__all__ = [
    "GuidanceParams",
    "WaypointPath",
    "LookAheadAngles",
    "PathErrors",
    "ConditionReport",
    "DegenerateGeometryError",
    "advance_virtual_target",
    "reference_angles",
    "look_ahead_angles",
    "steering_rates",
    "guidance_commands",
    "convergence_conditions",
    "path_errors",
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


@dataclass(frozen=True)
class WaypointPath:
    """An ordered waypoint list with a cursor marking the active target."""

    waypoints: tuple[Point3, ...]
    cursor: int = 0
    acceptance_radius: float = 40.0

    def __post_init__(self) -> None:
        pts = tuple(self.waypoints)
        object.__setattr__(self, "waypoints", pts)
        if len(pts) < 2:
            raise ValueError(f"path needs at least 2 waypoints, got {len(pts)}")
        for k in range(len(pts) - 1):
            if pts[k] == pts[k + 1]:
                raise ValueError(f"consecutive waypoints {k} and {k + 1} coincide: {pts[k]}")
        if not 0 <= self.cursor < len(pts):
            raise ValueError(f"cursor {self.cursor} out of range for {len(pts)} waypoints")
        if not self.acceptance_radius >= 0.0:
            raise ValueError(f"acceptance_radius must be >= 0, got {self.acceptance_radius}")

    @property
    def active(self) -> Point3:
        """The current virtual target."""
        return self.waypoints[self.cursor]

    @property
    def terminus(self) -> Point3:
        return self.waypoints[-1]

    def remaining_length(self) -> float:
        """Polyline length from the active waypoint through the terminus."""
        total = 0.0
        for k in range(self.cursor, len(self.waypoints) - 1):
            total += distance3(self.waypoints[k], self.waypoints[k + 1])
        return total

    def splice(self, detour: Sequence[Point3]) -> "WaypointPath":
        """Insert detour waypoints ahead of the active one.

        The previously active waypoint is retained after the detour, so the
        terminus never changes; the cursor points at the first detour
        waypoint.
        """
        detour = tuple(detour)
        if not detour:
            return self
        pts = self.waypoints[: self.cursor] + detour + self.waypoints[self.cursor:]
        return WaypointPath(pts, cursor=self.cursor, acceptance_radius=self.acceptance_radius)


@dataclass(frozen=True)
class LookAheadAngles:
    """Angular offsets from current course/climb to the reference angles."""

    eta_lat: float
    eta_lon: float


@dataclass(frozen=True)
class PathErrors:
    """Componentwise position error target - vehicle (meters)."""

    e_north: float
    e_east: float
    e_height: float


@dataclass(frozen=True)
class ConditionReport:
    """Convergence-premise check for one tick.

    ``margin`` is V_g cos(delta_lon) cos(delta_lat): the worst-case
    closure speed toward the target.  The target's own speed bound is
    zero, since the virtual target is a fixed waypoint.  The premises
    guarantee finite-time convergence only while all three booleans hold
    and the margin is positive.
    """

    lat_ok: bool
    lon_ok: bool
    sign_ok: bool
    margin: float

    @property
    def all_ok(self) -> bool:
        return self.lat_ok and self.lon_ok and self.sign_ok and self.margin > 0.0


def _bearing_elevation(a: Point3, b: Point3) -> tuple[float, float]:
    dn = b.north - a.north
    de = b.east - a.east
    dh = b.height - a.height
    lateral = math.hypot(dn, de)
    if lateral == 0.0 and dh == 0.0:
        raise DegenerateGeometryError(f"bearing undefined between coincident points {a}")
    return math.atan2(de, dn), math.atan2(dh, lateral)


def advance_virtual_target(path: WaypointPath, state: UavState) -> WaypointPath:
    """Advance the cursor past reached or overflown waypoints.

    A waypoint is dropped once the vehicle is within the acceptance radius
    or the waypoint falls behind the velocity direction; the final waypoint
    is never dropped.  Idempotent for an unchanged state.
    """
    mu = state.velocity_unit()
    pos = state.position
    cursor = path.cursor
    last = len(path.waypoints) - 1
    while cursor < last:
        wp = path.waypoints[cursor]
        reached = distance3(pos, wp) <= path.acceptance_radius
        rel = (wp.north - pos.north, wp.east - pos.east, wp.height - pos.height)
        behind = rel[0] * mu[0] + rel[1] * mu[1] + rel[2] * mu[2] < 0.0
        if reached or behind:
            cursor += 1
        else:
            break
    if cursor == path.cursor:
        return path
    return replace(path, cursor=cursor)


def reference_angles(state: UavState, target: Point3) -> tuple[float, float]:
    """Course and climb angles pointing straight at ``target``.

    Full-quadrant: a target behind the vehicle yields |chi_c| > pi/2 rather
    than the wrapped-into-quadrant value a plain arctangent would give.
    """
    return _bearing_elevation(state.position, target)


def look_ahead_angles(state: UavState, chi_c: float, gamma_c: float) -> LookAheadAngles:
    """Angular error from current course/climb to the reference angles."""
    return LookAheadAngles(
        eta_lat=wrap_angle(chi_c - state.chi),
        eta_lon=gamma_c - state.gamma,
    )


def steering_rates(angles: LookAheadAngles, k_chi: float, k_gamma: float) -> tuple[float, float]:
    """Commanded course/climb rates (f_chi, f_gamma) before actuator mapping.

    Sine feedback: smooth, bounded, and with Jacobian -diag(k_chi, k_gamma)
    at the origin, so the symmetrized Jacobian is negative definite there.
    """
    return -k_chi * math.sin(angles.eta_lat), -k_gamma * math.sin(angles.eta_lon)


def guidance_commands(
    state: UavState, angles: LookAheadAngles, gp: GuidanceParams, limits: UavLimits
) -> tuple[float, float]:
    """Map look-ahead angles to a roll and load-factor setpoint.

    The roll inverts the coordinated-turn relation for the commanded course
    rate, with the asin argument saturated to [-1, 1] (at practical gains
    the argument routinely exceeds 1; saturation is the only continuous
    completion).  The load factor inverts the climb-rate relation at the
    commanded roll.  Both outputs are clipped to ``limits``.
    """
    f_chi, f_gamma = steering_rates(angles, gp.k_chi, gp.k_gamma)
    arg = state.v_g * math.cos(state.phi) / GRAVITY * f_chi
    phi_c = -math.asin(min(max(arg, -1.0), 1.0))
    phi_c = min(max(phi_c, limits.phi_min), limits.phi_max)
    n_lf_c = (GRAVITY * math.cos(state.gamma) - state.v_g * f_gamma) / (
        GRAVITY * math.cos(phi_c)
    )
    n_lf_c = min(max(n_lf_c, limits.n_lf_min), limits.n_lf_max)
    return phi_c, n_lf_c


def convergence_conditions(
    angles: LookAheadAngles, state: UavState, target: Point3, gp: GuidanceParams
) -> ConditionReport:
    """Check the finite-time convergence premises at the current tick.

    Premises: both look-ahead angles inside their trust bounds, and the
    climb direction not diverging from the target height (gamma and the
    height error may not have the same sign).  Observational only; the
    harness logs violations and control proceeds regardless.
    """
    return ConditionReport(
        lat_ok=abs(angles.eta_lat) <= gp.delta_lat,
        lon_ok=abs(angles.eta_lon) <= gp.delta_lon,
        sign_ok=state.gamma * (state.position.height - target.height) <= 0.0,
        margin=state.v_g * math.cos(gp.delta_lon) * math.cos(gp.delta_lat),
    )


def path_errors(state: UavState, target: Point3) -> PathErrors:
    """Componentwise position error target - vehicle."""
    return PathErrors(
        e_north=target.north - state.position.north,
        e_east=target.east - state.position.east,
        e_height=target.height - state.position.height,
    )
