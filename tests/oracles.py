"""Brute-force oracles shared between test modules.

Everything here recomputes results from first principles with explicit
trigonometry so the tests never compare the implementation against
itself; only the geometric primitives (segment queries) are shared.

The scalar flight oracles (``wrap_oracle`` through ``WindOracle``) are the
one-vehicle-at-a-time forms of the fleet step, written with ``math`` on
Python floats in the library's operation order, so the fleet arrays must
equal them bit for bit.  ``deliver_oracle``, ``consensus_oracle`` and
``speed_oracle`` are the same for the time-index exchange: one inbox of
(strength, theta_j) pairs per receiver, in sender order; and
``time_index_oracle`` and ``reference_angles_oracle`` for the control
inputs that ``run`` computes for the fleet each tick, with
``advance_oracle`` for the virtual-target advance.  ``two_leg_cost``,
``region_contains`` and ``grid_cost_oracle`` are the replanner's: the
cost of one candidate, membership in the candidate region, and the
constrained cost minimum over a lattice.  ``trajectory_csv_oracle`` and
``events_csv_oracle`` build the export's CSV text one row at a time, with
``repr``, ``json.dumps`` and ``csv.writer``.
"""

import csv
import io
import json
import logging
import math
from dataclasses import replace

import numpy as np

from flocksim import (
    LOG_COLUMNS,
    DegenerateGeometryError,
    Point3,
    dem_elevation,
    segment_above_terrain,
    segment_obstructed,
)

_network_log = logging.getLogger("flocksim.network")


def two_leg_cost(uav, point, target):
    """Scalar transit cost, written independently of the library path."""
    pos = uav.position
    dn1, de1, dh1 = point.north - pos.north, point.east - pos.east, point.height - pos.height
    lat1 = math.hypot(dn1, de1)
    chi1 = math.atan2(de1, dn1)
    gamma1 = math.atan2(dh1, lat1)
    eta = [
        _wrap(chi1 - uav.chi),
        gamma1 - uav.gamma,
    ]
    dn2, de2, dh2 = target.north - point.north, target.east - point.east, target.height - point.height
    lat2 = math.hypot(dn2, de2)
    eta += [
        _wrap(math.atan2(de2, dn2) - chi1),
        math.atan2(dh2, lat2) - gamma1,
    ]
    if any(abs(e) >= math.pi / 2 for e in eta):
        return math.inf
    d1 = math.sqrt(lat1**2 + dh1**2)
    d2 = math.sqrt(lat2**2 + dh2**2)
    return d1 / (math.cos(eta[1]) * math.cos(eta[0])) + d2 / (math.cos(eta[3]) * math.cos(eta[2]))


def region_contains(uav, obstacle, grid, params, p):
    """Membership of ``p`` in the candidate region of ``uav``: forward cone, lateral ring, height band.

    The cone is ``params.delta_angle`` about the vehicle's velocity, the
    ring runs from the obstacle's radius out by ``params.delta_r``, and
    the band is ``params.delta_h`` deep above the terrain under the
    vehicle; all boundaries are inclusive, and the vehicle's own position
    is outside.
    """
    pos = uav.position
    rel = (p.north - pos.north, p.east - pos.east, p.height - pos.height)
    norm = math.sqrt(rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2)
    if norm == 0.0:
        return False
    cg = math.cos(uav.gamma)
    mu = (cg * math.cos(uav.chi), cg * math.sin(uav.chi), math.sin(uav.gamma))
    cos_angle = (rel[0] * mu[0] + rel[1] * mu[1] + rel[2] * mu[2]) / norm
    if math.acos(min(max(cos_angle, -1.0), 1.0)) > params.delta_angle:
        return False
    r_bar = obstacle.lateral_radius
    lateral = math.hypot(p.north - obstacle.center_north, p.east - obstacle.center_east)
    if not r_bar <= lateral <= r_bar + params.delta_r:
        return False
    floor = dem_elevation(grid, pos.north, pos.east)
    return floor <= p.height <= floor + params.delta_h


def grid_cost_oracle(uav, target, obstacle, grid, now, params, n_points=100_000):
    """Constrained minimum of the two-leg cost over a deterministic lattice.

    Independent of the sampler and of the library's cost: the candidate
    region of ``params`` (ring around ``obstacle``, height band over the
    terrain under the vehicle, forward cone) is swept on an angle x
    radius x height lattice, membership in the forward cone and the
    transit cost are both evaluated with explicit trigonometry here, and
    candidates are accepted under the same leg rules the minimizer applies
    (inbound leg clear of the obstacle and terrain, terminal leg
    terrain-checked when it would end the replan).
    """
    clearance, terrain_step = params.clearance, params.terrain_step
    r_bar = obstacle.lateral_radius
    floor = dem_elevation(grid, uav.position.north, uav.position.east)
    n_angle, n_radius, n_height = 100, 40, 25
    assert n_angle * n_radius * n_height == n_points
    angles = np.linspace(-math.pi, math.pi, n_angle, endpoint=False)
    radii = np.linspace(r_bar, r_bar + params.delta_r, n_radius)
    heights = np.linspace(floor, floor + params.delta_h, n_height)
    ang, rad, hgt = np.meshgrid(angles, radii, heights, indexing="ij")

    pn = obstacle.center_north + rad.ravel() * np.cos(ang.ravel())
    pe = obstacle.center_east + rad.ravel() * np.sin(ang.ravel())
    ph = hgt.ravel()

    pos = uav.position
    dn1, de1, dh1 = pn - pos.north, pe - pos.east, ph - pos.height
    lat1 = np.hypot(dn1, de1)
    norm1 = np.sqrt(lat1**2 + dh1**2)
    cg = math.cos(uav.gamma)
    mu = (cg * math.cos(uav.chi), cg * math.sin(uav.chi), math.sin(uav.gamma))
    cos_cone = (dn1 * mu[0] + de1 * mu[1] + dh1 * mu[2]) / np.where(norm1 > 0, norm1, np.inf)
    in_cone = np.arccos(np.clip(cos_cone, -1.0, 1.0)) <= params.delta_angle

    chi1 = np.arctan2(de1, dn1)
    gamma1 = np.arctan2(dh1, lat1)
    eta1_lat = _wrap_vec(chi1 - uav.chi)
    eta1_lon = gamma1 - uav.gamma
    dn2, de2, dh2 = target.north - pn, target.east - pe, target.height - ph
    lat2 = np.hypot(dn2, de2)
    norm2 = np.sqrt(lat2**2 + dh2**2)
    eta2_lat = _wrap_vec(np.arctan2(de2, dn2) - chi1)
    eta2_lon = np.arctan2(dh2, lat2) - gamma1

    cost = norm1 / (np.cos(eta1_lon) * np.cos(eta1_lat)) + norm2 / (
        np.cos(eta2_lon) * np.cos(eta2_lat)
    )
    bad = ~in_cone
    for eta in (eta1_lat, eta1_lon, eta2_lat, eta2_lon):
        bad |= np.abs(eta) >= math.pi / 2
    cost = np.where(bad, np.inf, cost)

    for idx in np.argsort(cost, kind="stable"):
        if not math.isfinite(cost[idx]):
            break
        point = Point3(float(pn[idx]), float(pe[idx]), float(ph[idx]))
        if segment_obstructed(pos, point, obstacle, now):
            continue
        if not segment_above_terrain(grid, pos, point, clearance, terrain_step):
            continue
        terminal = not segment_obstructed(point, target, obstacle, now)
        if terminal and not segment_above_terrain(grid, point, target, clearance, terrain_step):
            continue
        return float(cost[idx])
    raise AssertionError("grid oracle found no acceptable lattice point")


def topology_oracle(positions, config, tick, dt=1.0):
    """Scalar per-pair topology: every pair, every dropout window, every tick.

    ``positions`` is the (3, N) north, east, height block.  The admission
    rule written out in full: a peer in range (``d <= r_com``) whose link
    no active window ``[start_s, end_s)`` names in either order is admitted
    with strength ``gamma / d`` (inf when coincident); each list is sorted
    by (-strength, peer), cut at ``c_max`` and returned as (peer, strength)
    pairs in ascending peer order.  Warnings for pairs closer than 1 m go
    to the ``flocksim.network`` logger in (i, j) order, as the library
    emits them.
    """
    points = [Point3(*column) for column in np.asarray(positions).T.tolist()]
    n = len(points)
    if n < 1:
        raise ValueError("need at least one position")
    now = tick * dt
    neighbors = []
    for i in range(n):
        admitted = []
        for j in range(n):
            if j == i:
                continue
            a, b = points[i], points[j]
            d = math.hypot(b.north - a.north, b.east - a.east, b.height - a.height)
            if d > config.r_com:
                continue
            if any(
                {i, j} == {w.uav_a, w.uav_b} and w.start_s <= now < w.end_s
                for w in config.dropout_schedule
            ):
                continue
            if d < 1.0:
                _network_log.warning(
                    "near-coincident vehicles %d and %d at d=%.3g m; strength diverges", i, j, d
                )
            strength = config.gamma_signal / d if d > 0.0 else math.inf
            admitted.append((j, strength))
        admitted.sort(key=lambda link: (-link[1], link[0]))
        neighbors.append(tuple(sorted(admitted[: config.c_max])))
    return tuple(neighbors)


# Below this distance (m) to its active waypoint a vehicle has no bearing
# and keeps its course and climb.
COINCIDENT_EPS = 1e-9


def time_index_oracle(position, v_g, waypoints, cursor):
    """Scalar time index of one vehicle: straight to the active waypoint, then along the path.

    ``waypoints`` is the path as a tuple of ``Point3`` and ``cursor`` the
    index of its active waypoint.
    """
    points = waypoints[cursor:]
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += math.hypot(b.north - a.north, b.east - a.east, b.height - a.height)
    target = waypoints[cursor]
    d = math.hypot(target.north - position.north, target.east - position.east, target.height - position.height)
    return (d + total) / v_g


def reference_angles_oracle(position, target):
    """Scalar full-quadrant course and climb angles from ``position`` to ``target``."""
    dn = target.north - position.north
    de = target.east - position.east
    dh = target.height - position.height
    lateral = math.hypot(dn, de)
    if lateral == 0.0 and dh == 0.0:
        raise DegenerateGeometryError(f"bearing undefined between coincident points {position}")
    return math.atan2(de, dn), math.atan2(dh, lateral)


def advance_oracle(waypoints, cursor, position, chi, gamma, gp):
    """Scalar virtual-target advance of one vehicle: its cursor past the reached waypoints.

    ``waypoints`` is the path as a tuple of ``Point3`` and ``cursor`` the
    index of its active waypoint.  A waypoint is dropped once the vehicle
    at ``position``, flying course ``chi`` and climb ``gamma``, is within
    ``gp.acceptance_radius`` of it or the waypoint falls behind the
    velocity direction; the final waypoint is never dropped.
    """
    cg = math.cos(gamma)
    mu = (cg * math.cos(chi), cg * math.sin(chi), math.sin(gamma))
    last = len(waypoints) - 1
    while cursor < last:
        wp = waypoints[cursor]
        rel = (wp.north - position.north, wp.east - position.east, wp.height - position.height)
        reached = math.hypot(*rel) <= gp.acceptance_radius
        behind = rel[0] * mu[0] + rel[1] * mu[1] + rel[2] * mu[2] < 0.0
        if not (reached or behind):
            break
        cursor += 1
    return cursor


def deliver_oracle(thetas, neighbors):
    """Per receiver, the (strength, theta_j) inbox of its links, by sender id."""
    return [[(s, thetas[j]) for j, s in sorted(links)] for links in neighbors]


def consensus_oracle(theta_self, inbox, gains):
    """Scalar time-index rate of one vehicle from its inbox."""
    rate = gains.gamma_d
    for strength, theta_j in inbox:
        rate -= strength * math.tanh(gains.k_theta * (theta_self - theta_j))
    return rate


def speed_oracle(theta, theta_dot, v_g, gains, dt, limits):
    """Scalar (speed setpoint, theta_ref) of one vehicle, ``dt`` the comm period."""
    theta_ref = theta + theta_dot * dt
    v_cmd = v_g - gains.k_vg * (theta_ref - theta)
    return min(max(v_cmd, limits.v_g_min), limits.v_g_max), theta_ref


def _wrap(x):
    return math.atan2(math.sin(x), math.cos(x))


def _wrap_vec(x):
    return np.arctan2(np.sin(x), np.cos(x))


GRAVITY = 9.81
_GAMMA_CAP = math.pi / 2 - 1e-9


def wrap_oracle(x):
    """Wrap an angle to (-pi, pi] with the scalar fmod rule."""
    r = math.fmod(x + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def look_ahead_oracle(state, chi_c, gamma_c):
    return wrap_oracle(chi_c - state.chi), gamma_c - state.gamma


def guidance_oracle(state, eta_lat, eta_lon, gp, limits):
    """Scalar roll and load-factor setpoints for one vehicle."""
    f_chi, f_gamma = -gp.k_chi * math.sin(eta_lat), -gp.k_gamma * math.sin(eta_lon)
    arg = state.v_g * math.cos(state.phi) / GRAVITY * f_chi
    phi_c = -math.asin(min(max(arg, -1.0), 1.0))
    phi_c = min(max(phi_c, limits.phi_min), limits.phi_max)
    n_lf_c = (GRAVITY * math.cos(state.gamma) - state.v_g * f_gamma) / (GRAVITY * math.cos(phi_c))
    return phi_c, min(max(n_lf_c, limits.n_lf_min), limits.n_lf_max)


def conditions_oracle(state, eta_lat, eta_lon, target_height, gp):
    """Scalar (lat_ok, lon_ok, sign_ok, margin) for one vehicle."""
    return (
        abs(eta_lat) <= gp.delta_lat,
        abs(eta_lon) <= gp.delta_lon,
        state.gamma * (state.position.height - target_height) <= 0.0,
        state.v_g * math.cos(gp.delta_lon) * math.cos(gp.delta_lat),
    )


def autopilot_oracle(state, cmd, limits, dt, ap):
    """Scalar first-order actuator step toward ``cmd`` = (phi, n_lf, v_g)."""

    def lagged(value, target, tau):
        return value + min(dt / tau, 1.0) * (target - value)

    phi = min(max(lagged(state.phi, cmd[0], ap.tau_phi), limits.phi_min), limits.phi_max)
    n_lf = min(max(lagged(state.n_lf, cmd[1], ap.tau_n), limits.n_lf_min), limits.n_lf_max)
    v_g = min(max(lagged(state.v_g, cmd[2], ap.tau_v), limits.v_g_min), limits.v_g_max)
    return replace(state, phi=phi, n_lf=n_lf, v_g=v_g)


def kinematics_oracle(state, d_chi, d_gamma, dt, ap):
    """Scalar RK4 step of one vehicle's point-mass kinematics."""
    v_g, phi, n_lf = state.v_g, state.phi, state.n_lf
    g_over_v = GRAVITY / v_g
    tan_phi = math.tan(phi)
    cos_phi = math.cos(phi)

    def deriv(y):
        _, _, _, chi, gamma, psi = y
        cg = math.cos(gamma)
        return (
            v_g * cg * math.cos(chi),
            v_g * cg * math.sin(chi),
            v_g * math.sin(gamma),
            g_over_v * tan_phi * math.cos(chi - psi) + d_chi,
            g_over_v * (n_lf * cos_phi - cg) + d_gamma,
            wrap_oracle(chi - psi) / ap.tau_psi,
        )

    p = state.position
    y0 = (p.north, p.east, p.height, state.chi, state.gamma, state.psi)
    k1 = deriv(y0)
    k2 = deriv(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = deriv(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = deriv(tuple(y + dt * k for y, k in zip(y0, k3)))
    y1 = tuple(
        y + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)
    )
    return replace(
        state,
        position=Point3(y1[0], y1[1], y1[2]),
        chi=wrap_oracle(y1[3]),
        gamma=min(max(y1[4], -_GAMMA_CAP), _GAMMA_CAP),
        psi=wrap_oracle(y1[5]),
    )


class WindOracle:
    """Scalar gust model drawing ``standard_normal(3)`` per sample."""

    def __init__(self, params, seed):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.gust = np.zeros(3)

    def sample(self, dt):
        p = self.params
        sigma = np.array([p.sigma_u, p.sigma_v, p.sigma_w])
        a = np.array([math.exp(-dt / (length / p.airspeed_nominal)) for length in (p.length_u, p.length_v, p.length_w)])
        self.gust = a * self.gust + sigma * np.sqrt(1.0 - a * a) * self.rng.standard_normal(3)
        d_chi = (self.gust[1] + p.ambient[1]) / p.airspeed_nominal
        d_gamma = (self.gust[2] + p.ambient[2]) / p.airspeed_nominal
        lim = p.d_max
        return float(min(max(d_chi, -lim), lim)), float(min(max(d_gamma, -lim), lim))


_TRAJECTORY_HEADER = "tick,t_s,p_north_m,p_east_m,height_m,chi_rad,gamma_rad,phi_rad,n_lf,v_g_mps,theta_s,cursor\n"
_PREMISES = slice(LOG_COLUMNS.index("lat_ok"), len(LOG_COLUMNS))


def trajectory_csv_oracle(log, uav_id):
    """Text of ``uav_{uav_id:02d}.csv``: one f-string of ``repr`` cells per tick."""
    # .tolist() yields Python floats, whose repr is the shortest
    # round-tripping text; the cursor column holds whole numbers.
    lines = [
        f"{tick},{tick * log.dt!r},{','.join(map(repr, row[:9]))},{int(row[9])}\n"
        for tick, row in enumerate(log.data[:, uav_id, :10].tolist())
    ]
    return _TRAJECTORY_HEADER + "".join(lines)


def events_csv_oracle(log):
    """Text of ``events.csv``: a ``json.dumps`` detail per row, written by ``csv.writer``."""
    events = []
    for e in log.replan_events:
        detail = {
            "waypoints": [[p.north, p.east, p.height] for p in e.waypoints],
            "rt_sim_s": e.rt_sim,
            "overhead_s": e.overhead,
        }
        events.append((e.tick, e.uav_id, ["replan", e.tick, e.t, e.uav_id, json.dumps(detail, sort_keys=True)]))
    for f in log.replan_failures:
        detail_f = {"reason": f.reason}
        events.append(
            (f.tick, f.uav_id, ["replan_failed", f.tick, f.t, f.uav_id, json.dumps(detail_f, sort_keys=True)])
        )
    ticks, uav_ids = np.nonzero(log.premise_violations())
    premises = log.data[ticks, uav_ids, _PREMISES]
    # One flat list per column: bools and floats, not a list per row.
    columns = (ticks.tolist(), uav_ids.tolist(), *(premises[:, :3] != 0.0).T.tolist(), premises[:, 3].tolist())
    for tick, uav_id, lat_ok, lon_ok, sign_ok, margin in zip(*columns):
        detail = {"lat_ok": lat_ok, "lon_ok": lon_ok, "sign_ok": sign_ok, "margin": margin}
        events.append(
            (tick, uav_id, ["premise_violation", tick, tick * log.dt, uav_id, json.dumps(detail, sort_keys=True)])
        )
    events.sort(key=lambda item: (item[0], item[1], item[2][0]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("event", "tick", "t_s", "uav_id", "detail"))
    writer.writerows(row for _, _, row in events)
    return buf.getvalue()
