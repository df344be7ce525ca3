"""Brute-force oracles shared between test modules.

Everything here recomputes results from first principles with explicit
trigonometry so the tests never compare the implementation against
itself; only the geometric primitives (segment queries) are shared.
"""

import logging
import math

import numpy as np

from flocksim import CommGraph, NeighborLink, Point3, segment_above_terrain, segment_obstructed

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


def grid_cost_oracle(
    uav,
    target,
    region,
    obstacle,
    grid,
    now,
    clearance=10.0,
    terrain_step=25.0,
    n_points=100_000,
):
    """Constrained minimum of the two-leg cost over a deterministic lattice.

    Independent of the sampler and of the vectorized cost path: the region
    is swept on an angle x radius x height lattice, membership in the
    forward cone and the transit cost are both evaluated with explicit
    trigonometry here, and candidates are accepted under the same leg rules
    the minimizer applies (inbound leg clear of the obstacle and terrain,
    terminal leg terrain-checked when it would end the replan).
    """
    n_angle, n_radius, n_height = 100, 40, 25
    assert n_angle * n_radius * n_height == n_points
    angles = np.linspace(-math.pi, math.pi, n_angle, endpoint=False)
    radii = np.linspace(region.r_bar, region.r_bar + region.delta_r, n_radius)
    heights = np.linspace(region.dem_floor, region.dem_floor + region.delta_h, n_height)
    ang, rad, hgt = np.meshgrid(angles, radii, heights, indexing="ij")

    pn = region.center_north + rad.ravel() * np.cos(ang.ravel())
    pe = region.center_east + rad.ravel() * np.sin(ang.ravel())
    ph = hgt.ravel()

    pos = uav.position
    dn1, de1, dh1 = pn - pos.north, pe - pos.east, ph - pos.height
    lat1 = np.hypot(dn1, de1)
    norm1 = np.sqrt(lat1**2 + dh1**2)
    mu = np.asarray(region.velocity_unit)
    cos_cone = (dn1 * mu[0] + de1 * mu[1] + dh1 * mu[2]) / np.where(norm1 > 0, norm1, np.inf)
    in_cone = np.arccos(np.clip(cos_cone, -1.0, 1.0)) <= region.delta_angle

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

    The admission rule written out in full: a peer in range (``d <=
    r_com``) whose link no active window ``[start_s, end_s)`` names in
    either order is admitted with strength ``gamma / d`` (inf when
    coincident); each list is sorted by (-strength, peer) and cut at
    ``c_max``.  Warnings for pairs closer than 1 m go to the
    ``flocksim.network`` logger in (i, j) order, as the library emits them.
    """
    n = len(positions)
    if n < 1:
        raise ValueError("need at least one position")
    now = tick * dt
    neighbors = []
    for i in range(n):
        admitted = []
        for j in range(n):
            if j == i:
                continue
            a, b = positions[i], positions[j]
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
            admitted.append(NeighborLink(peer=j, strength=strength))
        admitted.sort(key=lambda link: (-link.strength, link.peer))
        neighbors.append(tuple(admitted[: config.c_max]))
    return CommGraph(tick=tick, neighbors=tuple(neighbors))


def _wrap(x):
    return math.atan2(math.sin(x), math.cos(x))


def _wrap_vec(x):
    return np.arctan2(np.sin(x), np.cos(x))
