"""Sampling-based local detour planning around a cylindrical obstacle.

When the straight segment to the active waypoint crosses an active
obstacle, :func:`replan` draws K random candidates around the obstacle
(:func:`sample_region`: forward of the vehicle, in a lateral ring around
the cylinder and a height band over the terrain), scores them all at
once by their transit through both legs (:func:`candidate_cost`), keeps
the cheapest obstacle- and terrain-safe one (:func:`best_detour`), and
repeats from that virtual position, heading along the leg just planned,
until the remaining straight segment is clear.

The two-leg cost deliberately penalizes sharp turns: each leg's length
is divided by the cosines of the turn angles it requires, so a candidate
demanding a near-perpendicular turn costs far more than its raw length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import UavState
from .geo import DemGrid, Obstacle, Point3, dem_elevation, segment_above_terrain, segment_obstructed
from .guidance import look_ahead_angles, reference_angles

__all__ = [
    "ReplanParams",
    "ReplanError",
    "sample_region",
    "candidate_cost",
    "best_detour",
    "replan",
]

log = logging.getLogger(__name__)

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class ReplanParams:
    """Parameters of :func:`replan`.

    Samples per iteration, feasible-region extents (m, m, rad), terrain
    clearance and its check step (m), and the iteration cap.
    """

    k_samples: int = 2000
    delta_r: float = 500.0
    delta_h: float = 20.0
    delta_angle: float = math.pi / 3
    clearance: float = 10.0
    terrain_step: float = 25.0
    max_iterations: int = 20

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError("k_samples must be >= 1")
        if not (self.delta_r > 0.0 and self.delta_h > 0.0):
            raise ValueError("delta_r and delta_h must be positive")
        if not 0.0 < self.delta_angle <= math.pi:
            raise ValueError("delta_angle must lie in (0, pi]")
        if not self.clearance >= 0.0:
            raise ValueError("clearance must be >= 0")
        if not self.terrain_step > 0.0:
            raise ValueError("terrain_step must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class ReplanError(RuntimeError):
    """Replanning failed.  A message from :func:`replan` names the iteration."""


def sample_region(
    uav: UavState, obstacle: Obstacle, grid: DemGrid, params: ReplanParams, rng: np.random.Generator
) -> np.ndarray:
    """Draw up to ``params.k_samples`` candidates for ``uav``, in draw order.

    The region is a lateral ring from the obstacle's radius out by
    ``params.delta_r``, a height band ``params.delta_h`` deep above the
    terrain under the vehicle's own lateral position (not under the
    candidate; the terrain check in :func:`best_detour` covers the
    difference), and a forward cone of half-angle ``params.delta_angle``
    about the vehicle's velocity.  Rejection sampling from the ring x band
    box: lateral angle uniform on the circle, radius with area-correct
    density, height uniform on the band; draws outside the cone are
    discarded.  Returns an (m, 3) array of [north, east, height] rows with
    m <= k_samples.
    """
    k = params.k_samples
    pos = uav.position
    floor = dem_elevation(grid, pos.north, pos.east)
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    r_in2 = obstacle.lateral_radius**2
    r_out2 = (obstacle.lateral_radius + params.delta_r) ** 2
    radius = np.sqrt(r_in2 + rng.uniform(0.0, 1.0, k) * (r_out2 - r_in2))
    height = rng.uniform(floor, floor + params.delta_h, k)

    pts = np.empty((k, 3))
    pts[:, 0] = obstacle.center_north + radius * np.cos(angle)
    pts[:, 1] = obstacle.center_east + radius * np.sin(angle)
    pts[:, 2] = height

    rel = pts - pos
    norms = np.linalg.norm(rel, axis=1)
    ok = norms > 0.0
    cos_angle = np.zeros(k)
    cos_angle[ok] = rel[ok] @ uav.velocity_unit() / norms[ok]
    ok &= np.arccos(np.clip(cos_angle, -1.0, 1.0)) <= params.delta_angle
    return pts[ok]


def candidate_cost(uav: UavState, pts: np.ndarray, target: Point3) -> np.ndarray:
    """Two-leg transit objective of each row of the (m, 3) array ``pts`` (meters).

    Speed is common to both legs and factored out.  Each leg's length is
    inflated by 1/(cos eta_lon * cos eta_lat) of the turn it requires: the
    first leg from the vehicle's course and climb, the second from the
    first leg's direction to the bearing of ``target``.  A candidate
    demanding a turn of pi/2 or more on any axis is unreachable under the
    bounded-turn model, and one on the vehicle or on the target has no
    bearing; both get an infinite cost, losing every comparison.
    """
    rel1 = pts - uav.position
    lat1 = np.hypot(rel1[:, 0], rel1[:, 1])
    d1 = np.linalg.norm(rel1, axis=1)
    chi1 = np.arctan2(rel1[:, 1], rel1[:, 0])
    gamma1 = np.arctan2(rel1[:, 2], lat1)

    rel2 = target - pts
    lat2 = np.hypot(rel2[:, 0], rel2[:, 1])
    d2 = np.linalg.norm(rel2, axis=1)
    chi2 = np.arctan2(rel2[:, 1], rel2[:, 0])
    gamma2 = np.arctan2(rel2[:, 2], lat2)

    eta1_lat, eta1_lon = look_ahead_angles(uav.chi, uav.gamma, chi1, gamma1)
    eta2_lat, eta2_lon = look_ahead_angles(chi1, gamma1, chi2, gamma2)

    f = (
        (np.abs(eta1_lat) < _HALF_PI)
        & (np.abs(eta1_lon) < _HALF_PI)
        & (np.abs(eta2_lat) < _HALF_PI)
        & (np.abs(eta2_lon) < _HALF_PI)
        & (d1 > 0.0)
        & (d2 > 0.0)
    )
    costs = np.full(pts.shape[0], np.inf)
    costs[f] = d1[f] / (np.cos(eta1_lon[f]) * np.cos(eta1_lat[f])) + d2[f] / (
        np.cos(eta2_lon[f]) * np.cos(eta2_lat[f])
    )
    return costs


def best_detour(
    uav: UavState,
    target: Point3,
    rng: np.random.Generator,
    grid: DemGrid,
    obstacle: Obstacle,
    now: float,
    params: ReplanParams,
) -> tuple[Point3, float]:
    """Cheapest feasible candidate of :func:`sample_region`'s draws, terrain-checked.

    Returns the candidate and its two-leg cost.  Candidates are walked in
    ascending cost order; the first acceptable one wins.  A candidate is rejected when its inbound leg from the
    vehicle crosses the obstacle (sitting in the ring does not make the
    straight leg to it safe) or fails the terrain clearance; and, when its
    direct segment to ``target`` is already clear (it would terminate the
    replan loop), that final leg must clear the terrain too.  Non-terminal
    candidates get their outbound leg checked as the next iteration's
    inbound leg instead.  Raises :class:`ReplanError` when no draw is
    feasible or every one is rejected.
    """
    pts = sample_region(uav, obstacle, grid, params, rng)
    if pts.shape[0] == 0:
        raise ReplanError(f"no feasible samples among {params.k_samples} draws")
    costs = candidate_cost(uav, pts, target)
    order = np.argsort(costs, kind="stable")
    rejected_obstructed = 0
    rejected_terrain = 0
    start = uav.position
    for idx in order:
        if not math.isfinite(costs[idx]):
            break
        point = pts[idx].tolist()
        if segment_obstructed(start, point, obstacle, now):
            rejected_obstructed += 1
            continue
        if not segment_above_terrain(grid, start, point, params.clearance, params.terrain_step):
            rejected_terrain += 1
            continue
        terminal = not segment_obstructed(point, target, obstacle, now)
        if terminal and not segment_above_terrain(
            grid, point, target, params.clearance, params.terrain_step
        ):
            rejected_terrain += 1
            continue
        if rejected_obstructed or rejected_terrain:
            log.info(
                "replan: rejected %d cheaper candidates (%d obstructed leg, %d terrain clearance)",
                rejected_obstructed + rejected_terrain,
                rejected_obstructed,
                rejected_terrain,
            )
        return Point3(*point), float(costs[idx])
    raise ReplanError(
        f"no acceptable candidate among {pts.shape[0]} feasible samples "
        f"({rejected_obstructed} rejected for obstructed leg, "
        f"{rejected_terrain} for terrain clearance)"
    )


def replan(
    uav: UavState,
    target: Point3,
    obstacle: Obstacle,
    grid: DemGrid,
    params: ReplanParams,
    rng_seed: int,
    now: float,
) -> np.ndarray:
    """Detour waypoints clearing the obstacle, cheapest-first greedy.

    Iterates from the vehicle's position: while the straight segment to
    ``target`` is obstructed, draw ``params.k_samples`` candidates around the
    obstacle, keep the best, and continue from it with the leg direction
    as the new virtual heading.  The returned (m, 3) array of [north,
    east, height] rows (which excludes ``target``; m is 0 when the
    segment is already clear) leaves every leg, including the final one
    to ``target``, unobstructed.  Deterministic for a fixed ``rng_seed``:
    iteration k draws from its own child stream, so earlier iterations'
    rejection counts never shift later draws.
    """
    virtual = uav
    waypoints: list[Point3] = []
    for iteration in range(params.max_iterations):
        if not segment_obstructed(virtual.position, target, obstacle, now):
            break
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(iteration,)))
        try:
            point, _ = best_detour(virtual, target, rng, grid, obstacle, now, params)
        except ReplanError as exc:
            raise ReplanError(f"iteration {iteration}: {exc}") from exc
        waypoints.append(point)
        chi, gamma = reference_angles(np.subtract(point, virtual.position)[:, None])
        virtual = replace(virtual, position=point, chi=chi.item(), gamma=gamma.item())
    else:
        if segment_obstructed(virtual.position, target, obstacle, now):
            raise ReplanError(f"still obstructed after {params.max_iterations} iterations")
    return np.array(waypoints).reshape(-1, 3)
