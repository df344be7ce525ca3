"""Sampling-based local detour planning around a cylindrical obstacle.

When the straight segment to the active waypoint crosses an active
obstacle, the planner draws K random candidates from a feasible ring
around the obstacle (forward of the vehicle, bounded laterally and in
height), scores each by transit time through both legs, keeps the
cheapest terrain-safe candidate, and repeats from that virtual position
until the remaining straight segment is clear.

The feasible region and the two-leg cost deliberately penalize sharp
turns: each leg's length is divided by the cosines of the turn angles it
requires, so a candidate demanding a near-perpendicular turn costs far
more than its raw length.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import UavState, wrap_angle
from .geo import DemGrid, Obstacle, Point3, dem_elevation, distance3, lateral_distance, segment_above_terrain, segment_obstructed
from .guidance import LookAheadAngles, _bearing_elevation, look_ahead_angles, reference_angles

__all__ = [
    "ReplanParams",
    "FeasibleRegion",
    "CandidateWaypoint",
    "ReplanError",
    "feasible_region",
    "region_contains",
    "sample_region",
    "transit_angles_leg2",
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
    """Replanning failed; ``iteration`` names the loop pass that failed."""

    def __init__(self, message: str, iteration: int) -> None:
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    """Candidate region: forward cone x lateral ring x height band.

    The height band is anchored at the terrain elevation under the
    vehicle's own lateral position (``dem_floor``), not under the
    candidate; the terrain-safety check in :func:`best_detour` compensates
    where the two differ.
    """

    uav_position: Point3
    velocity_unit: np.ndarray
    center_north: float
    center_east: float
    r_bar: float
    delta_r: float
    dem_floor: float
    delta_h: float
    delta_angle: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.velocity_unit, dtype=float)
        if mu.shape != (3,):
            raise ValueError("velocity_unit must be a 3-vector")
        if abs(float(np.linalg.norm(mu)) - 1.0) >= 1e-9:
            raise ValueError(f"velocity_unit must have unit norm, got |mu| = {np.linalg.norm(mu)}")
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "velocity_unit", mu)
        if not self.r_bar > 0.0:
            raise ValueError(f"r_bar must be positive, got {self.r_bar}")
        if not self.delta_r > 0.0:
            raise ValueError(f"delta_r must be positive, got {self.delta_r}")
        if not self.delta_h > 0.0:
            raise ValueError(f"delta_h must be positive, got {self.delta_h}")
        if not 0.0 < self.delta_angle <= math.pi:
            raise ValueError(f"delta_angle must lie in (0, pi], got {self.delta_angle}")


@dataclass(frozen=True)
class CandidateWaypoint:
    """A scored detour waypoint; ``cost`` is the two-leg transit objective."""

    point: Point3
    cost: float


def feasible_region(
    position: Point3,
    velocity_unit: np.ndarray,
    obstacle: Obstacle,
    grid: DemGrid,
    delta_r: float,
    delta_h: float,
    delta_angle: float,
) -> FeasibleRegion:
    """Build the candidate region for a vehicle at ``position``.

    The ring's inner radius is the obstacle's lateral radius, and the
    height band floor is the terrain under the vehicle.
    """
    return FeasibleRegion(
        uav_position=position,
        velocity_unit=np.asarray(velocity_unit, dtype=float),
        center_north=obstacle.center_north,
        center_east=obstacle.center_east,
        r_bar=obstacle.lateral_radius,
        delta_r=delta_r,
        dem_floor=dem_elevation(grid, position.north, position.east),
        delta_h=delta_h,
        delta_angle=delta_angle,
    )


def region_contains(region: FeasibleRegion, p: Point3) -> bool:
    """Membership test: forward cone, lateral ring, and height band."""
    rel = p.as_array() - region.uav_position.as_array()
    norm = float(np.linalg.norm(rel))
    if norm == 0.0:
        return False
    cos_angle = float(np.dot(region.velocity_unit, rel)) / norm
    if math.acos(min(max(cos_angle, -1.0), 1.0)) > region.delta_angle:
        return False
    lateral = math.hypot(p.north - region.center_north, p.east - region.center_east)
    if not region.r_bar <= lateral <= region.r_bar + region.delta_r:
        return False
    return region.dem_floor <= p.height <= region.dem_floor + region.delta_h


def sample_region(region: FeasibleRegion, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw up to ``k`` points uniformly from the region, in draw order.

    Rejection sampling from the enclosing ring x height box: lateral angle
    uniform on the circle, radius with area-correct density, height
    uniform on the band; draws failing the forward-cone constraint are
    discarded.  Returns an (m, 3) array of [north, east, height] rows with
    m <= k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    r_in2 = region.r_bar**2
    r_out2 = (region.r_bar + region.delta_r) ** 2
    radius = np.sqrt(r_in2 + rng.uniform(0.0, 1.0, k) * (r_out2 - r_in2))
    height = rng.uniform(region.dem_floor, region.dem_floor + region.delta_h, k)

    pts = np.empty((k, 3))
    pts[:, 0] = region.center_north + radius * np.cos(angle)
    pts[:, 1] = region.center_east + radius * np.sin(angle)
    pts[:, 2] = height

    rel = pts - region.uav_position.as_array()
    norms = np.linalg.norm(rel, axis=1)
    ok = norms > 0.0
    cos_angle = np.zeros(k)
    cos_angle[ok] = rel[ok] @ np.asarray(region.velocity_unit) / norms[ok]
    ok &= np.arccos(np.clip(cos_angle, -1.0, 1.0)) <= region.delta_angle
    return pts[ok]


def transit_angles_leg2(uav: UavState, candidate: Point3, original_target: Point3) -> LookAheadAngles:
    """Turn the vehicle must make at ``candidate`` to regain the target."""
    chi1, gamma1 = _bearing_elevation(uav.position, candidate)
    chi2, gamma2 = _bearing_elevation(candidate, original_target)
    return LookAheadAngles(
        eta_lat=wrap_angle(chi2 - chi1),
        eta_lon=gamma2 - gamma1,
    )


def candidate_cost(uav: UavState, candidate: Point3, original_target: Point3) -> float:
    """Two-leg transit objective (meters; speed is common and factored out).

    Each leg's length is inflated by 1/(cos eta_lon * cos eta_lat) of the
    turn it requires.  Candidates demanding a turn of pi/2 or more on any
    axis are unreachable under the bounded-turn model and get an infinite
    sentinel, losing every comparison.
    """
    a1 = look_ahead_angles(uav, *reference_angles(uav, candidate))
    a2 = transit_angles_leg2(uav, candidate, original_target)
    for eta in (a1.eta_lat, a1.eta_lon, a2.eta_lat, a2.eta_lon):
        if abs(eta) >= _HALF_PI:
            return math.inf
    d1 = distance3(uav.position, candidate)
    d2 = distance3(candidate, original_target)
    return d1 / (math.cos(a1.eta_lon) * math.cos(a1.eta_lat)) + d2 / (
        math.cos(a2.eta_lon) * math.cos(a2.eta_lat)
    )


def _costs_vectorized(uav: UavState, pts: np.ndarray, target: Point3) -> np.ndarray:
    """candidate_cost over an (m, 3) array of points; inf where infeasible."""
    pos = uav.position.as_array()
    rel1 = pts - pos
    lat1 = np.hypot(rel1[:, 0], rel1[:, 1])
    d1 = np.linalg.norm(rel1, axis=1)
    chi1 = np.arctan2(rel1[:, 1], rel1[:, 0])
    gamma1 = np.arctan2(rel1[:, 2], lat1)

    rel2 = target.as_array() - pts
    lat2 = np.hypot(rel2[:, 0], rel2[:, 1])
    d2 = np.linalg.norm(rel2, axis=1)
    chi2 = np.arctan2(rel2[:, 1], rel2[:, 0])
    gamma2 = np.arctan2(rel2[:, 2], lat2)

    eta1_lat = _wrap_vec(chi1 - uav.chi)
    eta1_lon = gamma1 - uav.gamma
    eta2_lat = _wrap_vec(chi2 - chi1)
    eta2_lon = gamma2 - gamma1

    feasible = (
        (np.abs(eta1_lat) < _HALF_PI)
        & (np.abs(eta1_lon) < _HALF_PI)
        & (np.abs(eta2_lat) < _HALF_PI)
        & (np.abs(eta2_lon) < _HALF_PI)
        & (d1 > 0.0)
        & (d2 > 0.0)
    )
    costs = np.full(pts.shape[0], np.inf)
    f = feasible
    costs[f] = d1[f] / (np.cos(eta1_lon[f]) * np.cos(eta1_lat[f])) + d2[f] / (
        np.cos(eta2_lon[f]) * np.cos(eta2_lat[f])
    )
    return costs


def _wrap_vec(x: np.ndarray) -> np.ndarray:
    r = np.mod(x + math.pi, 2.0 * math.pi)
    r = np.where(r == 0.0, 2.0 * math.pi, r)
    return r - math.pi


def best_detour(
    uav: UavState,
    target: Point3,
    region: FeasibleRegion,
    rng: np.random.Generator,
    grid: DemGrid,
    obstacle: Obstacle,
    now: float,
    params: ReplanParams,
) -> CandidateWaypoint:
    """Cheapest feasible candidate from ``params.k_samples`` draws, terrain-checked.

    Candidates are walked in ascending cost order; the first acceptable
    one wins.  A candidate is rejected when its inbound leg from the
    vehicle crosses the obstacle (sitting in the ring does not make the
    straight leg to it safe) or fails the terrain clearance; and, when its
    direct segment to ``target`` is already clear (it would terminate the
    replan loop), that final leg must clear the terrain too.  Non-terminal
    candidates get their outbound leg checked as the next iteration's
    inbound leg instead.  Raises :class:`ReplanError` when no draw is
    feasible or every one is rejected.
    """
    k = params.k_samples
    pts = sample_region(region, k, rng)
    if pts.shape[0] == 0:
        raise ReplanError(f"no feasible samples among {k} draws", iteration=0)
    costs = _costs_vectorized(uav, pts, target)
    order = np.argsort(costs, kind="stable")
    rejected_obstructed = 0
    rejected_terrain = 0
    for idx in order:
        if not math.isfinite(costs[idx]):
            break
        point = Point3(float(pts[idx, 0]), float(pts[idx, 1]), float(pts[idx, 2]))
        if segment_obstructed(uav.position, point, obstacle, now):
            rejected_obstructed += 1
            continue
        if not segment_above_terrain(grid, uav.position, point, params.clearance, params.terrain_step):
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
        # Recompute through the scalar path so the reported cost is exactly
        # candidate_cost(point), independent of vectorized rounding.
        return CandidateWaypoint(point=point, cost=candidate_cost(uav, point, target))
    raise ReplanError(
        f"no acceptable candidate among {pts.shape[0]} feasible samples "
        f"({rejected_obstructed} rejected for obstructed leg, "
        f"{rejected_terrain} for terrain clearance)",
        iteration=0,
    )


def replan(
    uav: UavState,
    target: Point3,
    obstacle: Obstacle,
    grid: DemGrid,
    params: ReplanParams,
    rng_seed: int,
    now: float,
) -> list[Point3]:
    """Detour waypoints clearing the obstacle, cheapest-first greedy.

    Iterates from the vehicle's position: while the straight segment to
    ``target`` is obstructed, draw ``params.k_samples`` candidates around the
    obstacle, keep the best, and continue from it with the leg direction
    as the new virtual heading.  The returned sequence (which excludes
    ``target``) leaves every leg, including the final one to ``target``,
    unobstructed.  Deterministic for a fixed ``rng_seed``: iteration k
    draws from its own child stream, so earlier iterations' rejection
    counts never shift later draws.
    """
    virtual = uav
    waypoints: list[Point3] = []
    for iteration in range(params.max_iterations):
        if not segment_obstructed(virtual.position, target, obstacle, now):
            return waypoints
        region = feasible_region(
            virtual.position, virtual.velocity_unit(), obstacle, grid,
            params.delta_r, params.delta_h, params.delta_angle,
        )
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(iteration,)))
        try:
            best = best_detour(virtual, target, region, rng, grid, obstacle, now, params)
        except ReplanError as exc:
            raise ReplanError(f"iteration {iteration}: {exc}", iteration=iteration) from exc
        waypoints.append(best.point)
        chi, gamma = _bearing_elevation(virtual.position, best.point)
        virtual = replace(virtual, position=best.point, chi=chi, gamma=gamma)
    if segment_obstructed(virtual.position, target, obstacle, now):
        raise ReplanError(
            f"still obstructed after {params.max_iterations} iterations",
            iteration=params.max_iterations - 1,
        )
    return waypoints
