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

Neither the forward cone nor a turn needs an angle: both are sign or
threshold tests on dot products in exactly rounded arithmetic, so no
arctangent, arccosine or BLAS product enters a replan.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import UavState
from .geo import (
    DemGrid,
    Obstacle,
    OutOfBoundsError,
    Point3,
    _legs_above_terrain,
    _legs_obstructed,
    dem_elevation,
    segment_above_terrain,
    segment_obstructed,
)
from .guidance import reference_angles

__all__ = [
    "ReplanParams",
    "ReplanError",
    "sample_region",
    "candidate_cost",
    "best_detour",
    "replan",
]

log = logging.getLogger(__name__)


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
    m <= k_samples: the draws themselves when the cone keeps them all.

    The cone test compares each draw's dot product with the velocity to
    ``cos(delta_angle)`` times its offset's length, and a draw on the
    vehicle has no direction and is dropped.  At ``delta_angle = pi`` every
    other draw is kept: the test is skipped, since a rounded unit velocity
    longer than 1 would otherwise drop a draw straight behind the vehicle.

    A vehicle off the terrain footprint has no height band: that raises
    :class:`ReplanError` naming its position.
    """
    k = params.k_samples
    pos = uav.position
    if not grid.contains(pos.north, pos.east):
        raise ReplanError(f"vehicle at (north={pos.north}, east={pos.east}) is off the terrain footprint")
    floor = dem_elevation(grid, pos.north, pos.east)
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    r_in2 = obstacle.lateral_radius**2
    r_out2 = (obstacle.lateral_radius + params.delta_r) ** 2
    radius = np.sqrt(r_in2 + rng.uniform(0.0, 1.0, k) * (r_out2 - r_in2))
    height = rng.uniform(floor, floor + params.delta_h, k)

    north = obstacle.center_north + radius * np.cos(angle)
    east = obstacle.center_east + radius * np.sin(angle)
    x, y, z = north - pos.north, east - pos.east, height - pos.height
    norms = _norms(x, y, z)
    ok = norms > 0.0
    if params.delta_angle < math.pi:
        vn, ve, vh = uav.velocity_unit().tolist()
        ok &= x * vn + y * ve + z * vh >= math.cos(params.delta_angle) * norms
    if not ok.all():
        north, east, height = north[ok], east[ok], height[ok]
    return np.column_stack((north, east, height))


def _norms(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Length of each offset (x, y, z): ``np.linalg.norm(axis=1)`` of their (k, 3) block, bit for bit.

    That norm adds the squares of a row left to right; on three rows
    this takes each sum as one contiguous pass.
    """
    return np.sqrt((x * x + y * y) + z * z)


def candidate_cost(uav: UavState, pts: np.ndarray, target: Point3) -> np.ndarray:
    """Two-leg transit objective of each row of the (m, 3) array ``pts`` (meters).

    Speed is common to both legs and factored out.  Each leg's length is
    divided by cos eta_lon * cos eta_lat of the turn it requires: the
    first leg from the vehicle's course and climb, the second from the
    first leg's direction to ``target``.  The four cosines are dot
    products of the legs, with no angle computed.  A candidate is
    infeasible, at an infinite cost that loses every comparison, when one
    of them is not positive (a turn of pi/2 or more, unreachable under
    the bounded-turn model) or when a leg has no lateral length and so
    no course: a vertical leg, a candidate on the vehicle or on the
    target, or a lateral length whose square underflows.
    """
    pn, pe, ph = pts.T
    (un, ue, uh), (tn, te, th) = uav.position, target
    x1, y1, z1 = pn - un, pe - ue, ph - uh
    x2, y2, z2 = tn - pn, te - pe, th - ph
    lat1, lat2 = np.sqrt(x1 * x1 + y1 * y1), np.sqrt(x2 * x2 + y2 * y2)
    d1, d2 = _norms(x1, y1, z1), _norms(x2, y2, z2)
    # A zero lateral length, or one whose square underflows, has no course.
    f = lat1 * lat2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c1_lat = (x1 * math.cos(uav.chi) + y1 * math.sin(uav.chi)) / lat1
        c1_lon = (lat1 * math.cos(uav.gamma) + z1 * math.sin(uav.gamma)) / d1
        c2_lat = (x1 * x2 + y1 * y2) / (lat1 * lat2)
        c2_lon = (lat1 * lat2 + z1 * z2) / (d1 * d2)
        costs = d1 / (c1_lon * c1_lat) + d2 / (c2_lon * c2_lat)
    return np.where(f & (c1_lat > 0.0) & (c1_lon > 0.0) & (c2_lat > 0.0) & (c2_lon > 0.0), costs, np.inf)


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

    Returns the candidate and its two-leg cost: the first acceptable one
    in ascending cost order, ties in draw order.  A candidate of infinite
    cost is never acceptable.  A candidate is rejected when its inbound
    leg from the vehicle crosses the obstacle (sitting in the ring does
    not make the straight leg to it safe) or fails the terrain check;
    and, when its direct segment to ``target`` is already clear (it would
    terminate the replan loop), that final leg must pass the terrain
    check too.  A leg passes it when every terrain sample lies on the
    footprint and clears the terrain by ``params.clearance``, so a detour
    never leaves the terrain.  Non-terminal candidates get their outbound
    leg checked as the next iteration's inbound leg instead.  Raises
    :class:`ReplanError` when no draw is feasible or every one is
    rejected, with the counts of both rejections, and logs them at INFO
    when a cheaper candidate was rejected.

    All inbound legs are tested against the obstacle in one pass.  The
    clear candidates are then sorted by cost and walked once: the
    cheapest alone through the scalar checks, since it usually passes,
    then chunks of ``_CHUNK_MAX`` with one terrain query each.  The
    answer and the counts are those of walking the candidates one at a
    time.
    """
    pts = sample_region(uav, obstacle, grid, params, rng)
    if pts.shape[0] == 0:
        raise ReplanError(f"no feasible samples among {params.k_samples} draws")
    costs = candidate_cost(uav, pts, target)
    start = uav.position
    finite = np.isfinite(costs)
    blocked = finite & _legs_obstructed(start, pts, obstacle, now)
    clear = np.flatnonzero(finite & ~blocked)
    ranked = clear[np.argsort(costs[clear], kind="stable")]
    # Every clear candidate ranked before the chosen one fails a terrain check.
    rank = None
    if ranked.size and _acceptable(grid, start, pts[ranked[0]].tolist(), target, obstacle, now, params):
        rank = 0
    else:
        for lo in range(1, ranked.size, _CHUNK_MAX):
            j = _first_settled(grid, start, pts[ranked[lo : lo + _CHUNK_MAX]], target, obstacle, now, params)
            if j is not None:
                rank = lo + j
                break
    if rank is None:
        raise ReplanError(
            f"no acceptable candidate among {pts.shape[0]} feasible samples "
            f"({np.count_nonzero(blocked)} rejected for obstructed leg, "
            f"{ranked.size} for terrain clearance)"
        )
    chosen = ranked[rank]
    cost = costs[chosen]
    cheaper = (costs < cost) | ((costs == cost) & (np.arange(costs.size) < chosen))
    rejected_obstructed = np.count_nonzero(blocked & cheaper)
    if rejected_obstructed or rank:
        log.info(
            "replan: rejected %d cheaper candidates (%d obstructed leg, %d terrain clearance)",
            rejected_obstructed + rank,
            rejected_obstructed,
            rank,
        )
    return Point3(*pts[chosen].tolist()), float(cost)


# Largest chunk of candidates whose terrain is checked in one query.  Past
# it, a chunk's temporaries would raise a run's peak memory (a chunk of 128
# took a reference mission's traced peak from 1.45 to 1.98 MB; 32 keeps it).
_CHUNK_MAX = 32


def _acceptable(
    grid: DemGrid, start: Point3, point: list[float], target: Point3, obstacle: Obstacle, now: float,
    params: ReplanParams,
) -> bool:
    """The walk's terrain checks of one candidate whose inbound leg clears the obstacle.

    Its inbound leg must clear the terrain, and so must its leg to
    ``target`` when that leg clears the obstacle.  A leg with a sample off
    the footprint fails.
    """
    try:
        if not segment_above_terrain(grid, start, point, params.clearance, params.terrain_step):
            return False
        return segment_obstructed(point, target, obstacle, now) or segment_above_terrain(
            grid, point, target, params.clearance, params.terrain_step
        )
    except OutOfBoundsError:
        return False


def _first_settled(
    grid: DemGrid, start: Point3, legs: np.ndarray, target: Point3, obstacle: Obstacle, now: float,
    params: ReplanParams,
) -> int | None:
    """Index of the first candidate in ``legs`` that :func:`_acceptable` accepts, or None.

    ``legs`` is an (n, 3) block of candidates whose inbound legs clear the
    obstacle.  The terminal test is one pass, and the terrain checks of
    every inbound leg and every terminal candidate's leg to ``target``
    are one terrain query.
    """
    n = legs.shape[0]
    terminal = ~_legs_obstructed(legs, target, obstacle, now)
    ends = np.empty((2, n + np.count_nonzero(terminal), 3))
    ends[0, :n] = start
    ends[0, n:] = legs[terminal]
    ends[1, :n] = legs
    ends[1, n:] = target
    clear = _legs_above_terrain(grid, ends[0], ends[1], params.clearance, params.terrain_step)
    outbound = np.ones(n, dtype=bool)
    outbound[terminal] = clear[n:]
    settled = np.flatnonzero(clear[:n] & outbound)
    return int(settled[0]) if settled.size else None


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
    to ``target``, unobstructed, and on the terrain footprint.
    Deterministic for a fixed ``rng_seed``: iteration k draws from its own
    child stream, so earlier iterations' rejection counts never shift
    later draws.  Raises :class:`ReplanError`, naming the iteration, when
    one finds no acceptable candidate or the vehicle is off the footprint.
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
