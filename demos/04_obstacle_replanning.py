"""Sampling-based detours around a cylinder blocking the direct leg.

A vehicle heading straight at its waypoint discovers a cylinder across
the leg. The replanner intersects a forward cone with a lateral ring
around the obstacle and a height band over the terrain, samples that
region, and walks the candidates in cost order until the connecting
legs clear both the cylinder and the ground. Shown here in two layers:
the single-iteration primitive (region + samples + best candidate) and
the full loop that appends waypoints until the remaining leg is free.
"""

import math

import numpy as np

from flocksim import (
    DemGrid,
    Obstacle,
    Point3,
    ReplanParams,
    UavState,
    distance3,
    feasible_region,
    region_contains,
    replan,
    sample_region,
    best_detour,
    segment_obstructed,
)

flat = DemGrid(origin_north=-2000.0, origin_east=-2000.0, cell_size=500.0,
               elevation=np.zeros((9, 9)))
obstacle = Obstacle(center_north=450.0, center_east=20.0, lateral_radius=60.0,
                    base_height=0.0, top_height=200.0)
uav = UavState(position=Point3(0.0, 0.0, 50.0), chi=0.0, gamma=0.0, psi=0.0, v_g=13.5)
target = Point3(900.0, 0.0, 50.0)
now = 80.0

blocked = segment_obstructed(uav.position, target, obstacle, now)
print(f"direct leg to ({target.north:.0f}, {target.east:.0f}): obstructed = {blocked}")

params = ReplanParams(k_samples=2000, delta_r=300.0, delta_h=100.0, delta_angle=math.pi / 2)
velocity = np.array([math.cos(uav.chi), math.sin(uav.chi), 0.0])
region = feasible_region(uav.position, velocity, obstacle, flat,
                         params.delta_r, params.delta_h, params.delta_angle)
print("\nfeasible region")
print(f"  ring   : {region.r_bar:.0f} .. {region.r_bar + region.delta_r:.0f} m around the cylinder axis")
print(f"  heights: {region.dem_floor:.0f} .. {region.dem_floor + region.delta_h:.0f} m")
print(f"  cone   : half-angle {math.degrees(region.delta_angle):.0f} deg about the velocity")

rng = np.random.default_rng(77)
samples = sample_region(region, k=params.k_samples, rng=rng)
inside = sum(region_contains(region, Point3(*row)) for row in samples)
print(f"  sampled {len(samples)} candidates, {inside} verified inside")

chosen = best_detour(uav, target, region, np.random.default_rng(77), flat, obstacle, now, params)
inbound = segment_obstructed(uav.position, chosen.point, obstacle, now)
onward = segment_obstructed(chosen.point, target, obstacle, now)
print("\nbest single candidate")
print(f"  point   : ({chosen.point.north:.1f}, {chosen.point.east:.1f}, {chosen.point.height:.1f})")
print(f"  cost    : {chosen.cost:.1f} m two-leg transit, vs {distance3(uav.position, target):.0f} m straight")
print(f"  inbound leg obstructed: {inbound} (guaranteed clear)")
print(f"  onward leg obstructed : {onward} (may stay blocked; that is what the loop below fixes)")

# The full loop re-detects from the candidate and keeps appending until
# the final leg is clear, then the caller splices the list into the path.
print("\nreplan() from three seeds")
for seed in (1, 2, 3):
    wps = replan(uav, target, obstacle, flat, params, rng_seed=seed, now=now)
    pts = [uav.position, *wps, target]
    length = sum(distance3(a, b) for a, b in zip(pts, pts[1:]))
    clear = not any(segment_obstructed(a, b, obstacle, now) for a, b in zip(pts, pts[1:]))
    route = " -> ".join(f"({p.north:.0f}, {p.east:.0f})" for p in wps)
    print(f"  seed {seed}: {len(wps)} waypoint(s) {route}, total {length:.1f} m, all legs clear = {clear}")
