"""Sampling-based detours around a cylinder blocking the direct leg.

A vehicle heading straight at its waypoint discovers a cylinder across
the leg. The replanner intersects a forward cone with a lateral ring
around the obstacle and a height band over the terrain, samples that
region, and walks the candidates in cost order until the connecting
legs clear both the cylinder and the ground. Shown here in two layers:
the single-iteration primitive (samples + best candidate) and the full
loop that appends waypoints until the remaining leg is free.
"""

import math

import numpy as np

from flocksim import (
    DemGrid,
    Obstacle,
    Point3,
    ReplanParams,
    UavState,
    best_detour,
    dem_elevation,
    distance3,
    replan,
    sample_region,
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
floor = dem_elevation(flat, uav.position.north, uav.position.east)
print("\nfeasible region")
print(f"  ring   : {obstacle.lateral_radius:.0f} .. {obstacle.lateral_radius + params.delta_r:.0f} m"
      " around the cylinder axis")
print(f"  heights: {floor:.0f} .. {floor + params.delta_h:.0f} m")
print(f"  cone   : half-angle {math.degrees(params.delta_angle):.0f} deg about the velocity")

samples = sample_region(uav, obstacle, flat, params, np.random.default_rng(77))
print(f"  sampled {len(samples)} candidates")

point, cost = best_detour(uav, target, np.random.default_rng(77), flat, obstacle, now, params)
inbound = segment_obstructed(uav.position, point, obstacle, now)
onward = segment_obstructed(point, target, obstacle, now)
print("\nbest single candidate")
print(f"  point   : ({point.north:.1f}, {point.east:.1f}, {point.height:.1f})")
print(f"  cost    : {cost:.1f} m two-leg transit, vs {distance3(uav.position, target):.0f} m straight")
print(f"  inbound leg obstructed: {inbound} (guaranteed clear)")
print(f"  onward leg obstructed : {onward} (may stay blocked; that is what the loop below fixes)")

# The full loop re-detects from the candidate and keeps appending until
# the final leg is clear, then the caller splices the (m, 3) rows into the
# path (FleetPaths.splice).
print("\nreplan() from three seeds")
for seed in (1, 2, 3):
    wps = replan(uav, target, obstacle, flat, params, rng_seed=seed, now=now).tolist()
    pts = [uav.position, *wps, target]
    length = sum(distance3(a, b) for a, b in zip(pts, pts[1:]))
    clear = not any(segment_obstructed(a, b, obstacle, now) for a, b in zip(pts, pts[1:]))
    route = " -> ".join(f"({north:.0f}, {east:.0f})" for north, east, _ in wps)
    print(f"  seed {seed}: {len(wps)} waypoint(s) {route}, total {length:.1f} m, all legs clear = {clear}")
