"""Terrain rasters and pop-up cylinder geometry.

Loads the bundled elevation grid, queries it at a few points to show the
bilinear interpolation, prints a coarse character map of the footprint,
and then walks through the two clearance predicates every mission leg is
checked against: lateral distance to an (active) cylinder and minimum
height over terrain along a sampled segment.
"""

from pathlib import Path

import numpy as np

from flocksim import (
    Obstacle,
    Point3,
    ReplanParams,
    dem_elevation,
    lateral_distance,
    load_dem,
    segment_above_terrain,
    segment_obstructed,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

grid = load_dem(SCENARIOS / "terrain.dem")
n_rows, n_cols = grid.elevation.shape
span = grid.cell_size * (n_rows - 1)
print("terrain raster")
print(f"  nodes      : {n_rows} x {n_cols}, cell {grid.cell_size:.0f} m")
print(f"  origin     : north {grid.origin_north:.0f} m, east {grid.origin_east:.0f} m")
print(f"  footprint  : {span:.0f} x {span:.0f} m")
print(f"  elevation  : {grid.elevation.min():.1f} .. {grid.elevation.max():.1f} m")

# Node hits return the stored value; interior points blend four nodes.
print("\nbilinear queries")
for north, east in [(0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (-1585.0, 45.0)]:
    z = dem_elevation(grid, north, east)
    print(f"  z({north:8.1f}, {east:8.1f}) = {z:6.2f} m")

# Character map, one glyph per ~340 m: space = low, # = high.
print("\nelevation map (north up, '.' low ground, '#' ridges)")
glyphs = " .:-=+*#"
axis = np.linspace(grid.origin_north, grid.origin_north + span, 25)
lo, hi = grid.elevation.min(), grid.elevation.max()
for north in axis[::-1]:
    row = ""
    for east in axis:
        z = dem_elevation(grid, north, east)
        row += glyphs[min(int((z - lo) / (hi - lo) * len(glyphs)), len(glyphs) - 1)]
    print("  " + row)

# The reference mission's cylinder: 90 m radius, pops up at t = 75 s.
obstacle = Obstacle(
    center_north=-1585.0,
    center_east=45.0,
    lateral_radius=90.0,
    base_height=0.0,
    top_height=250.0,
    activation_time=75.0,
)
a = Point3(-1800.0, 0.0, 110.0)
b = Point3(-1300.0, 0.0, 110.0)
center = Point3(obstacle.center_north, obstacle.center_east, 110.0)
print("\npop-up cylinder")
print(f"  center ({obstacle.center_north:.0f}, {obstacle.center_east:.0f}), "
      f"radius {obstacle.lateral_radius:.0f} m, active from t = {obstacle.activation_time:.0f} s")
print(f"  leg {a.north:.0f}..{b.north:.0f} m passes {lateral_distance(center, Point3(-1585.0, 0.0, 110.0)):.0f} m "
      "from the axis, inside the radius")
for t in (74.0, 75.0, 76.0):
    print(f"  t = {t:5.1f} s: segment_obstructed = {segment_obstructed(a, b, obstacle, t)}")

# Terrain check: same leg at cruise height clears, a low pass does not.
# Samples are spaced as the replanner spaces them.
print("\nterrain clearance along the same leg (10 m required)")
for h in (110.0, 80.0, 60.0):
    lo_leg = Point3(a.north, a.east, h)
    hi_leg = Point3(b.north, b.east, h)
    ok = segment_above_terrain(grid, lo_leg, hi_leg, clearance=10.0, step=ReplanParams().terrain_step)
    print(f"  height {h:5.1f} m: clear = {ok}")
