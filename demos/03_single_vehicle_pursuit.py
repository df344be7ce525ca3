"""One vehicle flying a dogleg under look-ahead pursuit guidance.

Wires the control chain by hand, the same calls the mission harness
makes each tick, here for a fleet of one: advance the virtual target
along the path table (``FleetPaths``), form the look-ahead angles, turn
them into bank and load-factor commands, then integrate autopilot lags
and kinematics. The paths, the steering law and the dynamics take the
fleet as arrays with one column per vehicle (``fleet_arrays``). No wind here, so the track shows
the pure guidance transient: an initial 200 m lateral offset collapses,
then the dogleg corner is rounded by the acceptance radius and the bank
limit.
"""

import math

import numpy as np

from flocksim import (
    AutopilotParams,
    FleetPaths,
    GuidanceParams,
    Point3,
    UavLimits,
    UavState,
    actuator_bounds,
    advance_virtual_target,
    convergence_conditions,
    distance3,
    fleet_arrays,
    guidance_commands,
    look_ahead_angles,
    reference_angles,
    step_autopilot,
    step_kinematics,
)

DT = 0.1

guidance = GuidanceParams(k_chi=8.8844, k_gamma=8.8844)
autopilot = AutopilotParams()
limits = UavLimits()
paths = FleetPaths([[(800.0, 0.0, 120.0), (1100.0, 500.0, 120.0)]])
# Start 200 m right of the first leg, course already along it.
y, act = fleet_arrays([UavState(position=Point3(0.0, 200.0, 100.0), chi=0.0, gamma=0.0,
                                psi=0.0, v_g=13.5)])
lo, hi = actuator_bounds([limits])
calm = np.zeros((2, 1))  # course and climb rate disturbances

print("t [s]   north    east  height  course  |eta_lat|  premises  wp")
track = []
closest = [math.inf, math.inf]
for k in range(1500):
    t = k * DT
    north, east, height, chi, _, _ = y[:, 0].tolist()
    # Move the cursor past the waypoints reached or behind the velocity;
    # the last one stays.
    offset, distance = advance_virtual_target(paths, y, guidance)
    cursor = int(paths.cursor[0])
    closest[cursor] = min(closest[cursor], distance[0])

    chi_c, gamma_c = reference_angles(offset)
    eta_lat, eta_lon = look_ahead_angles(y[3], y[4], chi_c, gamma_c)
    lat_ok, lon_ok, sign_ok = convergence_conditions(eta_lat, eta_lon, y, paths.active[2], guidance)
    phi_c, n_lf_c = guidance_commands(eta_lat, eta_lon, y, act, guidance, lo, hi)

    if k % 50 == 0:
        premises_ok = bool(lat_ok[0] and lon_ok[0] and sign_ok[0])
        print(f"{t:5.1f}  {north:6.0f}  {east:6.0f}  {height:6.1f}  {math.degrees(chi):6.1f}  "
              f"{abs(math.degrees(eta_lat[0])):8.2f}  {str(premises_ok):>8}  {cursor}")

    act = step_autopilot(act, np.array([phi_c, n_lf_c, [13.5]]), lo, hi, DT, autopilot)
    y = step_kinematics(y, act, calm, DT, autopilot)
    position = y[:3, 0].tolist()
    track.append(tuple(position[:2]))
    if not paths.movable[0] and distance3(position, paths.active[:, 0]) < 15.0:
        print(f"{t:5.1f}  arrived at the final waypoint")
        break

print(f"\nclosest approach: waypoint 0 at {closest[0]:.1f} m, waypoint 1 at {closest[1]:.1f} m")

# Top-down track, north rightward, east upward, ~40 m per column.
cols, rows = 58, 17
n_max, e_max = 1200.0, 650.0
canvas = [[" "] * cols for _ in range(rows)]
for north, east in track:
    c = int(north / n_max * (cols - 1))
    r = int(east / e_max * (rows - 1))
    if 0 <= r < rows and 0 <= c < cols:
        canvas[r][c] = "."
for i, (north, east, _) in enumerate(paths.waypoints[0].tolist()):
    c = int(north / n_max * (cols - 1))
    r = int(east / e_max * (rows - 1))
    canvas[r][c] = str(i)
print("\ntrack (north to the right, east up, digits are waypoints)")
for row in reversed(canvas):
    print("  |" + "".join(row) + "|")
