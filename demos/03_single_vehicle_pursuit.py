"""One vehicle flying a dogleg under look-ahead pursuit guidance.

Wires the control chain by hand, the same calls the mission harness
makes each tick: advance the virtual target along the waypoint list,
form the look-ahead angles, turn them into bank and load-factor
commands, then integrate autopilot lags and kinematics. No wind here,
so the track shows the pure guidance transient: an initial 200 m lateral
offset collapses, then the dogleg corner is rounded by the acceptance
radius and the bank limit.
"""

import math

from flocksim import (
    AutopilotParams,
    Commands,
    GuidanceParams,
    NO_DISTURBANCE,
    Point3,
    UavLimits,
    UavState,
    WaypointPath,
    advance_virtual_target,
    convergence_conditions,
    distance3,
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
path = WaypointPath(
    waypoints=(Point3(800.0, 0.0, 120.0), Point3(1100.0, 500.0, 120.0)),
    acceptance_radius=guidance.acceptance_radius,
)
# Start 200 m right of the first leg, course already along it.
state = UavState(position=Point3(0.0, 200.0, 100.0), chi=0.0, gamma=0.0,
                 psi=0.0, v_g=13.5)

print("t [s]   north    east  height  course  |eta_lat|  premises  wp")
track = []
closest = [math.inf, math.inf]
for k in range(1500):
    t = k * DT
    path = advance_virtual_target(path, state)
    target = path.active
    closest[path.cursor] = min(closest[path.cursor], distance3(state.position, target))

    chi_c, gamma_c = reference_angles(state, target)
    angles = look_ahead_angles(state, chi_c, gamma_c)
    report = convergence_conditions(angles, state, target, guidance)
    phi_c, n_lf_c = guidance_commands(state, angles, guidance, limits)

    if k % 50 == 0:
        print(f"{t:5.1f}  {state.position.north:6.0f}  {state.position.east:6.0f}  "
              f"{state.position.height:6.1f}  {math.degrees(state.chi):6.1f}  "
              f"{abs(math.degrees(angles.eta_lat)):8.2f}  {str(report.all_ok):>8}  {path.cursor}")

    state = step_autopilot(state, Commands(phi=phi_c, n_lf=n_lf_c, v_g=13.5), limits, DT, autopilot)
    state = step_kinematics(state, NO_DISTURBANCE, DT, autopilot)
    track.append((state.position.north, state.position.east))
    if path.cursor == len(path.waypoints) - 1 and distance3(state.position, path.active) < 15.0:
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
for i, wp in enumerate(path.waypoints):
    c = int(wp.north / n_max * (cols - 1))
    r = int(wp.east / e_max * (rows - 1))
    canvas[r][c] = str(i)
print("\ntrack (north to the right, east up, digits are waypoints)")
for row in reversed(canvas):
    print("  |" + "".join(row) + "|")
