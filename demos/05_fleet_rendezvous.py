"""The bundled four-vehicle rendezvous mission, end to end.

Four vehicles approach a shared target from the cardinal directions
with deliberately unequal path lengths, so their arrival-time estimates
start about 65 s apart. Each tick every vehicle broadcasts its time
index, hears at most two nearest neighbors inside radio range, and
nudges its ground speed toward the fleet consensus. At t = 75 s a
cylinder pops up across vehicle 0's corridor and forces a local detour.
The run is fully deterministic for a fixed scenario file.
"""

from pathlib import Path

import numpy as np

from flocksim import compute_metrics, load_scenario, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

scenario = load_scenario(SCENARIOS / "reference_4uav.yaml")
print(f"scenario : {scenario.name}")
print(f"vehicles : {len(scenario.uavs)}, duration {scenario.duration:.0f} s at dt = {scenario.dt:.0f} s")
print(f"target   : ({scenario.target.north:.0f}, {scenario.target.east:.0f}, {scenario.target.height:.0f})")

log, metrics = run(scenario)
print(f"\nsimulated {log.n_ticks} ticks in {log.wall_s:.2f} s wall clock")

# Spread of the fleet's time indices, sampled every 30 s. The initial
# 65 s disagreement should collapse well before the rendezvous.
thetas = log.thetas()
print("\n t [s]   theta_0  theta_1  theta_2  theta_3   spread [s]  bar")
for tick in list(range(0, log.n_ticks, 30)) + [log.n_ticks - 1]:
    row = thetas[tick]
    spread = row.max() - row.min()
    bar = "#" * int(round(spread / 2.0))
    print(f"{tick * scenario.dt:6.0f}   {row[0]:7.1f}  {row[1]:7.1f}  {row[2]:7.1f}  {row[3]:7.1f}   "
          f"{spread:10.2f}  {bar}")

print("\nreplan events")
for ev in log.replan_events:
    wps = " -> ".join(f"({p.north:.0f}, {p.east:.0f})" for p in ev.waypoints)
    print(f"  t = {ev.tick * log.dt:.0f} s, vehicle {ev.uav_id}: spliced {len(ev.waypoints)} waypoint(s) {wps}, "
          f"detour overhead {ev.overhead:.2f} s")
for fail in log.replan_failures:
    print(f"  t = {fail.tick * log.dt:.0f} s, vehicle {fail.uav_id}: no acceptable detour this tick, retrying")

# Closest approach to each vehicle's original waypoints, the headline
# tracking-accuracy number.
print("\nmetrics")
for key, value in metrics.as_dict().items():
    if isinstance(value, list):
        print(f"  {key:22}: " + ", ".join(f"{v:.2f}" for v in value))
    else:
        print(f"  {key:22}: {value:.3f}" if isinstance(value, float) else f"  {key:22}: {value}")

# Final miss distances, per vehicle.
print("\nfinal distance to target")
for i in range(len(scenario.uavs)):
    pos = log.positions(i)[-1]
    miss = float(np.hypot(pos[0] - scenario.target.north, pos[1] - scenario.target.east))
    print(f"  vehicle {i}: {miss:7.1f} m")

recomputed = compute_metrics(log, scenario)
print(f"\nmetrics recompute from the log matches: {recomputed == metrics}")
