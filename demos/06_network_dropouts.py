"""Consensus resilience when the radio network keeps blacking out.

Same mission as demo 05, but every link is silenced for five seconds
out of every ten, fleet-wide, for the whole run. During a blackout a
vehicle hears nothing, the disagreement term vanishes, and its speed
setpoint simply stays where consensus last left it; when links return
the time indices pull back together. The comparison below shows the
dropout run lagging the clean run's agreement but landing inside the
same band by the end.
"""

from pathlib import Path

import numpy as np

from flocksim import load_scenario, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

clean = load_scenario(SCENARIOS / "reference_4uav.yaml")
lossy = load_scenario(SCENARIOS / "reference_4uav_dropout.yaml")
windows = lossy.comm.dropout_schedule
pairs = {(w.uav_a, w.uav_b) for w in windows}
starts = sorted({w.start_s for w in windows})
print(f"dropout schedule: {len(windows)} rows, {len(pairs)} pairs x {len(starts)} windows")
print(f"  first windows at t = {starts[:4]} s, each {windows[0].end_s - windows[0].start_s:.0f} s long")

log_clean, m_clean = run(clean)
log_lossy, m_lossy = run(lossy)

spread_clean = np.ptp(log_clean.thetas(), axis=1)
spread_lossy = np.ptp(log_lossy.thetas(), axis=1)

print("\ntime-index spread [s]")
print(" t [s]    clean    dropouts")
for tick in list(range(0, log_clean.n_ticks, 30)) + [log_clean.n_ticks - 1]:
    print(f"{tick * clean.dt:6.0f}   {spread_clean[tick]:6.2f}   {spread_lossy[tick]:6.2f}  "
          + "#" * int(round(spread_lossy[tick] / 2.0)))

print("\nfinal-tick spread : clean {:.2f} s, dropouts {:.2f} s".format(
    m_clean.md_final_s, m_lossy.md_final_s))
print(f"tracking accuracy : clean {m_clean.ae_mean_m:.2f} m, dropouts {m_lossy.ae_mean_m:.2f} m")
print(f"replan events     : clean {m_clean.n_replan_events}, dropouts {m_lossy.n_replan_events}")
