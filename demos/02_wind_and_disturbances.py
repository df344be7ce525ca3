"""Gust streams and the angular-rate disturbances they induce.

The wind model keeps three first-order Gauss-Markov gust states (along,
cross, vertical) plus a constant ambient vector, and maps the cross and
vertical components into course/climb rate disturbances scaled by the
nominal airspeed. This script checks the sampled statistics against the
configured intensities, shows the saturation guard, and demonstrates
that equal seeds reproduce the stream bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from flocksim import WindModel, WindParams

# Reference-mission turbulence: sigma 2.12 / 2.12 / 1.4 m/s, scales 200 / 200 / 50 m.
SIGMA_V = 2.12
SIGMA_W = 1.4
AIRSPEED = 13.5
DT = 1.0

turbulence = WindParams(
    ambient=(2.5, 0.0, 0.0),
    sigma_u=2.12,
    sigma_v=SIGMA_V,
    sigma_w=SIGMA_W,
    length_u=200.0,
    length_v=200.0,
    length_w=50.0,
    airspeed_nominal=AIRSPEED,
    d_max=10.0,  # effectively no clip, so the raw statistics show through
)
wind = WindModel(turbulence, seed=42)

n = 20_000
d_chi = np.empty(n)
d_gamma = np.empty(n)
for k in range(n):
    d = wind.sample(DT)
    d_chi[k] = d.d_chi
    d_gamma[k] = d.d_gamma

print(f"{n} samples at dt = {DT} s")
print("                      measured   expected")
print(f"  std(d_chi)   rad/s  {d_chi.std():.5f}    {SIGMA_V / AIRSPEED:.5f}  (sigma_v / V)")
print(f"  std(d_gamma) rad/s  {d_gamma.std():.5f}    {SIGMA_W / AIRSPEED:.5f}  (sigma_w / V)")
print(f"  mean(d_chi)  rad/s  {d_chi.mean():+.5f}    +0.00000  (ambient east = 0)")

# Successive samples are correlated: the v-gust decays with exp(-dt*V/L).
rho = np.corrcoef(d_chi[:-1], d_chi[1:])[0, 1]
print(f"  lag-1 corr(d_chi)   {rho:.4f}     {math.exp(-DT * AIRSPEED / 200.0):.4f}  (exp(-dt V / L_v))")

# The same turbulence with the operational clip: tails fold onto +-d_max.
clipped = WindModel(replace(turbulence, d_max=0.1), seed=42)
vals = np.array([clipped.sample(DT).d_chi for _ in range(n)])
print(f"\nwith d_max = 0.1 rad/s: max |d_chi| = {np.abs(vals).max():.4f}, "
      f"{(np.abs(vals) >= 0.1 - 1e-12).mean() * 100:.2f}% of samples on the rail")

# Determinism: same seed, same stream; different seed, different stream.
lateral = WindParams(sigma_v=SIGMA_V, airspeed_nominal=AIRSPEED)
a = WindModel(lateral, seed=7)
b = WindModel(lateral, seed=7)
c = WindModel(lateral, seed=8)
seq_a = [a.sample(DT).d_chi for _ in range(5)]
seq_b = [b.sample(DT).d_chi for _ in range(5)]
seq_c = [c.sample(DT).d_chi for _ in range(5)]
print(f"\nseed 7 run 1 : {['%+.5f' % v for v in seq_a]}")
print(f"seed 7 run 2 : {['%+.5f' % v for v in seq_b]}")
print(f"seed 8       : {['%+.5f' % v for v in seq_c]}")
print(f"runs 1 and 2 identical: {seq_a == seq_b}")
