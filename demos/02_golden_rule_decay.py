"""Perturbative decay rates and the exponential survival law they imply.

The first-order rate (2 pi / hbar) |M|^2 rho sets the exponential clock;
a seeded ensemble of waiting times reproduces e^{-gamma t} to Monte-Carlo
accuracy and the mean waiting time recovers the lifetime 1/gamma.
"""

import math

import numpy as np

from demonlab import fgr
from demonlab.units import UnitSystem

units = UnitSystem(h=2.0 * math.pi)  # hbar = 1
channel = fgr.DecayChannel(matrix_element_sq=0.05, density_of_states=1.2)
gamma = fgr.golden_rule_rate(channel, units)
level = fgr.ExcitedLevel(gamma, units)
print(f"decay rate gamma   = {gamma:.6f}")
print(f"lifetime 1/gamma   = {fgr.lifetime(level):.6f}")
print(f"level width hbar*gamma = {level.width:.6f}")

sample = fgr.simulate_decay(gamma, n_samples=200_000, rng_seed=42)
print(f"\nmean waiting time  = {sample.mean_waiting_time():.4f}"
      f"  (expect {1.0 / gamma:.4f})")

print("\n   t      empirical   e^(-gamma t)")
for t in np.linspace(0.0, 3.0 / gamma, 7):
    print(f"{t:6.2f}   {sample.survival(t):.5f}     {math.exp(-gamma * t):.5f}")

half_life = math.log(2.0) / gamma
print(f"\nsurvival at the half-life {half_life:.3f}: {sample.survival(half_life):.4f}")
