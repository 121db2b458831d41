"""Volume fluctuations: the power law that exposed light quanta.

N independent components all crowd into a fraction f of their volume with
probability f^N = exp(dS/k), identically for gas molecules and for quanta
counted as N = E / (h nu). Brute-force point placement confirms the law,
and Brillouin's photon-probe balance shows detection always overpays.
"""

import math

from demonlab import fluctuations as fl
from demonlab.units import NATURAL_UNITS

print("entropy change and fluctuation probability, V/V0 = 0.5:")
print("  N    dS/k        W = (V/V0)^N   exp(dS/k)")
for n in (1, 3, 5, 10):
    spec = fl.FluctuationSpec(n, 0.5)
    ds = fl.gas_entropy_change(spec)
    w = fl.fluctuation_probability(spec)
    print(f"  {n:2d}  {ds:+.6f}   {w:.6e}   {math.exp(ds):.6e}")

print("\nradiation with E = 5 h nu behaves as N = 5 components:")
units = NATURAL_UNITS
radiation = fl.FluctuationSpec.from_radiation(5.0 * units.h * 2.0, 2.0, 0.5, units)
ds_rad = fl.gas_entropy_change(radiation, units)
print(f"  dS(radiation)/k = {ds_rad:+.6f}   (5 ln(1/2) = {5 * math.log(0.5):+.6f})")

print("\nMonte-Carlo all-inside frequency, 10^6 trials each:")
print("  N   V/V0   empirical    analytic")
for seed, (n, ratio) in enumerate([(1, 0.3), (3, 0.5), (5, 0.5), (10, 0.3)]):
    spec = fl.FluctuationSpec(n, ratio)
    emp = fl.monte_carlo_fluctuation(spec, 1_000_000, rng_seed=seed)
    print(f"  {n:2d}   {ratio:.1f}   {emp:.6f}    {fl.fluctuation_probability(spec):.6f}")

print("\nBrillouin's balance for one photon-probe detection (k = T = 1):")
print("  h nu1 / kT   dS_demon   dS_gas(exact)   net")
for b in (1.0, 10.0, 100.0):
    spec = fl.BrillouinSpec(b=b, info_fraction=1e-4)
    bal = fl.brillouin_balance(spec)
    print(f"  {b:10.1f}   {bal['dS_demon']:8.3f}   {bal['dS_gas_exact']:+.3e}"
          f"     {bal['net']:8.3f}")
print("the probe's entropy injection always dwarfs the information gain")
