"""Relaxation to equilibrium and the entropy monotonicity that drives it.

A symmetric rate matrix generates dp/dt = L p. Watch a lopsided start
relax to the uniform distribution while -sum p ln p climbs to ln n and the
entropy-production rate decays to zero, never dipping negative.
"""

import numpy as np

from demonlab import markov

# a 5-state chain with random connected symmetric rates
rng = np.random.default_rng(1)
rates = markov.random_symmetric_rates(5, rng)
print("rate matrix:")
print(np.array2string(rates.rates, precision=3))

p0 = markov.ProbDist([0.90, 0.04, 0.03, 0.02, 0.01])
print(f"\nstarting entropy S(0) = {markov.shannon_entropy(p0):.6f}")
print(f"uniform ceiling ln 5  = {markov.max_entropy(5):.6f}")

report = markov.verify_h_theorem(rates, p0, np.linspace(0.0, 8.0, 17))
print("\n   t        S(t)      dS/dt    dist to uniform")
for t, s, rate, dist in report.to_rows():
    print(f"{t:6.2f}  {s:.6f}  {rate:9.2e}  {dist:9.2e}")

print(f"\nentropy nondecreasing: {report.monotone}")
print(f"smallest sampled production rate: {report.min_production:+.2e}")

eq = markov.equilibrium_distribution(rates)
print(f"equilibrium (detailed balance residual {markov.detailed_balance_residual(rates, eq):.1e}):")
print(np.array2string(eq.p, precision=6))
