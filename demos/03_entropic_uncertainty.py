"""The joint information bound I(x) + I(p) >= ln(he/2), saturated by Gaussians.

Squeezing position information out of a packet pumps the same information
into momentum: the sum is invariant for Gaussians and strictly larger for
anything else (here: the hard-box ground state and a two-packet mixture).
"""

import math

import numpy as np

from demonlab import qiur

bound = qiur.qiur_bound()
print(f"bound ln(he/2) at h = 1: {bound:.6f}\n")

print("minimum-uncertainty Gaussians (squeeze-invariant):")
print(" sigma_x     I(x)        I(p)       joint      excess")
for sigma in (0.25, 1.0, 4.0):
    psi = qiur.gaussian_packet(sigma)
    rep = qiur.entropy_report(psi)
    print(
        f"  {sigma:5.2f}  {rep['I_x']:+.6f}  {rep['I_p']:+.6f}  "
        f"{rep['joint']:.6f}  {rep['joint'] - bound:+.1e}"
    )

print("\nhard-box ground state (non-Gaussian, exceeds the bound):")
rep = qiur.entropy_report(qiur.box_ground_state(1.0))
print(f"  I(x) = {rep['I_x']:+.6f}, I(p) = {rep['I_p']:+.6f}, "
      f"joint = {rep['joint']:.6f}, excess = {rep['joint'] - bound:+.4f}")

print("\ntwo displaced packets with opposite momentum tilts:")
n, span = 4096, 160.0
dx = span / n
xs = -(n // 2) * dx + dx * np.arange(n)
hbar = 1.0 / (2.0 * math.pi)
amps = np.exp(-((xs - 2.0) ** 2) / 4.0 + 1j * 0.5 * xs / hbar)
amps = amps + np.exp(-((xs + 2.0) ** 2) / 4.0 - 1j * 0.5 * xs / hbar)
amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
rep = qiur.entropy_report(qiur.Grid(origin=float(xs[0]), spacing=dx, amps=amps))
print(f"  joint = {rep['joint']:.6f}, excess = {rep['joint'] - bound:+.4f}, "
      f"satisfied = {rep['satisfied']}")

print("\nmomentum squeezing lowers S = k I(p) by exactly k ln 2 per halving:")
from demonlab.units import UnitSystem

u = UnitSystem(h=2.0 * math.pi)
for sx in (0.5, 1.0, 2.0):
    phi = qiur.to_momentum(qiur.gaussian_packet(sx), u)
    print(f"  sigma_x = {sx:3.1f} -> S = {qiur.thermodynamic_entropy(phi, u):+.6f}")
