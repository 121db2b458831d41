"""Wavefunction builders and reference helpers shared by the uncertainty test suites."""

import math

import numpy as np

from demonlab import qiur
from demonlab.units import NATURAL_UNITS


def random_mixture(rng, units=NATURAL_UNITS, n=4096, span=160.0):
    """Normalized random Gaussian mixture with phase tilts on a generous grid.

    The wide span refines the conjugate momentum grid (dp = h / span) so the
    narrowest mixture component stays well resolved.
    """
    n_comp = int(rng.integers(1, 4))
    dx = span / n
    x0 = -(n // 2) * dx
    xs = x0 + dx * np.arange(n)
    amps = np.zeros(n, dtype=complex)
    for _ in range(n_comp):
        center = rng.uniform(-3.0, 3.0)
        sigma = rng.uniform(0.5, 2.0)
        tilt = rng.uniform(-2.0, 2.0)
        weight = rng.uniform(0.2, 1.0)
        amps += weight * np.exp(
            -((xs - center) ** 2) / (4.0 * sigma**2) + 1j * tilt * xs / units.hbar
        )
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
    return qiur.Grid(origin=x0, spacing=dx, amps=amps)


def box_mode(rng, n=4096, span_factor=16.0):
    """Random low excited state of a hard box, zero-padded."""
    length = rng.uniform(0.5, 3.0)
    mode = int(rng.integers(1, 4))
    width = span_factor * length
    dx = width / n
    x0 = -(width - length) / 2.0
    xs = x0 + dx * np.arange(n)
    inside = (xs >= 0.0) & (xs <= length)
    amps = np.where(
        inside, np.sin(mode * np.pi * np.clip(xs, 0.0, length) / length), 0.0
    ).astype(complex)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
    return qiur.Grid(origin=x0, spacing=dx, amps=amps)


def pre_phase_to_momentum(psi, units=NATURAL_UNITS):
    """Reference for qiur.to_momentum that centres the spectrum with a pre-phase
    exp(2 pi i m j / n), m = n // 2, and forms the origin phase from p * origin / hbar."""
    hbar = units.hbar
    n = psi.n
    m = n // 2
    dp = 2.0 * math.pi * hbar / (n * psi.spacing)
    ps = (np.arange(n) - m) * dp
    pre_phase = np.exp(2j * math.pi * m * np.arange(n) / n)
    spectrum = np.fft.fft(psi.amps * pre_phase)
    scale = psi.spacing / math.sqrt(2.0 * math.pi * hbar)
    amps = scale * np.exp(-1j * ps * psi.origin / hbar) * spectrum
    return qiur.Grid(origin=float(ps[0]), spacing=dp, amps=amps)


def to_position(phi, units=NATURAL_UNITS, *, x0):
    """Inverse of qiur.to_momentum onto the position grid that starts at x0."""
    hbar = units.hbar
    n = phi.n
    dx = 2.0 * math.pi * hbar / (n * phi.spacing)
    g = phi.amps * np.exp(1j * (phi.origin + phi.spacing * np.arange(n)) * x0 / hbar)
    post_phase = np.exp(1j * phi.origin * np.arange(n) * dx / hbar)
    amps = (phi.spacing / math.sqrt(2.0 * math.pi * hbar)) * post_phase * n * np.fft.ifft(g)
    return qiur.Grid(origin=x0, spacing=dx, amps=amps)


def density_moments(values, density, spacing):
    """(mean, standard deviation) of a sampled density."""
    mean = float(np.sum(values * density) * spacing)
    var = float(np.sum((values - mean) ** 2 * density) * spacing)
    return mean, math.sqrt(max(var, 0.0))


def uncertainty_product(state):
    """sigma_x * sigma_p of a qiur.GaussianState."""
    return state.sigma_x * state.sigma_p


def is_minimum_uncertainty(state, units=NATURAL_UNITS, rtol=1e-12):
    """True iff sigma_x*sigma_p equals hbar/2 to relative tolerance rtol."""
    target = 0.5 * units.hbar
    return abs(uncertainty_product(state) - target) <= rtol * target
