"""Golden-rule decay rates and seeded stochastic decay sampling.

The first-order perturbative rate is (2*pi/hbar) |M|^2 rho(E), with the
energy-conserving delta function operationally replaced by a caller-supplied
density of final states. Decay itself is memoryless: waiting times are
exponential with the total rate, sampled here by inverse CDF from a seeded
64-bit PRNG so every curve is reproducible bit for bit.

The level width is stored under the convention width = hbar * gamma, i.e.
lifetime = hbar / width. Conventions placing the 2*pi differently exist;
this module checks only the one declared here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .reporting import write_csv
from .units import NATURAL_UNITS, UnitSystem


@dataclass(frozen=True)
class DecayChannel:
    """Squared coupling |<i|H_I|f>|^2 and final-state density at resonance."""

    matrix_element_sq: float
    density_of_states: float

    def __post_init__(self) -> None:
        if not (self.matrix_element_sq >= 0 and math.isfinite(self.matrix_element_sq)):
            raise InvalidInputError("matrix_element_sq must be finite and >= 0")
        if not (self.density_of_states >= 0 and math.isfinite(self.density_of_states)):
            raise InvalidInputError("density_of_states must be finite and >= 0")


@dataclass(frozen=True)
class ExcitedLevel:
    """Total decay rate gamma and level width; width must equal hbar*gamma."""

    gamma: float
    width: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InvalidInputError("gamma must be positive")
        expected = self.units.hbar * self.gamma
        if abs(self.width - expected) > 1e-12 * expected:
            raise InvalidInputError(
                f"width {self.width!r} inconsistent with hbar*gamma = {expected!r}"
            )

    @classmethod
    def from_gamma(cls, gamma: float, units: UnitSystem = NATURAL_UNITS) -> "ExcitedLevel":
        return cls(gamma=gamma, width=units.hbar * gamma, units=units)


def golden_rule_rate(channel: DecayChannel, units: UnitSystem = NATURAL_UNITS) -> float:
    """(2*pi/hbar) |M|^2 rho; linear in each factor."""
    return (2.0 * math.pi / units.hbar) * channel.matrix_element_sq * channel.density_of_states


def lifetime(level: ExcitedLevel) -> float:
    """Mean lifetime 1/gamma."""
    return 1.0 / level.gamma


@dataclass(frozen=True)
class DecaySample:
    """Sorted exponential waiting times from one seeded simulation."""

    gamma: float
    seed: int
    waiting_times: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.waiting_times.size

    def survival(self, t: float) -> float:
        """Empirical fraction still undecayed at time t (exactly 1.0 at t = 0)."""
        if t < 0:
            raise InvalidInputError("time must be nonnegative")
        # times are sorted; count entries >= t
        idx = np.searchsorted(self.waiting_times, t, side="left")
        return float(self.n_samples - idx) / self.n_samples

    def mean_waiting_time(self) -> float:
        return float(self.waiting_times.mean())

    def curve(self, ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, empirical survival, analytic e^{-gamma t}) arrays."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise InvalidInputError("time must be nonnegative")
        idx = np.searchsorted(self.waiting_times, ts, side="left")
        emp = (self.n_samples - idx) / self.n_samples
        return ts, emp, np.exp(-self.gamma * ts)

    def to_csv(self, path: str | Path, ts: Sequence[float]) -> None:
        t, emp, ana = self.curve(ts)
        write_csv(
            path,
            ("t", "empirical_survival", "analytic_survival"),
            zip(t.tolist(), emp.tolist(), ana.tolist()),
        )


def simulate_decay(gamma: float, n_samples: int, rng_seed: int) -> DecaySample:
    """Draw n_samples exponential waiting times with rate gamma (seeded).

    Inverse CDF: t = -ln(1 - U)/gamma with U uniform on [0, 1), so a fixed
    seed yields a bit-identical survival curve.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise InvalidInputError("gamma must be positive")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    u = rng.random(n_samples)
    times = -np.log1p(-u) / gamma
    times.sort()
    times.setflags(write=False)
    return DecaySample(gamma=gamma, seed=rng_seed, waiting_times=times)
