"""Golden-rule decay rates and seeded stochastic decay sampling.

The first-order perturbative rate is (2*pi/hbar) |M|^2 rho(E), with the
energy-conserving delta function operationally replaced by a caller-supplied
density of final states. Decay itself is memoryless: waiting times are
exponential with the total rate, sampled here by inverse CDF from a seeded
64-bit PRNG so every curve is reproducible bit for bit.

A level's width follows the convention width = hbar * gamma, i.e.
lifetime = hbar / width. Conventions placing the 2*pi differently exist;
this module uses only the one declared here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, require_count, require_positive
from .reporting import Check
from .units import NATURAL_UNITS, UnitSystem

#: More waiting times would not fit in memory or time (8 bytes each, sorted).
MAX_SAMPLES = 10**7


@dataclass(frozen=True)
class DecayChannel:
    """Squared coupling |<i|H_I|f>|^2 and final-state density at resonance."""

    matrix_element_sq: float
    density_of_states: float

    def __post_init__(self) -> None:
        require_positive("matrix_element_sq", self.matrix_element_sq, least=0.0)
        require_positive("density_of_states", self.density_of_states, least=0.0)


@dataclass(frozen=True)
class ExcitedLevel:
    """Total decay rate gamma of a level, whose width is hbar * gamma."""

    gamma: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self) -> None:
        require_positive("gamma", self.gamma)

    @property
    def width(self) -> float:
        return self.units.hbar * self.gamma


def golden_rule_rate(channel: DecayChannel, units: UnitSystem = NATURAL_UNITS) -> float:
    """(2*pi/hbar) |M|^2 rho; linear in each factor."""
    return (2.0 * math.pi / units.hbar) * channel.matrix_element_sq * channel.density_of_states


def lifetime(level: ExcitedLevel) -> float:
    """Mean lifetime 1/gamma."""
    return 1.0 / level.gamma


@dataclass(frozen=True)
class DecaySample:
    """Sorted exponential waiting times from one seeded simulation."""

    CSV_HEADER = ("t", "empirical_survival", "analytic_survival")

    gamma: float
    seed: int
    waiting_times: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.waiting_times.size

    def survival(self, t: float) -> float:
        """Empirical fraction still undecayed at time t (exactly 1.0 at t = 0)."""
        return float(self.curve([t])[1][0])

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

    def to_rows(self) -> list[tuple[float, float, float]]:
        """Curve rows at 51 times from 0 to 5 lifetimes."""
        t, emp, ana = self.curve(np.linspace(0.0, 5.0 / self.gamma, 51))
        return list(zip(t.tolist(), emp.tolist(), ana.tolist()))

    @cached_property
    def survival_checks(self) -> dict[float, Check]:
        """t -> Check.binomial of survival against e^{-gamma t}, at ln 2, 1 and 2 lifetimes."""
        return {t: Check.binomial(self.survival(t), math.exp(-self.gamma * t), self.n_samples)
                for t in (math.log(2.0) / self.gamma, 1.0 / self.gamma, 2.0 / self.gamma)}

    def verdicts(self) -> dict[str, Check]:
        """The survival checks as one, passing when all three pass and carrying the one of least
        margin; the mean waiting time within 3 / (gamma sqrt(n)), i.e. 3 sigma, of 1 / gamma."""
        checks = self.survival_checks.values()
        worst = min(checks, key=lambda c: c.tolerance - abs(c.value - c.expected))
        tol = 3.0 / (self.gamma * math.sqrt(self.n_samples))
        return {
            "survival_within_3sigma": replace(worst, passed=all(c.passed for c in checks)),
            "mean_within_3sigma": Check.within(self.mean_waiting_time(), 1.0 / self.gamma, tol),
        }


def simulate_decay(gamma: float, n_samples: int, rng_seed: int) -> DecaySample:
    """Draw n_samples exponential waiting times with rate gamma (seeded).

    Inverse CDF: t = -ln(1 - U)/gamma with U uniform on [0, 1), so a fixed
    seed yields a bit-identical survival curve.
    """
    require_positive("gamma", gamma)
    require_count("n_samples", n_samples, 1, MAX_SAMPLES)
    # each time -ln(1 - U) / gamma is below 37 / gamma (U < 1 has 53 bits), so when this
    # is finite, so are the times' sum, the lifetime and the curve's five lifetimes
    require_positive(f"gamma too small: 37 n_samples / {gamma!r}", 37.0 * n_samples / gamma)
    times = np.random.default_rng(rng_seed).random(n_samples)
    np.log1p(np.negative(times, out=times), out=times)
    times /= -gamma  # x / (-gamma) is -(x / gamma) exactly: the times of -ln(1 - U) / gamma
    times.sort()
    times.setflags(write=False)
    return DecaySample(gamma=gamma, seed=rng_seed, waiting_times=times)
