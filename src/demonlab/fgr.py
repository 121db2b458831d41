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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, require_positive
from .reporting import binomial_3sigma
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
        require_positive("gamma", self.gamma)
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

    CSV_HEADER = ("t", "empirical_survival", "analytic_survival")

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

    def to_rows(self, ts: Sequence[float] | None = None) -> list[tuple[float, float, float]]:
        """Curve rows; by default at 51 times from 0 to 5 lifetimes."""
        if ts is None:
            ts = np.linspace(0.0, 5.0 / self.gamma, 51)
        t, emp, ana = self.curve(ts)
        return list(zip(t.tolist(), emp.tolist(), ana.tolist()))

    @cached_property
    def survival_checks(self) -> list[dict[str, float]]:
        """Survival at ln 2, 1 and 2 lifetimes against e^{-gamma t}, each with
        its binomial 3-sigma tolerance."""
        checks = []
        for t in (math.log(2.0) / self.gamma, 1.0 / self.gamma, 2.0 / self.gamma):
            p = math.exp(-self.gamma * t)
            tol = binomial_3sigma(p, self.n_samples)
            checks.append({"t": t, "empirical": self.survival(t), "analytic": p, "tol_3sigma": tol})
        return checks

    def verdicts(self) -> dict[str, bool]:
        """Each survival check within its tolerance; the mean waiting time within
        3 / (gamma sqrt(n)), i.e. 3 sigma, of the lifetime 1 / gamma."""
        mean_tol = 3.0 / (self.gamma * math.sqrt(self.n_samples))
        return {
            "survival_within_3sigma": all(
                abs(c["empirical"] - c["analytic"]) <= c["tol_3sigma"] for c in self.survival_checks
            ),
            "mean_within_3sigma": abs(self.mean_waiting_time() - 1.0 / self.gamma) <= mean_tol,
        }


def simulate_decay(gamma: float, n_samples: int, rng_seed: int) -> DecaySample:
    """Draw n_samples exponential waiting times with rate gamma (seeded).

    Inverse CDF: t = -ln(1 - U)/gamma with U uniform on [0, 1), so a fixed
    seed yields a bit-identical survival curve.
    """
    require_positive("gamma", gamma)
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    # each time -ln(1 - U) / gamma is below 37 / gamma (U < 1 has 53 bits), so when this
    # is finite, so are the times' sum, the lifetime and the curve's five lifetimes
    if not math.isfinite(37.0 * n_samples / gamma):
        raise InvalidInputError(f"gamma too small: the waiting times overflow, got {gamma!r}")
    rng = np.random.default_rng(rng_seed)
    u = rng.random(n_samples)
    times = -np.log1p(-u) / gamma
    times.sort()
    times.setflags(write=False)
    return DecaySample(gamma=gamma, seed=rng_seed, waiting_times=times)
