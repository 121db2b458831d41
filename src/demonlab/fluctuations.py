"""Volume-fluctuation statistics of independent components, plus Brillouin's balance.

A system of N statistically independent components confined to a volume
changes entropy by k N ln(V/V0) when the occupied volume shrinks from V0 to
V, whether the components are gas molecules or quanta of radiation with
N = E / (h nu). The probability of such a spontaneous fluctuation is

    W = (V/V0)^N = exp(dS / k),

the form forced by consistency with the entropy change through Boltzmann's
relation. (A published variant reading (V/V0) e^N exceeds unity for N >= 1
and cannot be a probability; it is treated here as a typographical slip.)
A brute-force Monte-Carlo harness places N independent uniform points per
trial and reproduces the power law.

Brillouin's detection balance is included: a probe photon with
h nu_1 >> kT raises the gas entropy by h nu_1 / T while the acquired
information reduces the microstate count P0 by p << P0, lowering entropy by
only k ln(P0 / (P0 - p)) ~ k p / P0, so the net change stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InvalidInputError, require_positive
from .reporting import binomial_3sigma
from .units import NATURAL_UNITS, UnitSystem

#: Monte-Carlo trials place N points each; beyond this N the all-inside
#: event is too rare to resolve at desk-scale trial counts.
MC_MAX_COMPONENTS = 20
MC_MIN_TRIALS = 10_000

_MC_CHUNK = 200_000


@dataclass(frozen=True)
class FluctuationSpec:
    """Component count and the volume pair (V, V0).

    n_components may be non-integral (e.g. E/(h nu) for radiation); the
    Monte-Carlo oracle rounds it and records nothing further. V > V0 is
    permitted only when constructed with allow_expansion=True.
    """

    n_components: float
    volume_v: float
    volume_v0: float
    allow_expansion: bool = False
    rounding_remainder: float = 0.0

    def __post_init__(self) -> None:
        if not (self.n_components >= 1 and math.isfinite(self.n_components)):
            raise InvalidInputError("n_components must be >= 1")
        require_positive("volume_v", self.volume_v)
        require_positive("volume_v0", self.volume_v0)
        if self.volume_v > self.volume_v0 and not self.allow_expansion:
            raise InvalidInputError(
                "V > V0 requires allow_expansion=True (sign of dS flips)"
            )

    @property
    def volume_ratio(self) -> float:
        return self.volume_v / self.volume_v0

    @property
    def n_int(self) -> int:
        return int(round(self.n_components))

    @classmethod
    def from_radiation(
        cls,
        energy: float,
        frequency: float,
        volume_v: float,
        volume_v0: float,
        units: UnitSystem = NATURAL_UNITS,
        allow_expansion: bool = False,
    ) -> "FluctuationSpec":
        """Spec with N = E / (h nu); the integer-rounding remainder is recorded."""
        require_positive("energy", energy)
        require_positive("frequency", frequency)
        n = energy / (units.h * frequency)
        return cls(
            n_components=n,
            volume_v=volume_v,
            volume_v0=volume_v0,
            allow_expansion=allow_expansion,
            rounding_remainder=n - round(n),
        )


def gas_entropy_change(spec: FluctuationSpec, units: UnitSystem = NATURAL_UNITS) -> float:
    """k N ln(V/V0); nonpositive for a contraction (V <= V0)."""
    return units.k * spec.n_components * math.log(spec.volume_ratio)


def radiation_entropy_change(
    energy: float,
    frequency: float,
    volume_v: float,
    volume_v0: float,
    units: UnitSystem = NATURAL_UNITS,
) -> float:
    """k (E / h nu) ln(V/V0); the gas formula with N read off the radiation."""
    if energy < 0 or not math.isfinite(energy):
        raise InvalidInputError("energy must be finite and nonnegative")
    require_positive("frequency", frequency)
    if not (volume_v > 0 and volume_v0 > 0):
        raise InvalidInputError("volumes must be positive")
    return units.k * (energy / (units.h * frequency)) * math.log(volume_v / volume_v0)


def fluctuation_probability(spec: FluctuationSpec) -> float:
    """(V/V0)^N, the chance all N independent components sit inside V."""
    if spec.volume_ratio > 1.0:
        raise InvalidInputError("fluctuation probability requires V <= V0")
    return spec.volume_ratio**spec.n_components


def monte_carlo_fluctuation(
    spec: FluctuationSpec, n_trials: int, rng_seed: int
) -> float:
    """Empirical all-inside frequency from n_trials seeded placements.

    Each trial drops round(N) independent uniform points into V0 and counts
    success when every point lands inside the sub-volume of fractional size
    V/V0 (a uniform draw below the ratio, which is the same event in any
    dimension).
    """
    n = spec.n_int
    if n > MC_MAX_COMPONENTS:
        raise InvalidInputError(f"Monte-Carlo oracle limited to N <= {MC_MAX_COMPONENTS}")
    if n_trials < MC_MIN_TRIALS:
        raise InvalidInputError(f"need at least {MC_MIN_TRIALS} trials")
    if spec.volume_ratio > 1.0:
        raise InvalidInputError("Monte-Carlo fluctuation requires V <= V0")
    ratio = spec.volume_ratio
    rng = np.random.default_rng(rng_seed)
    hits = 0
    remaining = n_trials
    while remaining > 0:
        chunk = min(_MC_CHUNK, remaining)
        u = rng.random((chunk, n))
        hits += int(np.count_nonzero(u.max(axis=1) < ratio))
        remaining -= chunk
    return hits / n_trials


@dataclass(frozen=True)
class BrillouinSpec:
    """Probe frequency, bath temperature, and microstate bookkeeping."""

    temperature_T: float
    nu1: float
    p0_count: float
    p_info: float

    def __post_init__(self) -> None:
        require_positive("temperature_T", self.temperature_T)
        require_positive("nu1", self.nu1)
        require_positive("p0_count", self.p0_count)
        if not (0 <= self.p_info < self.p0_count):
            raise InvalidInputError("p_info must satisfy 0 <= p_info < p0_count")


def brillouin_balance(
    spec: BrillouinSpec, units: UnitSystem = NATURAL_UNITS
) -> dict[str, Any]:
    """Entropy balance of one illuminated detection.

    dS_demon = h nu_1 / T is injected by the probe photon; the information
    gained shrinks the microstate count from P0 to P0 - p, worth
    dS_gas = k ln((P0 - p)/P0) exactly, ~ -k p / P0 to first order. Both
    forms are reported; the net uses the exact one.
    """
    ds_demon = units.h * spec.nu1 / spec.temperature_T
    frac = spec.p_info / spec.p0_count
    ds_gas_exact = units.k * math.log1p(-frac)
    ds_gas_approx = -units.k * frac
    return {
        "dS_demon": ds_demon,
        "dS_gas_exact": ds_gas_exact,
        "dS_gas_approx": ds_gas_approx,
        "net": ds_demon + ds_gas_exact,
        "net_approx": ds_demon + ds_gas_approx,
    }


def fluctuation_report(
    spec: FluctuationSpec,
    n_trials: int,
    rng_seed: int,
    brillouin: BrillouinSpec | None = None,
    units: UnitSystem = NATURAL_UNITS,
) -> tuple[dict[str, Any], dict[str, bool]]:
    """Derived values and verdicts: exp(dS/k) = W within 1e-12, the Monte-Carlo
    frequency within 3 sigma of W (if n_trials > 0), and a positive Brillouin
    net balance (if a BrillouinSpec is given)."""
    ds = gas_entropy_change(spec, units)
    prob = fluctuation_probability(spec)
    gap = abs(math.exp(ds / units.k) - prob)
    derived: dict[str, Any] = {
        "n_components": spec.n_components,
        "volume_ratio": spec.volume_ratio,
        "dS": ds,
        "probability": prob,
        "identity_gap": gap,
    }
    verdicts = {"identity_ok": gap <= 1e-12}
    if n_trials > 0:
        emp = derived["mc_probability"] = monte_carlo_fluctuation(spec, n_trials, rng_seed)
        tol = derived["mc_tol_3sigma"] = binomial_3sigma(prob, n_trials)
        verdicts["mc_within_3sigma"] = abs(emp - prob) <= tol
    if brillouin is not None:
        derived["brillouin"] = brillouin_balance(brillouin, units)
        verdicts["brillouin_net_positive"] = derived["brillouin"]["net"] > 0
    return derived, verdicts
