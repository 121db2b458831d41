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

from .errors import InvalidInputError, require_count, require_positive
from .reporting import binomial_3sigma
from .units import NATURAL_UNITS, UnitSystem

#: Monte-Carlo trials place N points each; beyond this N the all-inside
#: event is too rare to resolve at desk-scale trial counts.
MC_MAX_COMPONENTS = 20
MC_MIN_TRIALS = 10_000
#: More trials would not fit in time: N draws each, about 1 s per 10**7 at N = 3.
MC_MAX_TRIALS = 10**7

_MC_CHUNK = 200_000


@dataclass(frozen=True)
class FluctuationSpec:
    """Component count and the volume pair (V, V0), with V <= V0.

    n_components may be non-integral (e.g. E/(h nu) for radiation); the
    Monte-Carlo oracle rounds it. V > V0 is refused: dS would change sign
    and (V/V0)^N would exceed 1.
    """

    n_components: float
    volume_v: float
    volume_v0: float

    def __post_init__(self) -> None:
        require_positive("n_components", self.n_components, least=1.0)
        require_positive("volume_v", self.volume_v)
        require_positive("volume_v0", self.volume_v0)
        if self.volume_v > self.volume_v0:
            raise InvalidInputError("V > V0 is refused: the sign of dS flips")

    @property
    def volume_ratio(self) -> float:
        return self.volume_v / self.volume_v0

    @classmethod
    def from_radiation(
        cls,
        energy: float,
        frequency: float,
        volume_v: float,
        volume_v0: float,
        units: UnitSystem = NATURAL_UNITS,
    ) -> "FluctuationSpec":
        """Spec with N = E / (h nu)."""
        h_nu = require_positive(f"h * frequency of {units}", units.h * frequency)
        n = require_positive("N = energy / (h * frequency)", energy / h_nu, least=1.0)
        return cls(n_components=n, volume_v=volume_v, volume_v0=volume_v0)


def _entropy_change(n: float, v: float, v0: float, units: UnitSystem) -> float:
    """k N (ln V - ln V0): no ratio to under- or overflow, and a finite result or an error."""
    ds = units.k * n * (math.log(v) - math.log(v0))
    require_positive(f"|k N ln(V/V0)| of N={n!r}, V={v!r}, V0={v0!r}, {units}", abs(ds), least=0.0)
    return ds


def gas_entropy_change(spec: FluctuationSpec, units: UnitSystem = NATURAL_UNITS) -> float:
    """k N ln(V/V0); nonpositive for a contraction (V <= V0)."""
    return _entropy_change(spec.n_components, spec.volume_v, spec.volume_v0, units)


def radiation_entropy_change(
    energy: float,
    frequency: float,
    volume_v: float,
    volume_v0: float,
    units: UnitSystem = NATURAL_UNITS,
) -> float:
    """k (E / h nu) ln(V/V0); the gas formula with N read off the radiation."""
    require_positive("energy", energy, least=0.0)
    h_nu = require_positive(f"h * frequency of {units}", units.h * frequency)
    n = require_positive("N = energy / (h * frequency)", energy / h_nu, least=0.0)
    v, v0 = require_positive("volume_v", volume_v), require_positive("volume_v0", volume_v0)
    return _entropy_change(n, v, v0, units)


def fluctuation_probability(spec: FluctuationSpec) -> float:
    """(V/V0)^N, the chance all N independent components sit inside V."""
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
    n = require_count("round(n_components)", round(spec.n_components), 1, MC_MAX_COMPONENTS)
    require_count("n_trials", n_trials, MC_MIN_TRIALS, MC_MAX_TRIALS)
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
    frequency within 3 sigma of W (if n_trials != 0), and a positive Brillouin
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
    if n_trials != 0:
        emp = derived["mc_probability"] = monte_carlo_fluctuation(spec, n_trials, rng_seed)
        tol = derived["mc_tol_3sigma"] = binomial_3sigma(prob, n_trials)
        verdicts["mc_within_3sigma"] = abs(emp - prob) <= tol
    if brillouin is not None:
        derived["brillouin"] = brillouin_balance(brillouin, units)
        verdicts["brillouin_net_positive"] = derived["brillouin"]["net"] > 0
    return derived, verdicts
