"""Maxwell's speed-sorting demon under the position/momentum trade-off.

Sorting by speed requires (a) a door no larger than the thermal packet,
d = h / (4 pi sigma_p(p_rms)) with p_rms = sqrt(3 m k T), and (b) a gentle
momentum probe, h nu_low << kT, which leaves the molecule with
sigma_p = sqrt(3 m h nu_low) and hence sigma_x = h / (4 pi sigma_p). The
four formulas collapse to

    sigma_x / d = sqrt(kT / (h nu_low)) > 1  whenever  h nu_low < kT,

so the measured molecule is always too delocalized to fit through the
door, in any unit system. The Monte-Carlo harness samples the packet
against the door and confirms the Gaussian-overlap passage probability
erf(d / (2 sqrt(2) sigma_x)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_positive
from .qiur import GaussianState, gaussian_information
from .reporting import binomial_3sigma
from .units import NATURAL_UNITS, UnitSystem


@dataclass(frozen=True)
class GasSpec:
    """Gas temperature and molecule mass."""

    temperature_T: float
    mass_m: float

    def __post_init__(self) -> None:
        require_positive("temperature_T", self.temperature_T)
        require_positive("mass_m", self.mass_m)


@dataclass(frozen=True)
class ProbeSpec:
    """Momentum-probe photon frequency; should satisfy h*nu_low < kT."""

    nu_low: float

    def __post_init__(self) -> None:
        require_positive("nu_low", self.nu_low)

    @classmethod
    def from_energy_ratio(
        cls, gas: GasSpec, ratio: float, units: UnitSystem = NATURAL_UNITS
    ) -> "ProbeSpec":
        """Probe with h*nu_low = kT / ratio."""
        require_positive("ratio", ratio)
        return cls(nu_low=units.k * gas.temperature_T / (ratio * units.h))


@dataclass(frozen=True)
class SortingGeometry:
    """Door opening size."""

    door_size_d: float

    def __post_init__(self) -> None:
        require_positive("door_size_d", self.door_size_d)


def rms_momentum(gas: GasSpec, units: UnitSystem = NATURAL_UNITS) -> float:
    """Thermal root-mean-square momentum sqrt(3 m k T)."""
    p_rms = math.sqrt(3.0 * gas.mass_m * units.k * gas.temperature_T)
    if not 0.0 < p_rms < math.inf:
        raise InvalidInputError(
            f"temperature_T={gas.temperature_T!r}, mass_m={gas.mass_m!r} and {units} put "
            f"the rms momentum sqrt(3 m k T) = {p_rms!r} out of float64 range"
        )
    return p_rms


def max_door_size(sigma_p: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Largest leak-free door for momentum spread sigma_p: h / (4 pi sigma_p)."""
    require_positive("sigma_p", sigma_p)
    return units.h / (4.0 * math.pi * sigma_p)


def post_measurement_spreads(
    gas: GasSpec, probe: ProbeSpec, units: UnitSystem = NATURAL_UNITS
) -> GaussianState:
    """Spreads after the momentum probe: sigma_p = sqrt(3 m h nu_low).

    The conjugate position spread is h / (4 pi sigma_p), so the product is
    h / 4 pi = hbar / 2 for every input (minimum-uncertainty packet).
    """
    if units.h * probe.nu_low >= units.k * gas.temperature_T:
        warnings.warn("probe energy h*nu_low >= kT: outside the gentle-probe regime", stacklevel=2)
    sigma_p = math.sqrt(3.0 * gas.mass_m * units.h * probe.nu_low)
    sigma_x = units.h / (4.0 * math.pi * sigma_p)
    return GaussianState(sigma_x=sigma_x, sigma_p=sigma_p)


def sorting_feasibility(
    gas: GasSpec, probe: ProbeSpec, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Ratio sigma_x(post-probe) / d(max door); > 1 means sorting fails.

    Algebraically equal to sqrt(kT / (h nu_low)), so it exceeds 1 whenever
    the probe is in its valid gentle regime.
    """
    spreads = post_measurement_spreads(gas, probe, units)
    door = max_door_size(rms_momentum(gas, units), units)
    return spreads.sigma_x / door


def information_ledger(
    gas: GasSpec, probe: ProbeSpec, units: UnitSystem = NATURAL_UNITS
) -> dict:
    """Entropy/information bookkeeping for one probed molecule.

    The momentum probe lowers the molecule's momentum information (its
    entropy, in k units) but raises the position information by exactly the
    same amount, because both the thermal and the post-probe packets are
    minimum-uncertainty. Nothing usable for sorting remains.
    """
    p_rms = rms_momentum(gas, units)
    pre = GaussianState(sigma_x=units.h / (4.0 * math.pi * p_rms), sigma_p=p_rms)
    post = post_measurement_spreads(gas, probe, units)
    # gaussian_information takes the log of 2 pi sigma^2 e: each must be a normal float
    for s in (pre.sigma_x, pre.sigma_p, post.sigma_x, post.sigma_p):
        if not np.finfo(float).tiny <= 2.0 * math.pi * s * s * math.e < math.inf:
            raise InvalidInputError(
                f"temperature_T={gas.temperature_T!r}, mass_m={gas.mass_m!r}, nu_low="
                f"{probe.nu_low!r} and {units} put a packet spread out of float64 range"
            )
    ds_momentum = units.k * (
        gaussian_information(post.sigma_p) - gaussian_information(pre.sigma_p)
    )
    di_position = gaussian_information(post.sigma_x) - gaussian_information(pre.sigma_x)
    return {
        "dS_momentum": ds_momentum,
        "dI_position": di_position,
        "sorting_usable_change": ds_momentum + units.k * di_position,
    }


@dataclass(frozen=True)
class SortingReport:
    """Derived quantities plus the Monte-Carlo passage comparison."""

    p_rms: float
    max_door: float
    sigma_p_post: float
    sigma_x_post: float
    feasibility_ratio: float
    sorting_infeasible: bool
    door_size: float
    n_attempts: int
    n_passed: int
    empirical_passage: float
    analytic_passage: float
    injected_energy: float
    dS_momentum: float
    dI_position: float
    sorting_usable_change: float
    seed: int

    def verdicts(self) -> dict[str, bool]:
        """Sorting infeasible (sigma_x / d > 1), and the Monte-Carlo passage
        frequency within 3 sigma of the analytic probability p, i.e.
        |emp - p| <= 3 sqrt(p (1 - p) / n)."""
        tol = binomial_3sigma(self.analytic_passage, self.n_attempts)
        return {
            "sorting_infeasible": self.sorting_infeasible,
            "mc_within_3sigma": bool(
                abs(self.empirical_passage - self.analytic_passage) <= tol
            ),
        }


def simulate_sorting(
    gas: GasSpec,
    probe: ProbeSpec,
    geometry: SortingGeometry,
    n_attempts: int,
    rng_seed: int,
    units: UnitSystem = NATURAL_UNITS,
) -> SortingReport:
    """Sample probed molecules against the door and count passages.

    Each attempt draws a position from the post-probe Gaussian centered on
    the door (the most demon-friendly placement); passage means
    |x| < d / 2. The analytic probability is erf(d / (2 sqrt(2) sigma_x)).
    """
    if n_attempts < 1:
        raise InvalidInputError("n_attempts must be >= 1")
    spreads = post_measurement_spreads(gas, probe, units)
    d = geometry.door_size_d
    rng = np.random.default_rng(rng_seed)
    xs = rng.normal(0.0, spreads.sigma_x, n_attempts)
    n_passed = int(np.count_nonzero(np.abs(xs) < d / 2.0))
    p_rms = rms_momentum(gas, units)
    door_max = max_door_size(p_rms, units)
    ratio = spreads.sigma_x / door_max
    return SortingReport(
        p_rms=p_rms,
        max_door=door_max,
        sigma_p_post=spreads.sigma_p,
        sigma_x_post=spreads.sigma_x,
        feasibility_ratio=ratio,
        sorting_infeasible=bool(ratio > 1.0),
        door_size=d,
        n_attempts=n_attempts,
        n_passed=n_passed,
        empirical_passage=n_passed / n_attempts,
        analytic_passage=math.erf(d / (2.0 * math.sqrt(2.0) * spreads.sigma_x)),
        injected_energy=n_attempts * units.h * probe.nu_low,
        **information_ledger(gas, probe, units),
        seed=rng_seed,
    )
