"""Volume-fluctuation statistics of independent components, plus Brillouin's balance.

A system of N statistically independent components confined to a volume
changes entropy by k N ln(V/V0) when the occupied volume shrinks from V0 to
V, whether the components are gas molecules or quanta of radiation with
N = E / (h nu). The probability of such a spontaneous fluctuation is

    W = (V/V0)^N = exp(dS / k),

the form forced by consistency with the entropy change through Boltzmann's
relation. (A published variant reading (V/V0) e^N exceeds unity for N >= 1
and cannot be a probability; it is treated here as a typographical slip.)
Both depend on V/V0 alone, so a FluctuationSpec holds N and that ratio. A
brute-force Monte-Carlo harness places N independent uniform points per
trial and reproduces the power law. Trials [0, h), h = n_trials // 2, come
from default_rng(seed); a second thread counts [h, n_trials) from
PCG64(seed).advance(h N). One output per double makes the sum bit-identical
to one stream's. Not split: speed_demon, brownian (data-dependent draw counts),
fgr (its sort dominates), qiur (its FFT plan cache is not shown thread-safe).

Brillouin's detection balance is included: a probe photon with
b = h nu_1 / kT >> 1 raises the gas entropy by h nu_1 / T = k b while the
acquired information reduces the microstate count P0 by a fraction
f = p / P0 << 1, lowering entropy by only -k ln(1 - f) ~ k f, so the net
change stays positive. A BrillouinSpec holds b and f, all the balance reads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InvalidInputError, require_count, require_positive
from .reporting import Check
from .units import NATURAL_UNITS, UnitSystem

#: Monte-Carlo trials place N points each; beyond this N the all-inside
#: event is too rare to resolve at desk-scale trial counts.
MC_MAX_COMPONENTS = 20
MC_MIN_TRIALS = 10_000
#: More trials would not fit in time: N draws each, about 1 s per 10**7 at N = 3.
MC_MAX_TRIALS = 10**7

_MC_BLOCK = 2**16  # doubles per block of draws: 512 KiB stays in one core's L2 cache


@dataclass(frozen=True)
class FluctuationSpec:
    """Component count N and the volume ratio V/V0, with 0 < V/V0 <= 1.

    n_components may be non-integral (e.g. E/(h nu) for radiation); the
    Monte-Carlo oracle rounds it. V > V0 is refused: dS would change sign
    and (V/V0)^N would exceed 1.
    """

    n_components: float
    volume_ratio: float

    def __post_init__(self) -> None:
        require_positive("n_components", self.n_components, least=1.0)
        if require_positive("volume_ratio", self.volume_ratio) > 1.0:
            raise InvalidInputError("V > V0 is refused: the sign of dS flips")

    @classmethod
    def from_radiation(
        cls, energy: float, frequency: float, volume_ratio: float, units: UnitSystem = NATURAL_UNITS
    ) -> "FluctuationSpec":
        """Spec with N = E / (h nu)."""
        h_nu = require_positive(f"h * frequency of {units}", units.h * frequency)
        n = require_positive("N = energy / (h * frequency)", energy / h_nu, least=1.0)
        return cls(n_components=n, volume_ratio=volume_ratio)


def gas_entropy_change(spec: FluctuationSpec, units: UnitSystem = NATURAL_UNITS) -> float:
    """k N ln(V/V0); nonpositive for a contraction (V <= V0), and finite or an error."""
    n, ratio = spec.n_components, spec.volume_ratio
    ds = units.k * n * math.log(ratio)
    require_positive(f"|k N ln(V/V0)| of N={n!r}, V/V0={ratio!r}, {units}", abs(ds), least=0.0)
    return ds


def fluctuation_probability(spec: FluctuationSpec) -> float:
    """(V/V0)^N, the chance all N independent components sit inside V."""
    return spec.volume_ratio**spec.n_components


def _count_inside(rng, draws: np.ndarray, n_trials: int, ratio: float, counted: list) -> None:
    """Append, block by block of the caller's draws (rows x N), how many of rng's next
    n_trials rows of N draws lie wholly below ratio; or append what stopped the count."""
    try:
        for start in range(0, n_trials, len(draws)):
            rng.random(out=(block := draws[: n_trials - start]))
            for column in block.T[1:]:  # column by column: a reduction along a row is slower
                np.maximum(block[:, 0], column, out=block[:, 0])
            counted.append(int(np.count_nonzero(np.less(block[:, 0], ratio, out=block[:, 0]))))
    except BaseException as exc:  # either half's failure is raised on the calling thread
        counted.append(exc)


def monte_carlo_fluctuation(
    spec: FluctuationSpec, n_trials: int, rng_seed: int
) -> float:
    """Empirical all-inside frequency from n_trials seeded placements.

    Each trial drops round(N) independent uniform points into V0 and counts
    success when every point lands inside the sub-volume of fractional size
    V/V0 (a uniform draw below the ratio, which is the same event in any
    dimension). The second half is counted on a thread that is joined here.
    """
    n = require_count("round(n_components)", round(spec.n_components), 1, MC_MAX_COMPONENTS)
    require_count("n_trials", n_trials, MC_MIN_TRIALS, MC_MAX_TRIALS)
    ratio, half, rows, counted = spec.volume_ratio, n_trials // 2, max(1, _MC_BLOCK // n), []
    jumped = np.random.Generator(np.random.PCG64(rng_seed).advance(half * n))
    thread = threading.Thread(  # its block is allocated here: the thread allocates no array
        target=_count_inside, args=(jumped, np.empty((rows, n)), n_trials - half, ratio, counted))
    thread.start()
    _count_inside(np.random.default_rng(rng_seed), np.empty((rows, n)), half, ratio, counted)
    thread.join()
    if failed := [c for c in counted if isinstance(c, BaseException)]:
        raise failed[0]
    return sum(counted) / n_trials


@dataclass(frozen=True)
class BrillouinSpec:
    """The probe's b = h nu_1 / kT and the information fraction f = p / P0."""

    b: float
    info_fraction: float

    def __post_init__(self) -> None:
        require_positive("b", self.b)
        if not 0 <= (f := self.info_fraction) < 1:  # NaN never passes
            raise InvalidInputError(f"info_fraction must satisfy 0 <= f < 1, got {f!r}")


def brillouin_balance(
    spec: BrillouinSpec, units: UnitSystem = NATURAL_UNITS
) -> dict[str, Any]:
    """Entropy balance of one illuminated detection.

    dS_demon = h nu_1 / T = k b is injected by the probe photon; the
    information gained shrinks the microstate count from P0 to P0 - p, worth
    dS_gas = k ln(1 - f) exactly, ~ -k f to first order. Both forms are
    reported; the net uses the exact one.
    """
    ds_demon = require_positive(f"k b of b={spec.b!r}, {units}", units.k * spec.b, least=0.0)
    ds_gas_exact = units.k * math.log1p(-spec.info_fraction)
    require_positive(f"-k ln(1 - f) of f={spec.info_fraction!r}, {units}", -ds_gas_exact, least=0.0)
    ds_gas_approx = -units.k * spec.info_fraction
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
) -> tuple[dict[str, Any], dict[str, Check]]:
    """Derived values and verdicts: exp(dS/k) = W within 1e-12, the Monte-Carlo
    frequency within 3 sigma of W (if n_trials != 0), and a positive Brillouin
    net balance (if a BrillouinSpec is given)."""
    ds = gas_entropy_change(spec, units)
    prob = fluctuation_probability(spec)
    verdicts = {"identity_ok": Check.within(math.exp(ds / units.k), prob, 1e-12)}
    derived: dict[str, Any] = {
        "n_components": spec.n_components,
        "volume_ratio": spec.volume_ratio,
        "dS": ds,
        "probability": prob,
        "identity_gap": abs(verdicts["identity_ok"].value - prob),
    }
    if n_trials != 0:
        emp = derived["mc_probability"] = monte_carlo_fluctuation(spec, n_trials, rng_seed)
        mc = verdicts["mc_within_3sigma"] = Check.binomial(emp, prob, n_trials)
        derived["mc_tol_3sigma"] = mc.tolerance
    if brillouin is not None:
        derived["brillouin"] = brillouin_balance(brillouin, units)
        net = derived["brillouin"]["net"]
        verdicts["brillouin_net_positive"] = Check(bool(net > 0), net, 0.0, 0.0)
    return derived, verdicts
