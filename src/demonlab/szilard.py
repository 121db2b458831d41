"""One-molecule engine: partition insertion as measurement, with a ledger.

Inserting the central partition localizes the molecule's Gaussian packet to
half the box, which doubles its momentum spread. The entropy of the
molecule therefore rises by

    dS = (k/2) ln(sigma_p_final^2 / sigma_p_initial^2) = k ln 2,

independent of box length, temperature, mass, or which side the molecule
ends up on; the cost is paid the moment the partition goes in, before any
outcome is known. The subsequent isothermal expansion extracts kT ln 2 of
work while draining exactly k ln 2 of entropy from the bath, so each
completed cycle balances to zero and no prefix of the ledger ever goes
negative.

Two variance conventions are supported for the initial packet; they differ
by a constant factor in sigma_p, so the insertion ratio (and hence k ln 2)
is identical in both:

- "box-scale":      sigma_x = L, sigma_p = h / 2L   (product h/2)
- "exact-gaussian": sigma_x = L, sigma_p = hbar / 2L (product hbar/2)

The insertion energy is booked to the external agent placing the partition.
States are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, InvalidStateError, require_count, require_positive
from .qiur import GaussianState
from .reporting import Check
from .units import NATURAL_UNITS, UnitSystem

SIDE_WHOLE = "whole"
SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SIDES = (SIDE_WHOLE, SIDE_LEFT, SIDE_RIGHT)

CONVENTION_BOX_SCALE = "box-scale"
CONVENTION_EXACT = "exact-gaussian"
CONVENTIONS = (CONVENTION_BOX_SCALE, CONVENTION_EXACT)
_ULP_LN2 = math.ulp(math.log(2.0))  # the ledger's rounding slack per cycle, in units of k


@dataclass(frozen=True)
class EngineBox:
    """Box length, bath temperature, and molecule mass; all positive."""

    length_L: float
    temperature_T: float
    mass_m: float

    def __post_init__(self) -> None:
        for name in ("length_L", "temperature_T", "mass_m"):
            require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class MoleculeGaussian:
    """Gaussian spread of the molecule plus which region it occupies."""

    state: GaussianState
    side: str
    convention: str = CONVENTION_BOX_SCALE

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise InvalidInputError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.convention not in CONVENTIONS:
            raise InvalidInputError(f"convention must be one of {CONVENTIONS}")


def initial_state(
    box: EngineBox,
    units: UnitSystem = NATURAL_UNITS,
    convention: str = CONVENTION_BOX_SCALE,
) -> MoleculeGaussian:
    """Decohered whole-box packet: sigma_x = L and the convention's sigma_p."""
    length = box.length_L
    sigma_p = (units.h if convention == CONVENTION_BOX_SCALE else units.hbar) / (2.0 * length)
    # insertion doubles sigma_p: the doubled spread is positive and finite only if sigma_p is
    require_positive(f"2 sigma_p of length_L={length!r} and {units}", 2.0 * sigma_p)
    # MoleculeGaussian refuses an unknown convention
    return MoleculeGaussian(GaussianState(length, sigma_p), SIDE_WHOLE, convention)


def insert_partition(
    state: MoleculeGaussian,
    rng_seed: int | np.random.Generator,
    units: UnitSystem = NATURAL_UNITS,
) -> tuple[MoleculeGaussian, float]:
    """Insert the central partition: halve sigma_x, double sigma_p.

    Returns the localized state and the entropy cost (k/2) ln(sigma_p_f^2 /
    sigma_p_i^2) = k ln(sigma_p_f / sigma_p_i) = k ln 2, taken from the spread
    ratio so no square leaves float range. The cost is computed before the
    side is drawn: it cannot depend on the outcome or on anyone learning it.
    The side is left when default_rng(rng_seed).random() < 1/2, else right;
    rng_seed is anything default_rng takes, and a Generator advances one draw.
    """
    if state.side != SIDE_WHOLE:
        raise InvalidStateError("partition already inserted")
    sigma_p_f = 2.0 * state.state.sigma_p
    delta_s = units.k * math.log(sigma_p_f / state.state.sigma_p)
    side = SIDE_LEFT if np.random.default_rng(rng_seed).random() < 0.5 else SIDE_RIGHT
    localized = GaussianState(sigma_x=state.state.sigma_x / 2.0, sigma_p=sigma_p_f)
    return replace(state, state=localized, side=side), delta_s


def extract_work(
    state: MoleculeGaussian,
    box: EngineBox,
    units: UnitSystem = NATURAL_UNITS,
) -> tuple[float, float, MoleculeGaussian]:
    """Isothermal expansion from L/2 back to L against the partition.

    The single-molecule pressure is kT/V, so the quasi-static work is
    int_{L/2}^{L} (kT/V) dV = kT ln 2, drawn as heat from the bath
    (dS_bath = -k ln 2). Returns (work, dS_bath, reset whole-box state).
    """
    if state.side == SIDE_WHOLE:
        raise InvalidStateError("no partition present; nothing to push")
    work = units.k * box.temperature_T * math.log(2.0)
    ds_bath = -units.k * math.log(2.0)
    return work, ds_bath, initial_state(box, units, state.convention)


@dataclass(frozen=True)
class EntropyLedger:
    """Per-cycle bookings, cycle after cycle; prefix sums certify the Second Law.

    A cycle books insertion_dS, then bath_dS and work; left[i] is True when cycle
    i + 1 went left. Sums run entry by entry, in order, as a per-entry loop adds."""

    CSV_HEADER = ("cycle", "step_label", "dS", "dW", "cum_dS")

    insertion_dS: float
    bath_dS: float
    work: float
    left: np.ndarray
    k: float

    @property
    def sides(self) -> list[str]:
        return np.where(self.left, SIDE_LEFT, SIDE_RIGHT).tolist()

    def cumulative_entropy(self) -> np.ndarray:
        return np.cumsum(np.tile([self.insertion_dS, self.bath_dS], self.left.size))

    def net_entropy(self) -> float:
        return float(self.cumulative_entropy()[-1:].sum())  # the last running sum, or 0

    def net_work(self) -> float:
        return float(np.cumsum(np.full(self.left.size, self.work))[-1:].sum())

    def prefix_nonnegative(self) -> bool:
        return self.verdicts()["prefix_nonnegative"].passed

    def to_rows(self) -> list[tuple]:
        steps = (("insertion", self.insertion_dS, 0.0), ("expansion", self.bath_dS, self.work))
        cum = self.cumulative_entropy().tolist()
        return [(i // 2 + 1, *steps[i % 2], c) for i, c in enumerate(cum)]

    def verdicts(self) -> dict[str, Check]:
        """No prefix below -n_cycles ulp(ln 2) and a net within it, in units of k: correct prefix
        sums alternate ln 2 and 0, and 2 n_cycles additions round by ulp(ln 2) / 2 at most."""
        lowest = (self.cumulative_entropy() / self.k).min(initial=0.0)  # the empty prefix is 0
        slack = self.left.size * _ULP_LN2
        return {
            "prefix_nonnegative": Check(bool(lowest >= -slack), lowest, 0.0, slack),
            "net_entropy_zero": Check.within(self.net_entropy() / self.k, 0.0, slack),
        }


#: Largest n_cycles run_cycle accepts: it bounds the 2 * n_cycles rows of a ledger's report.
MAX_CYCLES = 10**6


def run_cycle(
    box: EngineBox,
    n_cycles: int,
    rng_seed: int | np.random.Generator,
    units: UnitSystem = NATURAL_UNITS,
    convention: str = CONVENTION_BOX_SCALE,
) -> EntropyLedger:
    """Run n_cycles of insert/extract and return the completed ledger.

    Each cycle books +k ln 2 at insertion (charged to the agent) and
    -k ln 2 to the bath during the expansion that extracts kT ln 2 of work,
    so the universe's entropy change is nonnegative after every entry and
    exactly zero at the end of every cycle. One insertion and one expansion
    price every cycle. The sides are those of the per-cycle loop that hands one
    default_rng(rng_seed) Generator to every insert_partition call: cycle i
    goes left when that Generator's i-th random() is below 1/2.
    """
    require_count("n_cycles", n_cycles, 1, MAX_CYCLES)
    rng = np.random.default_rng(rng_seed)
    inserted, ds_insert = insert_partition(initial_state(box, units, convention), rng, units)
    work, ds_bath, _ = extract_work(inserted, box, units)
    require_positive(f"n_cycles * kT ln 2 of {box} and {units}", n_cycles * work, least=0.0)
    left = np.append(inserted.side == SIDE_LEFT, rng.random(n_cycles - 1) < 0.5)
    left.setflags(write=False)
    return EntropyLedger(ds_insert, ds_bath, work, left, units.k)
