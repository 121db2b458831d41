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
States are immutable; run_cycle threads them, so concurrent scenarios need
independent ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidStateError, require_positive
from .qiur import GaussianState
from .units import NATURAL_UNITS, UnitSystem

SIDE_WHOLE = "whole"
SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SIDES = (SIDE_WHOLE, SIDE_LEFT, SIDE_RIGHT)

CONVENTION_BOX_SCALE = "box-scale"
CONVENTION_EXACT = "exact-gaussian"
CONVENTIONS = (CONVENTION_BOX_SCALE, CONVENTION_EXACT)


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
    box_length: float
    convention: str = CONVENTION_BOX_SCALE

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise InvalidInputError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.convention not in CONVENTIONS:
            raise InvalidInputError(f"convention must be one of {CONVENTIONS}")
        accessible = self.box_length if self.side == SIDE_WHOLE else self.box_length / 2.0
        if self.state.sigma_x > accessible * (1.0 + 1e-12):
            raise InvalidInputError(
                f"sigma_x = {self.state.sigma_x!r} exceeds accessible region {accessible!r}"
            )


def initial_state(
    box: EngineBox,
    units: UnitSystem = NATURAL_UNITS,
    convention: str = CONVENTION_BOX_SCALE,
) -> MoleculeGaussian:
    """Decohered whole-box packet: sigma_x = L and the convention's sigma_p."""
    if convention not in CONVENTIONS:
        raise InvalidInputError(f"convention must be one of {CONVENTIONS}")
    length = box.length_L
    if convention == CONVENTION_BOX_SCALE:
        sigma_p = units.h / (2.0 * length)
    else:
        sigma_p = units.hbar / (2.0 * length)
    # insertion doubles sigma_p, so that must stay finite too
    if not 0.0 < sigma_p < 2.0 * sigma_p < math.inf:
        raise InvalidInputError(
            f"length_L={length!r} and {units} put sigma_p = {sigma_p!r} out of float64 range"
        )
    return MoleculeGaussian(
        state=GaussianState(sigma_x=length, sigma_p=sigma_p),
        side=SIDE_WHOLE,
        box_length=length,
        convention=convention,
    )


def insert_partition(
    state: MoleculeGaussian,
    rng_seed: int,
    units: UnitSystem = NATURAL_UNITS,
) -> tuple[MoleculeGaussian, float]:
    """Insert the central partition: halve sigma_x, double sigma_p.

    Returns the localized state (left or right with probability 1/2 each,
    seeded) and the entropy cost (k/2) ln(sigma_p_f^2 / sigma_p_i^2) =
    k ln(sigma_p_f / sigma_p_i) = k ln 2, taken from the spread ratio so no
    square leaves float range. The cost is computed before the side is
    drawn: it cannot depend on the outcome or on anyone learning it.
    """
    if state.side != SIDE_WHOLE:
        raise InvalidStateError("partition already inserted")
    sigma_p_f = 2.0 * state.state.sigma_p
    delta_s = units.k * math.log(sigma_p_f / state.state.sigma_p)
    rng = np.random.default_rng(rng_seed)
    side = SIDE_LEFT if rng.random() < 0.5 else SIDE_RIGHT
    new_state = MoleculeGaussian(
        state=GaussianState(sigma_x=state.state.sigma_x / 2.0, sigma_p=sigma_p_f),
        side=side,
        box_length=state.box_length,
        convention=state.convention,
    )
    return new_state, delta_s


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
class LedgerEntry:
    cycle: int
    label: str
    delta_s: float
    delta_w: float


@dataclass
class EntropyLedger:
    """Ordered entropy/work record; prefix sums certify the Second Law."""

    CSV_HEADER = ("cycle", "step_label", "dS", "dW", "cum_dS")

    entries: list[LedgerEntry] = field(default_factory=list)
    sides: list[str] = field(default_factory=list)

    def append(self, cycle: int, label: str, delta_s: float, delta_w: float) -> None:
        self.entries.append(LedgerEntry(cycle, label, delta_s, delta_w))

    def cumulative_entropy(self) -> np.ndarray:
        return np.cumsum([e.delta_s for e in self.entries]) if self.entries else np.zeros(0)

    def net_entropy(self) -> float:
        return float(sum(e.delta_s for e in self.entries))

    def net_work(self) -> float:
        return float(sum(e.delta_w for e in self.entries))

    def prefix_nonnegative(self, tol: float = 1e-12) -> bool:
        cum = self.cumulative_entropy()
        return bool(cum.size == 0 or cum.min() >= -tol)

    def to_rows(self) -> list[tuple]:
        cum = self.cumulative_entropy().tolist()
        return [(e.cycle, e.label, e.delta_s, e.delta_w, c) for e, c in zip(self.entries, cum)]

    def verdicts(self) -> dict[str, bool]:
        """No prefix of the ledger below -1e-12, and a net of zero within 1e-12."""
        return {
            "prefix_nonnegative": self.prefix_nonnegative(),
            "net_entropy_zero": bool(abs(self.net_entropy()) <= 1e-12),
        }


def run_cycle(
    box: EngineBox,
    n_cycles: int,
    rng_seed: int,
    units: UnitSystem = NATURAL_UNITS,
    convention: str = CONVENTION_BOX_SCALE,
) -> EntropyLedger:
    """Run n_cycles of insert/extract and return the completed ledger.

    Each cycle books +k ln 2 at insertion (charged to the agent) and
    -k ln 2 to the bath during the expansion that extracts kT ln 2 of work,
    so the universe's entropy change is nonnegative after every entry and
    exactly zero at the end of every cycle.
    """
    if n_cycles < 1:
        raise InvalidInputError("n_cycles must be >= 1")
    ledger = EntropyLedger()
    rng = np.random.default_rng(rng_seed)
    state = initial_state(box, units, convention)
    for cycle in range(1, n_cycles + 1):
        # thread the side draws through one generator so seeds shuffle sides
        side_seed = int(rng.integers(0, 2**63 - 1))
        state, ds_insert = insert_partition(state, side_seed, units)
        ledger.sides.append(state.side)
        ledger.append(cycle, "insertion", ds_insert, 0.0)
        work, ds_bath, state = extract_work(state, box, units)
        ledger.append(cycle, "expansion", ds_bath, work)
    return ledger
