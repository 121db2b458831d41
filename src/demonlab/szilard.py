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

import itertools
import math
from dataclasses import dataclass, replace

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
    length = box.length_L
    sigma_p = (units.h if convention == CONVENTION_BOX_SCALE else units.hbar) / (2.0 * length)
    # insertion doubles sigma_p: the doubled spread is positive and finite only if sigma_p is
    require_positive(f"2 sigma_p of length_L={length!r} and {units}", 2.0 * sigma_p)
    # MoleculeGaussian refuses an unknown convention
    return MoleculeGaussian(GaussianState(length, sigma_p), SIDE_WHOLE, length, convention)


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

    @property
    def sides(self) -> list[str]:
        return np.where(self.left, SIDE_LEFT, SIDE_RIGHT).tolist()

    def cumulative_entropy(self) -> np.ndarray:
        return np.cumsum(np.tile([self.insertion_dS, self.bath_dS], self.left.size))

    def net_entropy(self) -> float:
        return float(self.cumulative_entropy()[-1:].sum())  # the last running sum, or 0

    def net_work(self) -> float:
        return float(np.cumsum(np.full(self.left.size, self.work))[-1:].sum())

    def prefix_nonnegative(self, tol: float = 1e-12) -> bool:
        return bool(np.all(self.cumulative_entropy() >= -tol))

    def to_rows(self) -> list[tuple]:
        steps = (("insertion", self.insertion_dS, 0.0), ("expansion", self.bath_dS, self.work))
        cum = self.cumulative_entropy().tolist()
        return [(i // 2 + 1, *steps[i % 2], c) for i, c in enumerate(cum)]

    def verdicts(self) -> dict[str, bool]:
        """No prefix of the ledger below -1e-12, and a net of zero within 1e-12."""
        return {
            "prefix_nonnegative": self.prefix_nonnegative(),
            "net_entropy_zero": bool(abs(self.net_entropy()) <= 1e-12),
        }


#: Largest n_cycles run_cycle accepts: it bounds the 2 * n_cycles rows of a ledger's report.
MAX_CYCLES = 10**6
_M32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash32(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence hash step on uint32 words; const stays a Python int so nothing warns."""
    const_next = (const * mult) & _M32
    value = (value ^ const) * const_next
    return value ^ (value >> 16), const_next


def _mulhi64(x: np.ndarray, y: int) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y, from 32-bit halves."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _first_draw_below_half(seeds: np.ndarray) -> np.ndarray:
    """np.random.default_rng(s).random() < 0.5 for each seed 0 <= s < 2**64, bit for bit.

    SeedSequence(s) hashes the seed's 32-bit words (low, high) into its pool
    and generate_state(4, uint64) seeds PCG64; random() < 0.5 when the top
    bit of PCG64's first XSL-RR output is clear.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = [(seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    pool += [np.zeros(seeds.size, np.uint32)] * 2
    const = 0x43B0D7E5
    for i in range(4):
        pool[i], const = _hash32(pool[i], const, 0x931E8875)
    for src, dst in itertools.permutations(range(4), 2):
        hashed, const = _hash32(pool[src], const, 0x931E8875)
        mixed = pool[dst] * 0xCA01F9DD - hashed * 0x4973F715
        pool[dst] = mixed ^ (mixed >> 16)
    words, const = [], 0x8B51F9DD
    for i in range(8):
        word, const = _hash32(pool[i % 4], const, 0x58F38DED)
        words.append(word)
    s_hi, s_lo, q_hi, q_lo = np.stack(words, axis=1).astype("<u4").view("<u8").T
    # x = x * m + inc from x = s, with inc = 2q + 1: m = 1 and then the multiplier
    # seed PCG64 (srandom), and one more multiplier step precedes the first output
    inc_hi, inc_lo, hi, lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1, s_hi, s_lo
    for m_hi, m_lo in ((0, 1), (_PCG_MULT_HI, _PCG_MULT_LO), (_PCG_MULT_HI, _PCG_MULT_LO)):
        hi = _mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo
        lo = lo * m_lo + inc_lo
        hi += inc_hi + (lo < inc_lo)
    xored, rot = hi ^ lo, hi >> 58
    return (xored >> ((rot + 63) & 63)) & 1 == 0  # top bit of rotr(xored, rot)


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
    exactly zero at the end of every cycle. One insertion and one expansion
    price every cycle. The sides come from one pass over the seeds that
    default_rng(rng_seed) draws, one per cycle; each is the side that
    insert_partition draws from default_rng(that seed).
    """
    if not 1 <= n_cycles <= MAX_CYCLES:
        raise InvalidInputError(f"n_cycles must be in [1, {MAX_CYCLES}], got {n_cycles!r}")
    side_seeds = np.random.default_rng(rng_seed).integers(0, 2**63 - 1, size=n_cycles)
    state = initial_state(box, units, convention)
    inserted, ds_insert = insert_partition(state, int(side_seeds[0]), units)
    work, ds_bath, _ = extract_work(inserted, box, units)
    require_positive(f"n_cycles * kT ln 2 of {box} and {units}", n_cycles * work, least=0.0)
    left = _first_draw_below_half(side_seeds)
    left.setflags(write=False)
    return EntropyLedger(ds_insert, ds_bath, work, left)
