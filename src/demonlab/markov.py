"""Continuous-time master-equation engine on a finite set of microstates.

A symmetric matrix of transition rates r_ij defines the linear generator L
with L_ij = r_ij for j != i and L_ii = -sum_{j != i} L_ji, so that
probability vectors evolve as dp/dt = L p and p(t) = exp(L t) p(0).
Symmetry of the rates is required: it is what makes the entropy-production
rate

    (k/2) * sum_ij r_ij (ln p_j - ln p_i)(p_j - p_i)

manifestly nonnegative, i.e. what makes Shannon entropy -k sum p ln p a
Lyapunov function of the relaxation (the discrete H-theorem). Asymmetric
input is rejected rather than silently accepted.

All types are immutable after construction and all operations are pure,
so concurrent use needs no locking; the values cached on first use (a rate
matrix's connectivity, operator and eigendecomposition) are deterministic.
scipy is imported on first use, by evolve alone, so no CLI scenario loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.linalg import eigh

from .errors import (
    DivergenceError,
    InvalidInputError,
    NonUniqueEquilibriumError,
    NumericError,
)
from .units import NATURAL_UNITS, UnitSystem

#: States with probability at or below this floor make the entropy-production
#: formula diverge; callers must clamp to >= this value first.
PROB_FLOOR = 1e-15

_PROB_SUM_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RateMatrix:
    """Symmetric nonnegative transition rates r_ij (1/time); diagonal ignored."""

    rates: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InvalidInputError(f"rate matrix must be square, got shape {r.shape}")
        if r.shape[0] < 2:
            raise InvalidInputError("need at least 2 states")
        if not np.all(np.isfinite(r)):
            raise InvalidInputError("rate matrix contains non-finite entries")
        np.fill_diagonal(r, 0.0)
        if np.any(r < 0.0):
            raise InvalidInputError("off-diagonal rates must be nonnegative")
        if not np.array_equal(r, r.T):
            raise InvalidInputError(
                "rate matrix must be symmetric (r_ij == r_ji); symmetrize explicitly"
            )
        object.__setattr__(self, "rates", _freeze(r))

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def is_connected(self) -> bool:
        """True if the graph of nonzero rates has a single component."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        edges = self.rates > 0.0
        seen = frontier = np.arange(self.n) == 0
        while (frontier := edges[frontier].any(axis=0) & ~seen).any():  # breadth-first from 0
            seen |= frontier
        return bool(seen.all())

    @cached_property
    def _operator(self) -> "MasterOperator":
        m = self.rates.copy()
        np.fill_diagonal(m, -(self.rates.sum(axis=0)))
        return MasterOperator(m)


@dataclass(frozen=True)
class MasterOperator:
    """Generator L of the relaxation semigroup: dp/dt = L p."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues (all <= 0; the largest, 0, is the equilibrium's)
        and orthonormal eigenvector columns of the symmetric L, computed once."""
        w, v = eigh(self.matrix)
        return _freeze(w), _freeze(v)


@dataclass(frozen=True)
class ProbDist:
    """Probability vector over microstates: entries >= 0, sums to 1."""

    p: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.p, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidInputError("probability vector must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise NumericError("probability vector contains non-finite entries")
        if np.any(v < 0.0):
            raise InvalidInputError("probabilities must be nonnegative")
        if abs(v.sum() - 1.0) > _PROB_SUM_TOL:
            raise InvalidInputError(f"probabilities must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "p", _freeze(v))

    @property
    def n(self) -> int:
        return self.p.size

    @classmethod
    def uniform(cls, n: int) -> "ProbDist":
        return cls(np.full(n, 1.0 / n))

    def is_interior(self, floor: float = PROB_FLOOR) -> bool:
        return bool(np.all(self.p > floor))


def build_master_operator(rates: RateMatrix) -> MasterOperator:
    """Assemble L from the rates; each diagonal entry is minus its column sum.
    Built once per RateMatrix, so every caller shares it and its spectrum."""
    return rates._operator


def _clamped(raw: np.ndarray) -> np.ndarray:
    """Clip the rounding negatives of propagated rows and renormalise each row."""
    if not np.all(np.isfinite(raw)):
        raise NumericError("evolution produced non-finite entries")
    # Propagation may carry O(1e-15) negatives; anything worse is a bug.
    if raw.min() < -1e-12:
        raise NumericError(f"evolution produced entry {raw.min()!r} below -1e-12")
    clipped = np.clip(raw, 0.0, None)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scipy.linalg.expm), with scipy imported on first call."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def evolve(p0: ProbDist, op: MasterOperator, t: float) -> ProbDist:
    """Propagate p0 for time t >= 0 under dp/dt = L p.

    Uses the dense matrix exponential (Pade scaling-and-squaring), which
    stays accurate on stiff generators and reproduces the two-state closed
    form p1(t) = 1/2 + (p1(0)-1/2)e^{-2rt} well inside 1e-10. For many
    times of one operator, trajectory() is cheaper.
    """
    if not math.isfinite(t):
        raise NumericError(f"time must be finite, got {t}")
    if t < 0:
        raise InvalidInputError(f"time must be nonnegative, got {t}")
    if p0.n != op.n:
        raise InvalidInputError(f"dimension mismatch: p0 has {p0.n} states, operator {op.n}")
    if t == 0.0:
        return p0
    return ProbDist(_clamped(expm(op.matrix * t) @ p0.p))


def _propagate(p0: ProbDist, op: MasterOperator, ts: np.ndarray) -> np.ndarray:
    """Rows p(t) for every t in ts, from the operator's cached spectrum."""
    if p0.n != op.n:
        raise InvalidInputError(f"dimension mismatch: p0 has {p0.n} states, operator {op.n}")
    if np.any(ts < 0) or not np.all(np.isfinite(ts)):
        raise InvalidInputError("times must be finite and nonnegative")
    w, v = op.spectrum
    with np.errstate(over="ignore", invalid="ignore"):  # _clamped reports non-finite rows
        raw = (np.exp(np.outer(ts, w)) * (v.T @ p0.p)) @ v.T
    return _clamped(raw)


def trajectory(p0: ProbDist, op: MasterOperator, ts: Sequence[float]) -> list[ProbDist]:
    """Evaluate the evolution at many times via one symmetric eigendecomposition.

    Exact for symmetric generators (which is all build_master_operator makes),
    and much cheaper than one matrix exponential per sample.
    """
    return [ProbDist(row) for row in _propagate(p0, op, np.asarray(ts, dtype=float))]


def _entropies(p: np.ndarray, k: float) -> np.ndarray:
    """-k sum p ln p along the last axis, with 0 ln 0 = 0."""
    return -k * np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def _production_rates(p: np.ndarray, generator: np.ndarray, k: float) -> np.ndarray:
    """-k sum_i ln p_i (L p)_i along the last axis; zero entries count as ln 1.

    Equal to the pairwise form because the columns of L sum to zero, which
    also lets the logs be centred: that removes their common offset, which
    would otherwise multiply the rounding error of sum_i (L p)_i.
    """
    logs = np.log(np.where(p > 0.0, p, 1.0))
    logs -= logs.mean(axis=-1, keepdims=True)
    return -k * np.sum(logs * (p @ generator.T), axis=-1)


def shannon_entropy(p: ProbDist, units: UnitSystem = NATURAL_UNITS) -> float:
    """-k sum_i p_i ln p_i, with the convention 0 ln 0 = 0. Units of k."""
    return float(_entropies(p.p, units.k))


def max_entropy(n: int, units: UnitSystem = NATURAL_UNITS) -> float:
    """k ln n, the uniform-distribution ceiling on n states."""
    return units.k * math.log(n)


def entropy_production_rate(
    p: ProbDist, rates: RateMatrix, units: UnitSystem = NATURAL_UNITS
) -> float:
    """dS/dt along the relaxation: (k/2) sum_ij r_ij (ln p_j - ln p_i)(p_j - p_i).

    Both factors always share a sign, so the result is nonnegative; it is
    evaluated in the equal generator form -k sum_i ln p_i (L p)_i. States
    with p_i = 0 that have a nonzero rate attached make the sum diverge;
    that is a real singularity of the formula, so it raises DivergenceError
    instead of returning a clamped value.
    """
    if p.n != rates.n:
        raise InvalidInputError("dimension mismatch between distribution and rates")
    zero = p.p <= 0.0
    if np.any(rates.rates[zero, :] > 0.0):
        raise DivergenceError(
            "entropy-production rate diverges: zero-probability state has "
            f"nonzero rates attached (clamp probabilities to >= {PROB_FLOOR})"
        )
    # A zero-probability state without rates has a zero row in L, so its
    # stand-in log contributes nothing.
    return float(_production_rates(p.p, build_master_operator(rates).matrix, units.k))


def equilibrium_distribution(rates: RateMatrix) -> ProbDist:
    """Stationary distribution: the uniform distribution, exactly.

    Symmetric rates make the rows of L sum to zero as well as its columns,
    so the uniform vector is in the null space of L; a connected graph makes
    that null space one-dimensional. The uniform distribution satisfies
    detailed balance r_ij p_j = r_ji p_i entrywise. A disconnected graph has
    no unique equilibrium.
    """
    if not rates.is_connected():
        raise NonUniqueEquilibriumError(
            "transition graph is disconnected; equilibrium is not unique"
        )
    return ProbDist.uniform(rates.n)


def spectral_gap(rates: RateMatrix) -> float:
    """-lambda_2 of L, the slowest rate of approach to the equilibrium. A
    disconnected graph (gap 0) raises NonUniqueEquilibriumError first."""
    equilibrium_distribution(rates)
    return float(-build_master_operator(rates).spectrum[0][-2])


def detailed_balance_residual(rates: RateMatrix, p: ProbDist) -> float:
    """max_ij |r_ij p_j - r_ji p_i|; zero at equilibrium."""
    r = rates.rates
    flow = r * p.p[None, :]
    return float(np.max(np.abs(flow - flow.T)))


@dataclass(frozen=True)
class HTheoremReport:
    """Entropy trajectory samples plus the monotonicity verdict."""

    CSV_HEADER = ("t", "S", "dSdt", "dist_to_eq")

    times: np.ndarray
    entropy: np.ndarray
    production_rate: np.ndarray
    dist_to_eq: np.ndarray
    monotone: bool
    min_production: float
    terminal_dist: float

    def to_rows(self) -> list[tuple[float, float, float, float]]:
        return list(
            zip(
                self.times.tolist(),
                self.entropy.tolist(),
                self.production_rate.tolist(),
                self.dist_to_eq.tolist(),
            )
        )

    def verdicts(self) -> dict[str, bool]:
        """S(t) never falls by more than 1e-12; dS/dt >= -1e-12 at every sample."""
        return {
            "entropy_monotone": self.monotone,
            "production_nonnegative": bool(self.min_production >= -1e-12),
        }


def verify_h_theorem(
    rates: RateMatrix,
    p0: ProbDist,
    t_grid: Sequence[float],
    units: UnitSystem = NATURAL_UNITS,
) -> HTheoremReport:
    """Sample S(t), its production rate, and the distance to equilibrium.

    The verdict is monotone=True iff the sampled entropy never decreases by
    more than 1e-12 between consecutive samples. p0 must be interior
    (all entries > PROB_FLOOR); samples are floored there before the
    production rate is evaluated, per the documented regularization. All
    samples are computed at once, as one array with a row per time.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size < 1:
        raise InvalidInputError("t_grid must contain at least one time")
    if np.any(np.diff(ts) < 0):
        raise InvalidInputError("t_grid must be nondecreasing")
    if not p0.is_interior():
        raise InvalidInputError(
            f"p0 must be interior (all entries > {PROB_FLOOR}) for the H-theorem check"
        )
    op = build_master_operator(rates)
    p_eq = equilibrium_distribution(rates)
    samples = _propagate(p0, op, ts)
    entropy = _entropies(samples, units.k)
    floored = np.clip(samples, PROB_FLOOR, None)
    floored /= floored.sum(axis=1, keepdims=True)
    production = _production_rates(floored, op.matrix, units.k)
    dist = np.max(np.abs(samples - p_eq.p), axis=1)

    monotone = bool(np.all(np.diff(entropy) >= -1e-12))
    return HTheoremReport(
        times=_freeze(ts),
        entropy=_freeze(entropy),
        production_rate=_freeze(production),
        dist_to_eq=_freeze(dist),
        monotone=monotone,
        min_production=float(production.min()),
        terminal_dist=float(dist[-1]),
    )


def random_symmetric_rates(
    n: int,
    rng: np.random.Generator,
    low: float = 0.5,
    high: float = 2.0,
    extra_edge_prob: float = 0.3,
) -> RateMatrix:
    """Random connected symmetric rates: spanning tree plus optional extra edges."""
    if n < 2:
        raise InvalidInputError("need at least 2 states")
    # State order[i] attaches to a uniformly chosen earlier state of the order.
    order = rng.permutation(n)
    edges = np.triu(rng.random((n, n)) < extra_edge_prob, 1)
    edges[order[1:], order[rng.integers(0, np.arange(1, n))]] = True
    edges = np.triu(edges | edges.T, 1)
    upper = np.where(edges, rng.uniform(low, high, (n, n)), 0.0)
    return RateMatrix(upper + upper.T)


def rate_matrix_from_text(path: str | Path) -> RateMatrix:
    """Read whitespace-separated rows of rates from a plain-text file."""
    try:
        r = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot parse rate matrix from {path}: {exc}") from exc
    return RateMatrix(r)


def rate_matrix_from_json(path: str | Path) -> RateMatrix:
    """Read rates from a JSON file with field "rates": array of arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot parse JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict) or "rates" not in doc:
        raise InvalidInputError('JSON rate file must contain a "rates" field')
    try:
        rates = np.asarray(doc["rates"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f'"rates" in {path} is not a numeric matrix: {exc}') from exc
    return RateMatrix(rates)
