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
matrix's connectivity, generator and eigendecomposition) are deterministic.
Every propagation goes through that one eigendecomposition; numpy is all it needs.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.linalg import eigh

from .errors import (InvalidInputError, NonUniqueEquilibriumError, NumericError,
                     require_count, require_positive)
from .reporting import Check
from .units import NATURAL_UNITS, UnitSystem

#: Zero-probability states make the entropy-production formula diverge, so
#: verify_h_theorem floors its samples at this value before evaluating it.
PROB_FLOOR = 1e-15

_PROB_SUM_TOL = 1e-12

#: A larger chain would not fit in time: its eigendecomposition costs n^3, 2 s at 2000 states.
MAX_STATES = 2000
#: Samples times states of one H-theorem trajectory: 2000 x 5000 take 3.9 s and 465 MB.
MAX_TRAJECTORY_SIZE = 10**7


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RateMatrix:
    """Symmetric nonnegative rates r_ij (1/time), diagonal ignored: the operator of dp/dt = L p."""

    rates: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rates, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InvalidInputError(f"rate matrix must be square, got shape {r.shape}")
        require_count("n_states", r.shape[0], 2, MAX_STATES)
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
    def generator(self) -> np.ndarray:
        """L of dp/dt = L p: the rates, with each diagonal entry minus its column sum."""
        m = self.rates.copy()
        np.fill_diagonal(m, -(self.rates.sum(axis=0)))
        return _freeze(m)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues (all <= 0; the largest, 0, is the equilibrium's)
        and orthonormal eigenvector columns of the symmetric L, computed once."""
        w, v = eigh(self.generator)
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


def build_master_operator(rates: RateMatrix) -> RateMatrix:
    """The rates, which carry L and its spectrum; kept only for bench/'s evolve op."""
    return rates


def _clamped(raw: np.ndarray) -> np.ndarray:
    """Clip the rounding negatives of propagated rows and renormalise each row."""
    if not (np.all(np.isfinite(raw)) and np.all(raw.max(axis=-1) > 0)):
        raise NumericError("evolution produced non-finite entries or a row without mass")
    # Propagation may carry O(1e-15) negatives; anything worse is a bug.
    if raw.min() < -1e-12:
        raise NumericError(f"evolution produced entry {raw.min()!r} below -1e-12")
    clipped = np.clip(raw, 0.0, None)
    return clipped / clipped.sum(axis=-1, keepdims=True)


def evolve(p0: ProbDist, rates: RateMatrix, t: float) -> ProbDist:
    """Propagate p0 for time t >= 0 under dp/dt = L p.

    One row of trajectory(), from the rates' cached L = V diag(w) V^T:
    stable on stiff symmetric generators, and two matrix-vector products
    once L is decomposed. It reproduces the two-state closed form
    p1(t) = 1/2 + (p1(0)-1/2)e^{-2rt} well inside 1e-10.
    """
    if not math.isfinite(t):
        raise NumericError(f"time must be finite, got {t}")
    if t == 0.0 and p0.n == rates.n:
        return p0
    return trajectory(p0, rates, [t])[0]


def _propagate(p0: ProbDist, rates: RateMatrix, ts: np.ndarray) -> np.ndarray:
    """Rows p(t) for every t in ts, from the rates' cached spectrum."""
    if p0.n != rates.n:
        raise InvalidInputError(f"dimension mismatch: p0 has {p0.n} states, the rates {rates.n}")
    if np.any(ts < 0) or not np.all(np.isfinite(ts)):
        raise InvalidInputError("times must be finite and nonnegative")
    w, v = rates.spectrum
    # eigh leaves each zero eigenvalue (one per component) near +-n eps max|w|;
    # exactly 0 keeps an equilibrium from decaying or growing at long horizons.
    w = np.where(w > -rates.n * math.ulp(1.0) * np.abs(w).max(), 0.0, w)
    with np.errstate(over="ignore", invalid="ignore"):  # _clamped reports non-finite rows
        raw = (np.exp(np.outer(ts, w)) * (v.T @ p0.p)) @ v.T
    return _clamped(raw)


def trajectory(p0: ProbDist, rates: RateMatrix, ts: Sequence[float]) -> list[ProbDist]:
    """Evaluate the evolution at many times via one symmetric eigendecomposition,
    exact for the symmetric generators that RateMatrix makes."""
    return [ProbDist(row) for row in _propagate(p0, rates, np.asarray(ts, dtype=float))]


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
    """-lambda_2 of L, the slowest rate of approach to the equilibrium. A disconnected graph
    (gap 0) raises NonUniqueEquilibriumError first; a gap rounded to <= 0, InvalidInputError."""
    equilibrium_distribution(rates)
    return require_positive("the spectral gap of the rates", float(-rates.spectrum[0][-2]))


def detailed_balance_residual(rates: RateMatrix, p: ProbDist) -> float:
    """max_ij |r_ij p_j - r_ji p_i|; zero at equilibrium."""
    r = rates.rates
    flow = r * p.p[None, :]
    return float(np.max(np.abs(flow - flow.T)))


@dataclass(frozen=True)
class HTheoremReport:
    """Entropy trajectory samples plus the monotonicity and production checks, in units of k."""

    CSV_HEADER = ("t", "S", "dSdt", "dist_to_eq")

    times: np.ndarray
    entropy: np.ndarray
    production_rate: np.ndarray
    dist_to_eq: np.ndarray
    checks: dict[str, Check]
    min_production: float
    terminal_dist: float

    @property
    def monotone(self) -> bool:
        return self.checks["entropy_monotone"].passed

    def to_rows(self) -> list[tuple[float, float, float, float]]:
        return list(
            zip(
                self.times.tolist(),
                self.entropy.tolist(),
                self.production_rate.tolist(),
                self.dist_to_eq.tolist(),
            )
        )

    def verdicts(self) -> dict[str, Check]:
        """S(t) never falls, nor is dS/dt negative, by more than verify_h_theorem's bounds."""
        return dict(self.checks)


def verify_h_theorem(
    rates: RateMatrix,
    p0: ProbDist,
    t_grid: Sequence[float],
    units: UnitSystem = NATURAL_UNITS,
) -> HTheoremReport:
    """Sample S(t), its production rate, and the distance to equilibrium.

    Both verdicts are checked in units of k, before k scales the report,
    against first-order rounding bounds (Higham 2002, ch. 3) on n states:
    S/k may fall by 4 (n + 2) eps max(1, S/k) between samples, and a rate/k
    may read -4 (n + 1) eps ln(1 / min p) max_j r_j, with r_j the exit rate
    of state j. p0 must be interior (all entries > PROB_FLOOR); samples are
    floored there before the production rate is evaluated, per the
    documented regularization. All samples are computed at once, as one
    array with a row per time.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size < 1:
        raise InvalidInputError("t_grid must contain at least one time")
    if np.any(np.diff(ts) < 0):
        raise InvalidInputError("t_grid must be nondecreasing")
    if not np.all(p0.p > PROB_FLOOR):
        raise InvalidInputError(
            f"p0 must be interior (all entries > {PROB_FLOOR}) for the H-theorem check"
        )
    p_eq = equilibrium_distribution(rates)
    samples = _propagate(p0, rates, ts)
    entropy = _entropies(samples, 1.0)  # in units of k: k scales both once it is checked
    floored = np.clip(samples, PROB_FLOOR, None)
    floored /= floored.sum(axis=1, keepdims=True)
    production = _production_rates(floored, rates.generator, 1.0)
    largest = max(float(np.abs(entropy).max()), float(np.abs(production).max()))
    n, eps = rates.n, np.finfo(float).eps
    fall, slack = np.diff(entropy).min(initial=0.0), 4 * (n + 2) * eps * max(1.0, entropy.max())
    monotone = Check(bool(fall >= -slack), fall, 0.0, slack)
    exits = math.log(floored.min()) * rates.generator.diagonal().min()  # ln(1/min p) max_j r_j
    lowest, slack = production.min(), 4 * (n + 1) * eps * exits
    productive = Check(bool(lowest >= -slack), lowest, 0.0, slack)
    require_positive(f"{units}'s k times {largest!r}", units.k * largest, least=0.0)
    entropy, production = units.k * entropy, units.k * production
    dist = np.max(np.abs(samples - p_eq.p), axis=1)
    return HTheoremReport(
        times=_freeze(ts),
        entropy=_freeze(entropy),
        production_rate=_freeze(production),
        dist_to_eq=_freeze(dist),
        checks={"entropy_monotone": monotone, "production_nonnegative": productive},
        min_production=float(production.min()),
        terminal_dist=float(dist[-1]),
    )


def random_symmetric_rates(n: int, rng: np.random.Generator) -> RateMatrix:
    """Random connected symmetric rates: a spanning tree plus each other edge with
    probability 0.3, every rate uniform on [0.5, 2)."""
    require_count("n_states", n, 2, MAX_STATES)
    # State order[i] attaches to a uniformly chosen earlier state of the order.
    order = rng.permutation(n)
    edges = np.triu(rng.random((n, n)) < 0.3, 1)
    edges[order[1:], order[rng.integers(0, np.arange(1, n))]] = True
    edges = np.triu(edges | edges.T, 1)
    upper = np.where(edges, rng.uniform(0.5, 2.0, (n, n)), 0.0)
    return RateMatrix(upper + upper.T)


def rate_matrix_from_text(path: str | Path) -> RateMatrix:
    """Read whitespace-separated rows of rates from a plain-text file."""
    try:
        with warnings.catch_warnings():  # an empty file warns; make it the one error
            warnings.simplefilter("error", UserWarning)
            r = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise InvalidInputError(f"cannot parse rate matrix from {path}: {exc}") from exc
    return RateMatrix(r)


def rate_matrix_from_json(path: str | Path) -> RateMatrix:
    """Read rates from a JSON file with field "rates": array of arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or not UTF-8
        raise InvalidInputError(f"cannot parse JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict) or "rates" not in doc:
        raise InvalidInputError('JSON rate file must contain a "rates" field')
    try:
        rates = np.asarray(doc["rates"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f'"rates" in {path} is not a numeric matrix: {exc}') from exc
    return RateMatrix(rates)
