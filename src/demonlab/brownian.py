"""Seeded ensemble random walks and their diffusion signatures.

Unbiased steps (either +-1 or Gaussian) produce zero mean displacement but
a mean-square displacement that grows linearly, msd(t) = var_step * t, the
hallmark of diffusive spreading; the fitted diffusion coefficient follows
msd = 2 D t with D = var_step / (2 dt), dt = 1 step. The positional
histogram converges to the Gaussian of variance t * var_step once t is
deep enough into the central-limit regime. The module needs numpy alone:
the Gaussian CDF of the few bin edges comes from math.erfc.

The walk is drawn in blocks of ceil(2**16 / W) steps for W walkers, one generator call
per block, at O(W) a step. The +-1 walk counts each walker's +1 steps B in float64
(x = 2 B - t), and sum x = 2 sum B - W t and sum x^2 = 4 sum B^2 - 4 t sum B + W t^2 are
float64 sums of whole numbers: exact, so equal to the float walk's bit for bit, while
W t^2 < 2**53. A block of k +-1 steps takes one step from each bit of ceil(k W / 64) raw
PCG64 words, 1 a +1 step and 0 a -1 step: every bit of a PCG64 output is of full quality
(O'Neill 2014). From 2**16 +-1 walkers up, the walkers are int64 counts n_b per value b of
B, and Binomial(n_b, 1/2) of them step up: the same law, as they are exchangeable, at
O(occupied sites) a step, by numpy's exact sampler (Kachitvichyanukul & Schmeiser 1988).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NORMAL, InvalidInputError, require_count, require_positive
from .reporting import Check

STEP_PLUS_MINUS_ONE = "plus_minus_one"
STEP_GAUSSIAN = "gaussian"
STEP_LAWS = (STEP_PLUS_MINUS_ONE, STEP_GAUSSIAN)

#: Below this step index the +-1 walk is visibly discrete, not Gaussian.
CLT_MIN_STEP = 25
HISTOGRAM_MIN_WALKERS = 100_000
HISTOGRAM_BINS = 20
#: Steps drawn per call, over all walkers: a block is ceil(BLOCK_DRAWS / n_walkers) steps.
BLOCK_DRAWS = 2**16


@dataclass(frozen=True)
class WalkSpec:
    """Ensemble walk parameters; sigma_step applies to the Gaussian law only."""

    #: A larger walk would not fit in memory or time: a step costs O(W) below 2**16 walkers
    #: (+-1 counts are float64, a draw takes 3 ns) and O(occupied sites) for +-1 walkers above.
    MAX_STEPS, MAX_WALKERS, MAX_DRAWS = 10**7, 10**7, 10**9

    n_steps: int
    n_walkers: int
    rng_seed: int
    step_law: str = STEP_PLUS_MINUS_ONE
    sigma_step: float = 1.0

    def __post_init__(self) -> None:
        require_count("n_steps", self.n_steps, 1, self.MAX_STEPS)
        require_count("n_walkers", self.n_walkers, 1, self.MAX_WALKERS)
        require_count("n_steps * n_walkers", self.n_steps * self.n_walkers, 1, self.MAX_DRAWS)
        if self.step_law not in STEP_LAWS:
            raise InvalidInputError(f"step_law must be one of {STEP_LAWS}")
        require_positive("sigma_step", self.sigma_step)
        # a normal var, and a finite sum of the fit's n_steps squared MSDs (each ~ (n_steps var)^2)
        var = self.step_variance
        source = f"sigma_step out of float64 range: with sigma_step={self.sigma_step!r},"
        require_positive(f"{source} the variance", var, least=NORMAL)
        require_positive(f"{source} n_steps**3 var**2", self.n_steps**3 * var * var, least=0.0)

    @property
    def step_variance(self) -> float:
        return 1.0 if self.step_law == STEP_PLUS_MINUS_ONE else self.sigma_step * self.sigma_step


def _draw_steps(spec: WalkSpec, rng: np.random.Generator, k: int | np.ndarray) -> np.ndarray:
    """The next k steps of every walker, one row each in float64: Gaussian steps, or 1.0 for
    a +1 step and 0.0 for a -1 step. A (k, W) normal draw fills in C order, so it equals k row
    draws. The +-1 steps are the bits of ceil(k W / 64) raw PCG64 words, each word read from
    its least significant bit up, the words in order; the bits left in the last word go unused.
    Given an array k of walkers at each site instead: how many of each step up (0 draws none)."""
    if isinstance(k, np.ndarray):
        return rng.binomial(k, 0.5)
    if spec.step_law == STEP_GAUSSIAN:
        return rng.normal(0.0, spec.sigma_step, size=(k, spec.n_walkers))
    n = k * spec.n_walkers
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    return bits.astype(float).reshape(k, spec.n_walkers)


def _counted(spec: WalkSpec) -> Iterator[tuple[int, np.ndarray]]:
    """The +-1 walk of BLOCK_DRAWS walkers or more as int64 counts of walkers per value of B, one
    draw a step: per step, the lowest occupied B and the walkers from it to the highest occupied,
    a view that the next step overwrites."""
    rng = np.random.default_rng(spec.rng_seed)
    counts, lo, hi = np.r_[spec.n_walkers, np.zeros(spec.n_steps, np.int64)], 0, 1
    for _ in range(spec.n_steps):
        occupied = counts[lo:hi]
        up = _draw_steps(spec, rng, occupied)
        occupied -= up
        counts[lo + 1 : hi + 1] += up
        lo, hi = lo + (not occupied[0]), hi + bool(up[-1])  # by one site at most
        yield lo, counts[lo:hi]


def _walk(spec: WalkSpec) -> Iterator[tuple[int, np.ndarray]]:
    """The seeded walk in blocks of ceil(BLOCK_DRAWS / n_walkers) steps: yields (t0, block), row
    i the state after step t0 + i + 1 in float64: the Gaussian positions, or the +-1 counts B,
    whole numbers below 2**53 that every sum and square-sum adds exactly."""
    rng = np.random.default_rng(spec.rng_seed)
    k = -(-BLOCK_DRAWS // spec.n_walkers)
    last = np.zeros(spec.n_walkers)
    for t0 in range(0, spec.n_steps, k):
        block = _draw_steps(spec, rng, min(k, spec.n_steps - t0))
        for row in block:
            row += last
            last = row
        yield t0, block


@dataclass(frozen=True)
class DiffusionReport:
    """Per-step ensemble moments and the diffusion-coefficient fit."""

    times: np.ndarray
    mean_displacement: np.ndarray
    msd: np.ndarray
    fitted_D: float
    analytic_D: float
    r_squared: float
    msd_expected: float
    spec: WalkSpec

    CSV_HEADER = ("t", "mean_displacement", "msd")

    def to_rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.times.tolist(), self.mean_displacement.tolist(), self.msd.tolist()))

    def verdicts(self) -> dict[str, Check]:
        """Final MSD and mean within 3 standard errors of n var_step and 0 (the
        MSD's SE is the spread of x^2 over the walkers); R^2 > 0.999."""
        n, walkers, msd_expected = self.spec.n_steps, self.spec.n_walkers, self.msd_expected
        if self.spec.step_law == STEP_PLUS_MINUS_ONE:
            msd_se = math.sqrt(2.0 * n * (n - 1) / walkers)
        else:
            msd_se = math.sqrt(2.0) * msd_expected / math.sqrt(walkers)
        mean_se = math.sqrt(msd_expected / walkers)
        return {
            "msd_within_3sigma": Check.within(self.msd[-1], msd_expected, 3.0 * msd_se),
            "mean_within_3sigma": Check.within(self.mean_displacement[-1], 0.0, 3.0 * mean_se),
            "msd_fit_linear": Check(bool(self.r_squared > 0.999), self.r_squared, 0.999, 0.0),
        }


def simulate_walks(spec: WalkSpec) -> DiffusionReport:
    """Run the ensemble and accumulate mean displacement and MSD per step.

    The diffusion coefficient is fit by ordinary least squares of
    msd = a + 2 D t over the late-time window t in [10, n_steps] (whole
    range when the walk is shorter than 20 steps).
    """
    n, w = spec.n_steps, spec.n_walkers
    times = np.arange(n + 1, dtype=float)
    if spec.step_law == STEP_PLUS_MINUS_ONE and w >= BLOCK_DRAWS:  # counts of walkers per site
        # sum B and sum B^2 over the walkers, exact in int64, by one product a step
        b, moments = np.arange(n + 1), np.zeros((n + 1, 2), np.int64)
        powers = np.stack((b, b * b))
        for t, (lo, occupied) in enumerate(_counted(spec), 1):
            np.matmul(powers[:, lo : lo + occupied.size], occupied, out=moments[t])
        sums, squares = moments.T.astype(float)
    else:
        sums, squares = np.zeros(n + 1), np.zeros(n + 1)
        for t0, block in _walk(spec):
            rows = slice(t0 + 1, t0 + 1 + len(block))
            sums[rows] = block.sum(axis=1)
            if spec.step_law == STEP_GAUSSIAN:
                squares[rows] = (block * block).sum(axis=1)
            else:  # by BLAS: whole numbers below 2**53 add exactly in any order
                squares[rows] = (block[:, None, :] @ block[:, :, None]).ravel()
    if spec.step_law == STEP_PLUS_MINUS_ONE:  # the identities of the module docstring
        sums, squares = 2.0 * sums - w * times, 4.0 * (squares - times * sums) + w * times * times
    mean, msd = sums / w, squares / w

    t_lo = 10 if n >= 20 else 1
    t_fit, y_fit = times[t_lo:], msd[t_lo:]
    if t_fit.size >= 2:
        slope, intercept = np.polyfit(t_fit, y_fit, 1)
        resid = y_fit - (slope * t_fit + intercept)
        ss_tot = float(np.sum((y_fit - y_fit.mean()) ** 2))
        r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    else:
        # one usable sample: slope through the origin, nothing to score
        slope, r_squared = y_fit[0] / t_fit[0], 1.0

    for arr in (times, mean, msd):
        arr.setflags(write=False)
    return DiffusionReport(
        times=times, mean_displacement=mean, msd=msd, fitted_D=float(slope / 2.0),
        analytic_D=spec.step_variance / 2.0, r_squared=r_squared,
        msd_expected=n * spec.step_variance, spec=spec,
    )


@dataclass(frozen=True)
class HistogramReport:
    """Binned positions against the central-limit Gaussian."""

    bin_edges: np.ndarray
    observed: np.ndarray
    expected: np.ndarray
    chi2_total: float
    chi2_per_bin: float
    passes: bool


def histogram_vs_gaussian(spec: WalkSpec, t: int) -> HistogramReport:
    """Compare the step-t position histogram with N(0, t * var_step) in HISTOGRAM_BINS bins.

    Requires t >= CLT_MIN_STEP (the two-point distribution of a short +-1
    walk is nothing like a Gaussian) and n_walkers >= 100000 so each bin
    carries enough counts for a stable chi-squared. For the +-1 walk, bins
    are built from groups of consecutive occupied lattice sites so the
    parity constraint (x = t mod 2) cannot alias the expected counts.
    """
    if t < CLT_MIN_STEP:
        raise InvalidInputError(f"central-limit comparison requires t >= {CLT_MIN_STEP}")
    if t > spec.n_steps:
        raise InvalidInputError("t exceeds the walk length")
    if spec.n_walkers < HISTOGRAM_MIN_WALKERS:
        raise InvalidInputError(
            f"insufficient walkers: need >= {HISTOGRAM_MIN_WALKERS} for the histogram"
        )

    sigma = math.sqrt(t * spec.step_variance)
    window = 4.0 * sigma

    if spec.step_law == STEP_PLUS_MINUS_ONE:  # counted: HISTOGRAM_MIN_WALKERS >= BLOCK_DRAWS
        lo, weights = next(step for s, step in enumerate(_counted(spec), 1) if s == t)
        x = 2 * np.arange(lo, lo + weights.size) - t  # from the counts of +1 steps
        # occupied sites are -t, -t+2, ..., t; keep those inside the window
        sites = np.arange(-t, t + 1, 2, dtype=float)
        sites = sites[np.abs(sites) <= window]
        groups = np.array_split(sites, HISTOGRAM_BINS)
        edges = np.array([g[0] - 1.0 for g in groups] + [groups[-1][-1] + 1.0])
    else:
        x, weights = next((b[t - t0 - 1], None) for t0, b in _walk(spec) if t <= t0 + len(b))
        edges = np.linspace(-window, window, HISTOGRAM_BINS + 1)

    observed, _ = np.histogram(x, bins=edges.astype(x.dtype), weights=weights)  # whole edges
    cdf = [0.5 * math.erfc(-z / math.sqrt(2.0)) for z in (edges / sigma).tolist()]
    expected = spec.n_walkers * np.diff(cdf)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    per_bin = chi2 / len(observed)
    edges.setflags(write=False)
    return HistogramReport(edges, observed, expected, chi2, per_bin, passes=bool(per_bin <= 2.0))
