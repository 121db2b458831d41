"""Seeded ensemble random walks and their diffusion signatures.

Unbiased steps (either +-1 or Gaussian) produce zero mean displacement but
a mean-square displacement that grows linearly, msd(t) = var_step * t, the
hallmark of diffusive spreading; the fitted diffusion coefficient follows
msd = 2 D t with D = var_step / (2 dt), dt = 1 step. The positional
histogram converges to the Gaussian of variance t * var_step once t is
deep enough into the central-limit regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError
from .reporting import write_csv

STEP_PLUS_MINUS_ONE = "plus_minus_one"
STEP_GAUSSIAN = "gaussian"
STEP_LAWS = (STEP_PLUS_MINUS_ONE, STEP_GAUSSIAN)

#: Below this step index the +-1 walk is visibly discrete, not Gaussian.
CLT_MIN_STEP = 25
HISTOGRAM_MIN_WALKERS = 100_000


@dataclass(frozen=True)
class WalkSpec:
    """Ensemble walk parameters; sigma_step applies to the Gaussian law only."""

    n_steps: int
    n_walkers: int
    rng_seed: int
    step_law: str = STEP_PLUS_MINUS_ONE
    sigma_step: float = 1.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise InvalidInputError("n_steps must be >= 1")
        if self.n_walkers < 1:
            raise InvalidInputError("n_walkers must be >= 1")
        if self.step_law not in STEP_LAWS:
            raise InvalidInputError(f"step_law must be one of {STEP_LAWS}")
        if not (self.sigma_step > 0 and math.isfinite(self.sigma_step)):
            raise InvalidInputError("sigma_step must be positive")

    @property
    def step_variance(self) -> float:
        return 1.0 if self.step_law == STEP_PLUS_MINUS_ONE else self.sigma_step**2


def _draw_steps(spec: WalkSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.step_law == STEP_PLUS_MINUS_ONE:
        return rng.integers(0, 2, size=spec.n_walkers) * 2.0 - 1.0
    return rng.normal(0.0, spec.sigma_step, size=spec.n_walkers)


def _positions_at(spec: WalkSpec, t: int) -> np.ndarray:
    """Walker positions after t steps (deterministic in the spec's seed)."""
    rng = np.random.default_rng(spec.rng_seed)
    x = np.zeros(spec.n_walkers)
    for _ in range(t):
        x += _draw_steps(spec, rng)
    return x


@dataclass(frozen=True)
class DiffusionReport:
    """Per-step ensemble moments and the diffusion-coefficient fit."""

    times: np.ndarray
    mean_displacement: np.ndarray
    msd: np.ndarray
    fitted_D: float
    analytic_D: float
    r_squared: float

    def to_csv(self, path: str | Path) -> None:
        write_csv(
            path,
            ("t", "mean_displacement", "msd"),
            zip(self.times.tolist(), self.mean_displacement.tolist(), self.msd.tolist()),
        )


def simulate_walks(spec: WalkSpec) -> DiffusionReport:
    """Run the ensemble and accumulate mean displacement and MSD per step.

    The diffusion coefficient is fit by ordinary least squares of
    msd = a + 2 D t over the late-time window t in [10, n_steps] (whole
    range when the walk is shorter than 20 steps).
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_steps
    x = np.zeros(spec.n_walkers)
    mean = np.zeros(n + 1)
    msd = np.zeros(n + 1)
    for step in range(1, n + 1):
        x += _draw_steps(spec, rng)
        mean[step] = x.mean()
        msd[step] = np.mean(x * x)
    times = np.arange(n + 1, dtype=float)

    t_lo = 10 if n >= 20 else 1
    t_fit = times[t_lo:]
    y_fit = msd[t_lo:]
    if t_fit.size >= 2:
        slope, intercept = np.polyfit(t_fit, y_fit, 1)
        resid = y_fit - (slope * t_fit + intercept)
        ss_tot = float(np.sum((y_fit - y_fit.mean()) ** 2))
        r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    else:
        # one usable sample: slope through the origin, nothing to score
        slope = y_fit[0] / t_fit[0]
        r_squared = 1.0

    for arr in (times, mean, msd):
        arr.setflags(write=False)
    return DiffusionReport(
        times=times,
        mean_displacement=mean,
        msd=msd,
        fitted_D=float(slope / 2.0),
        analytic_D=spec.step_variance / 2.0,
        r_squared=r_squared,
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


def histogram_vs_gaussian(spec: WalkSpec, t: int, n_bins: int = 20) -> HistogramReport:
    """Compare the step-t position histogram with N(0, t * var_step).

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
    if n_bins < 2:
        raise InvalidInputError("n_bins must be >= 2")

    x = _positions_at(spec, t)
    sigma = math.sqrt(t * spec.step_variance)
    window = 4.0 * sigma

    if spec.step_law == STEP_PLUS_MINUS_ONE:
        # occupied sites are -t, -t+2, ..., t; keep those inside the window
        sites = np.arange(-t, t + 1, 2, dtype=float)
        sites = sites[np.abs(sites) <= window]
        groups = np.array_split(sites, n_bins)
        edges = np.array([g[0] - 1.0 for g in groups] + [groups[-1][-1] + 1.0])
    else:
        edges = np.linspace(-window, window, n_bins + 1)

    observed, _ = np.histogram(x, bins=edges)
    probs = np.diff(ndtr(edges / sigma))
    expected = spec.n_walkers * probs
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    per_bin = chi2 / len(observed)
    edges.setflags(write=False)
    return HistogramReport(
        bin_edges=edges,
        observed=observed,
        expected=expected,
        chi2_total=chi2,
        chi2_per_bin=per_bin,
        passes=bool(per_bin <= 2.0),
    )
