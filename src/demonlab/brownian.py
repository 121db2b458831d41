"""Seeded ensemble random walks and their diffusion signatures.

Unbiased steps (either +-1 or Gaussian) produce zero mean displacement but
a mean-square displacement that grows linearly, msd(t) = var_step * t, the
hallmark of diffusive spreading; the fitted diffusion coefficient follows
msd = 2 D t with D = var_step / (2 dt), dt = 1 step. The positional
histogram converges to the Gaussian of variance t * var_step once t is
deep enough into the central-limit regime. scipy is imported on first use,
by histogram_vs_gaussian alone, so the brownian CLI scenario does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import InvalidInputError, require_positive

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
        require_positive("sigma_step", self.sigma_step)
        # a normal var, and a finite sum of the fit's n_steps squared MSDs (each ~ (n_steps var)^2)
        var = self.sigma_step * self.sigma_step if self.step_law == STEP_GAUSSIAN else 1.0
        if not (var >= np.finfo(float).tiny and math.isfinite(self.n_steps**3 * var * var)):
            raise InvalidInputError(f"sigma_step out of float64 range, got {self.sigma_step!r}")

    @property
    def step_variance(self) -> float:
        return 1.0 if self.step_law == STEP_PLUS_MINUS_ONE else self.sigma_step**2


def _draw_steps(spec: WalkSpec, rng: np.random.Generator) -> np.ndarray:
    """One step per walker: float64 Gaussian, or int32 +-1.

    The +-1 steps, and the generator's state after them, are those of rng.integers(0, 2) * 2 - 1:
    integers(0, 2) takes the top bit of each 32-bit word of PCG64's stream (the low, then the
    high half of each raw output; a half left over waits in the state). Here the words are read
    from raw outputs in bulk, at a third of the cost."""
    if spec.step_law == STEP_GAUSSIAN:
        return rng.normal(0.0, spec.sigma_step, size=spec.n_walkers)
    n, bitgen = spec.n_walkers, rng.bit_generator
    spare = [bitgen.state["uinteger"]] * bitgen.state["has_uint32"]
    raw = bitgen.random_raw((n - len(spare) + 1) // 2).astype("<u8", copy=False)
    words = np.concatenate((np.array(spare, np.uint32), raw.view("<u4")))
    bitgen.state = {**bitgen.state, "has_uint32": words.size - n, "uinteger": int(words[-1])}
    steps = (words[:n] >> 31).view(np.int32)
    steps <<= 1
    steps -= 1
    return steps


def _walk(spec: WalkSpec) -> Iterator[np.ndarray]:
    """Seeded positions after each step (int64 for +-1): one array, updated in place."""
    rng = np.random.default_rng(spec.rng_seed)
    x = np.zeros(spec.n_walkers, dtype=float if spec.step_law == STEP_GAUSSIAN else np.int64)
    for _ in range(spec.n_steps):
        x += _draw_steps(spec, rng)
        yield x


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

    def verdicts(self) -> dict[str, bool]:
        """Final MSD and mean within 3 standard errors of n var_step and 0 (the
        MSD's SE is the spread of x^2 over the walkers); R^2 > 0.999."""
        n, walkers, msd_expected = self.spec.n_steps, self.spec.n_walkers, self.msd_expected
        if self.spec.step_law == STEP_PLUS_MINUS_ONE:
            msd_se = math.sqrt(2.0 * n * (n - 1) / walkers)
        else:
            msd_se = math.sqrt(2.0) * msd_expected / math.sqrt(walkers)
        mean_se = math.sqrt(msd_expected / walkers)
        return {
            "msd_within_3sigma": bool(abs(self.msd[-1] - msd_expected) <= 3.0 * msd_se),
            "mean_within_3sigma": bool(abs(self.mean_displacement[-1]) <= 3.0 * mean_se),
            "msd_fit_linear": bool(self.r_squared > 0.999),
        }


def simulate_walks(spec: WalkSpec) -> DiffusionReport:
    """Run the ensemble and accumulate mean displacement and MSD per step.

    The diffusion coefficient is fit by ordinary least squares of
    msd = a + 2 D t over the late-time window t in [10, n_steps] (whole
    range when the walk is shorter than 20 steps).
    """
    n = spec.n_steps
    mean, msd = np.zeros(n + 1), np.zeros(n + 1)
    # x.mean() and np.mean(x * x) to the bit: +-1 sums are exact in int64 as in float64 < 2**53
    for step, x in enumerate(_walk(spec), start=1):
        mean[step] = x.sum() / spec.n_walkers
        msd[step] = (x * x).sum() / spec.n_walkers
    times = np.arange(n + 1, dtype=float)

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

    x = next(islice(_walk(spec), t - 1, None))
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

    observed, _ = np.histogram(x, bins=edges.astype(x.dtype))  # +-1 edges are whole numbers
    from scipy.special import ndtr  # on first use: the only scipy call of brownian
    expected = spec.n_walkers * np.diff(ndtr(edges / sigma))
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    per_bin = chi2 / len(observed)
    edges.setflags(write=False)
    return HistogramReport(edges, observed, expected, chi2, per_bin, passes=bool(per_bin <= 2.0))
