"""Random-walk diffusion: moments, coefficient fit, central-limit histogram."""

import dataclasses
import math
from itertools import islice, product
from typing import Iterator

import numpy as np
import pytest

from demonlab import brownian as br
from demonlab.errors import InvalidInputError
from demonlab.reporting import write_csv


def pm1_msd_standard_error(n_steps: int, n_walkers: int) -> float:
    # Var(x^2) = 2 n (n - 1) for the +-1 walk (verified by enumeration below)
    return math.sqrt(2.0 * n_steps * (n_steps - 1) / n_walkers)


def reference_walk(spec: br.WalkSpec) -> Iterator[np.ndarray]:
    """The float walk: positions after each step, one array updated in place."""
    rng = np.random.default_rng(spec.rng_seed)
    x = np.zeros(spec.n_walkers)
    for _ in range(spec.n_steps):
        if spec.step_law == br.STEP_PLUS_MINUS_ONE:
            x += rng.integers(0, 2, size=spec.n_walkers) * 2.0 - 1.0
        else:
            x += rng.normal(0.0, spec.sigma_step, size=spec.n_walkers)
        yield x


def test_pm1_moment_formulas_by_enumeration():
    # brute-force oracle over all 2^n paths for small n
    for n in (2, 3, 4, 6):
        finals = [sum(path) for path in product((1, -1), repeat=n)]
        sq = np.array([x * x for x in finals], dtype=float)
        assert sq.mean() == n
        assert sq.var() == 2 * n * (n - 1)


class TestWalkSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            br.WalkSpec(n_steps=0, n_walkers=10, rng_seed=0)
        with pytest.raises(InvalidInputError):
            br.WalkSpec(n_steps=10, n_walkers=0, rng_seed=0)
        with pytest.raises(InvalidInputError):
            br.WalkSpec(n_steps=10, n_walkers=10, rng_seed=0, step_law="levy")
        with pytest.raises(InvalidInputError):
            br.WalkSpec(n_steps=10, n_walkers=10, rng_seed=0, sigma_step=0.0)

    @pytest.mark.parametrize("sigma", [1e200, 1e76, 1e-155, 1e-170])
    def test_gaussian_sigma_out_of_float_range(self, sigma):
        # n_steps^3 sigma^4 (the fit's squared MSDs) overflows above ~3.66e75
        # at n_steps = 100; sigma^2 is subnormal below ~1.49e-154
        with pytest.raises(InvalidInputError, match="sigma_step out of float64 range"):
            br.WalkSpec(100, 10_000, 0, step_law=br.STEP_GAUSSIAN, sigma_step=sigma)

    @pytest.mark.parametrize("sigma", [3.6e75, 1e-150])
    def test_gaussian_sigma_at_the_range_edges_runs_clean(self, sigma):
        spec = br.WalkSpec(100, 10_000, 0, step_law=br.STEP_GAUSSIAN, sigma_step=sigma)
        report = br.simulate_walks(spec)
        assert np.isfinite(report.msd).all() and report.msd[-1] > 0
        assert report.verdicts()["msd_within_3sigma"]

    def test_sigma_range_applies_to_the_gaussian_law_only(self):
        spec = br.WalkSpec(n_steps=10, n_walkers=10, rng_seed=0, sigma_step=1e200)
        assert spec.step_variance == 1.0


class TestSimulateWalks:
    def test_pm1_msd_within_3sigma(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=0)
        report = br.simulate_walks(spec)
        tol = 3.0 * pm1_msd_standard_error(100, 100_000)
        assert tol == pytest.approx(1.335, abs=5e-3)
        assert abs(report.msd[-1] - 100.0) <= tol

    def test_mean_displacement_statistically_zero(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=1)
        report = br.simulate_walks(spec)
        tol = 3.0 * math.sqrt(100.0 / 100_000)
        assert abs(report.mean_displacement[-1]) <= tol

    def test_single_step_msd_exact(self):
        spec = br.WalkSpec(n_steps=1, n_walkers=5_000, rng_seed=2)
        report = br.simulate_walks(spec)
        assert report.msd[-1] == 1.0

    def test_fitted_diffusion_coefficient(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=20_000, rng_seed=3)
        report = br.simulate_walks(spec)
        assert report.analytic_D == 0.5
        assert report.fitted_D == pytest.approx(0.5, rel=0.05)

    def test_gaussian_step_law(self):
        spec = br.WalkSpec(
            n_steps=80, n_walkers=20_000, rng_seed=4, step_law=br.STEP_GAUSSIAN, sigma_step=2.0
        )
        report = br.simulate_walks(spec)
        assert report.analytic_D == 2.0
        assert report.fitted_D == pytest.approx(2.0, rel=0.05)

    def test_doubling_sigma_quadruples_fit(self):
        base = br.simulate_walks(br.WalkSpec(
            n_steps=60, n_walkers=20_000, rng_seed=5, step_law=br.STEP_GAUSSIAN, sigma_step=1.0
        ))
        doubled = br.simulate_walks(br.WalkSpec(
            n_steps=60, n_walkers=20_000, rng_seed=5, step_law=br.STEP_GAUSSIAN, sigma_step=2.0
        ))
        assert doubled.fitted_D == pytest.approx(4.0 * base.fitted_D, rel=0.1)

    def test_msd_linearity_r_squared(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=10_000, rng_seed=6)
        report = br.simulate_walks(spec)
        assert report.r_squared > 0.999

    def test_seed_determinism_bit_identical(self):
        spec = br.WalkSpec(n_steps=50, n_walkers=1_000, rng_seed=7)
        a = br.simulate_walks(spec)
        b = br.simulate_walks(spec)
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.mean_displacement, b.mean_displacement)
        assert a.fitted_D == b.fitted_D

    def test_msd_nondecreasing_within_noise(self):
        spec = br.WalkSpec(n_steps=200, n_walkers=50_000, rng_seed=8)
        report = br.simulate_walks(spec)
        drops = np.diff(report.msd)
        # single-step MSD increments are 1 +- noise; allow 3-sigma dips
        step_noise = 3.0 * math.sqrt(8.0 * 200.0 / 50_000)
        assert drops.min() > -step_noise

    def test_csv_emission(self, tmp_path):
        spec = br.WalkSpec(n_steps=10, n_walkers=100, rng_seed=9)
        report = br.simulate_walks(spec)
        path = tmp_path / "walk.csv"
        write_csv(path, report.CSV_HEADER, report.to_rows())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,mean_displacement,msd"
        assert len(lines) == 12
        assert lines[1].startswith("0.0,0.0,0.0")


    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    def test_verdicts_pass_and_catch_a_scaled_msd(self, law):
        spec = br.WalkSpec(n_steps=100, n_walkers=20_000, rng_seed=12, step_law=law)
        report = br.simulate_walks(spec)
        assert report.msd_expected == 100.0
        assert report.verdicts() == {
            "msd_within_3sigma": True, "mean_within_3sigma": True, "msd_fit_linear": True
        }
        scaled = dataclasses.replace(report, msd=report.msd * 1.1)
        assert scaled.verdicts()["msd_within_3sigma"] is False


class TestIntegerWalk:
    """The +-1 walk runs in int64 and must match the float walk bit for bit."""

    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    @pytest.mark.parametrize("steps, walkers", [(1, 7), (19, 1001), (20, 20001), (300, 4096)])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_moments_equal_the_float_walk(self, steps, walkers, law, seed):
        spec = br.WalkSpec(steps, walkers, seed, step_law=law, sigma_step=1.7)
        moments = [(x.mean(), np.mean(x * x)) for x in reference_walk(spec)]
        mean, msd = np.array([(0.0, 0.0), *moments]).T
        report = br.simulate_walks(spec)
        assert np.array_equal(report.mean_displacement, mean)
        assert np.array_equal(report.msd, msd)

    @pytest.mark.parametrize("walkers", [1, 2, 7, 1001, 4096])
    def test_pm1_steps_and_state_are_those_of_integers(self, walkers):
        # draws alternate with rng.integers on one generator, so a 32-bit half left
        # over by either is taken up by the other
        spec = br.WalkSpec(n_steps=1, n_walkers=walkers, rng_seed=0)
        ref, rng = np.random.default_rng(8), np.random.default_rng(8)
        for k in range(6):
            expected = ref.integers(0, 2, size=walkers) * 2 - 1
            if k % 2:
                steps = br._draw_steps(spec, rng)
            else:
                steps = rng.integers(0, 2, size=walkers) * 2 - 1
            assert np.array_equal(steps, expected)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_pm1_positions_are_int64(self):
        positions = list(map(np.copy, br._walk(br.WalkSpec(5, 1001, 3))))
        assert len(positions) == 5 and all(x.dtype == np.int64 for x in positions)
        assert all(np.array_equal(x % 2, np.full(1001, t % 2)) for t, x in enumerate(positions, 1))

    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    def test_histogram_counts_the_float_walk_at_step_t(self, law):
        spec = br.WalkSpec(60, 100_000, 21, step_law=law, sigma_step=0.8)
        x = next(islice(reference_walk(spec), 39, None))
        report = br.histogram_vs_gaussian(spec, 40)
        observed, _ = np.histogram(x, bins=report.bin_edges)
        assert np.array_equal(report.observed, observed)


class TestHistogramVsGaussian:
    def test_pm1_passes_at_central_limit(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=10)
        report = br.histogram_vs_gaussian(spec, 100)
        assert len(report.observed) == 20
        assert report.chi2_per_bin <= 2.0
        assert report.passes

    def test_gaussian_steps_pass(self):
        spec = br.WalkSpec(
            n_steps=64, n_walkers=100_000, rng_seed=11, step_law=br.STEP_GAUSSIAN, sigma_step=1.5
        )
        report = br.histogram_vs_gaussian(spec, 64)
        assert report.passes

    def test_pm1_odd_time_parity_safe(self):
        spec = br.WalkSpec(n_steps=75, n_walkers=100_000, rng_seed=12)
        report = br.histogram_vs_gaussian(spec, 75)
        assert report.passes

    def test_early_time_rejected(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=13)
        with pytest.raises(InvalidInputError):
            br.histogram_vs_gaussian(spec, 1)

    def test_insufficient_walkers_rejected(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=50_000, rng_seed=14)
        with pytest.raises(InvalidInputError):
            br.histogram_vs_gaussian(spec, 100)

    def test_t_beyond_walk_rejected(self):
        spec = br.WalkSpec(n_steps=50, n_walkers=100_000, rng_seed=15)
        with pytest.raises(InvalidInputError):
            br.histogram_vs_gaussian(spec, 60)

    def test_expected_counts_from_gaussian_cdf(self):
        spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=16)
        report = br.histogram_vs_gaussian(spec, 100)
        # expectations integrate N(0, t) over the bins: they sum to < walkers
        assert report.expected.sum() < spec.n_walkers
        assert report.expected.min() > 5.0
