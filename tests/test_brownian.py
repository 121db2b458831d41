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


def pm1_bits(rng: np.random.Generator, n: int) -> list[int]:
    """n +-1 steps (1 for +1) by Python ints: bit j of each of ceil(n / 64) raw words, from
    the least significant bit up, the words in order."""
    words = rng.bit_generator.random_raw(-(-n // 64))
    return [(int(word) >> j) & 1 for word in words for j in range(64)][:n]


def reference_counts(
    spec: br.WalkSpec, rng: np.random.Generator | None = None
) -> Iterator[dict[int, int]]:
    """The counted +-1 walk by Python ints: after each step, the walkers by their number b of
    +1 steps, occupied sites only. Each step first draws, by one scalar rng.binomial call per
    occupied site in ascending b, how many walkers step up from it, and then moves them."""
    rng = np.random.default_rng(spec.rng_seed) if rng is None else rng
    counts = {0: spec.n_walkers}
    for _ in range(spec.n_steps):
        up = {b: int(rng.binomial(n, 0.5)) for b, n in sorted(counts.items())}
        for b, n in up.items():
            counts[b] -= n
            counts[b + 1] = counts.get(b + 1, 0) + n
        counts = {b: n for b, n in counts.items() if n}
        yield counts


def reference_walk(spec: br.WalkSpec) -> Iterator[np.ndarray]:
    """The walk by plain loops: positions after each step. From 2**16 +-1 walkers up, the
    positions x = 2 b - t of reference_counts, in no set order. Otherwise the float walk, one array
    updated in place; the +-1 steps of each block of ceil(BLOCK_DRAWS / W) steps are the bits
    of its own words."""
    if spec.step_law == br.STEP_PLUS_MINUS_ONE and spec.n_walkers >= br.BLOCK_DRAWS:
        for t, counts in enumerate(reference_counts(spec), 1):
            yield np.repeat([2.0 * b - t for b in counts], list(counts.values()))
        return
    rng = np.random.default_rng(spec.rng_seed)
    x = np.zeros(spec.n_walkers)
    k = math.ceil(br.BLOCK_DRAWS / spec.n_walkers)
    for t in range(spec.n_steps):
        if spec.step_law == br.STEP_PLUS_MINUS_ONE:
            if t % k == 0:
                rows = min(k, spec.n_steps - t)
                block = iter(np.reshape(pm1_bits(rng, rows * spec.n_walkers), (rows, -1)))
            x += next(block) * 2.0 - 1.0
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

    @pytest.mark.parametrize("field, most", [
        ("n_steps", br.WalkSpec.MAX_STEPS), ("n_walkers", br.WalkSpec.MAX_WALKERS)
    ])
    def test_counts_over_the_limit(self, field, most):
        assert most == 10**7
        fields = {"n_steps": 1, "n_walkers": 1, "rng_seed": 0}
        assert getattr(br.WalkSpec(**{**fields, field: most}), field) == most
        with pytest.raises(InvalidInputError, match=rf"^{field} must be in \[1, {most}\], got"):
            br.WalkSpec(**{**fields, field: most + 1})

    def test_draws_over_the_limit(self):
        # 10**9 + 1 = 133 * 7518797; each count alone is inside its own range
        assert br.WalkSpec.MAX_DRAWS == 10**9
        assert br.WalkSpec(n_steps=10**4, n_walkers=10**5, rng_seed=0).n_walkers == 10**5
        message = r"^n_steps \* n_walkers must be in \[1, 1000000000\], got 1000000001$"
        for steps, walkers in ((133, 7_518_797), (7_518_797, 133)):
            with pytest.raises(InvalidInputError, match=message):
                br.WalkSpec(n_steps=steps, n_walkers=walkers, rng_seed=0)

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
        assert report.verdicts()["msd_within_3sigma"].passed

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
        assert {name: c.passed for name, c in report.verdicts().items()} == {
            "msd_within_3sigma": True, "mean_within_3sigma": True, "msd_fit_linear": True
        }
        scaled = dataclasses.replace(report, msd=report.msd * 1.1)
        assert scaled.verdicts()["msd_within_3sigma"].passed is False


    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    @pytest.mark.parametrize("z, inside", [(2.9, True), (3.1, False)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_final_moments_flip_at_three_standard_errors(self, law, z, inside, sign):
        n, walkers = 100, 20_000
        spec = br.WalkSpec(n, walkers, 0, step_law=law, sigma_step=1.5)
        var = spec.step_variance
        # Var(x^2) is 2 n (n - 1) for +-1 steps and 2 (n var)^2 for Gaussian ones
        if law == br.STEP_PLUS_MINUS_ONE:
            msd_se = pm1_msd_standard_error(n, walkers)
        else:
            msd_se = math.sqrt(2.0) * n * var / math.sqrt(walkers)
        mean_se = math.sqrt(n * var / walkers)
        times = np.arange(n + 1, dtype=float)
        msd, mean = var * times, np.zeros(n + 1)
        msd[-1] += sign * z * msd_se
        mean[-1] = sign * z * mean_se
        report = br.DiffusionReport(times, mean, msd, var / 2, var / 2, 1.0, n * var, spec)
        assert {name: c.passed for name, c in report.verdicts().items()} == {
            "msd_within_3sigma": inside, "mean_within_3sigma": inside, "msd_fit_linear": True
        }


class TestIntegerWalk:
    """The block kernel (counts of +1 steps, Gaussian positions) must match the float walk
    bit for bit; ceil(BLOCK_DRAWS / W) steps fill a block. From 2**16 +-1 walkers up, the
    walk by counts per site must match reference_counts bit for bit."""

    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    @pytest.mark.parametrize("steps, walkers", [
        (1, 7), (19, 1001), (20, 20001), (300, 4096),
        (67, 1001),  # one step past the first block of 66
        (5, 65535),  # the most walkers of the +-1 block kernel: blocks of two steps
        (60, 65536),  # the fewest +-1 walkers counted per site; Gaussian: one step a block
        (3, 65537),  # Gaussian: one step a block
        (40, 100_000),
        (2 * 21846 + 1, 3),  # three blocks, the last of one step
        (1000, 1),
    ])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_moments_equal_the_reference_walk(self, steps, walkers, law, seed):
        spec = br.WalkSpec(steps, walkers, seed, step_law=law, sigma_step=1.7)
        moments = [(x.mean(), np.mean(x * x)) for x in reference_walk(spec)]
        mean, msd = np.array([(0.0, 0.0), *moments]).T
        report = br.simulate_walks(spec)
        assert np.array_equal(report.mean_displacement, mean)
        assert np.array_equal(report.msd, msd)

    @pytest.mark.parametrize("walkers", [1, 2, 7, 1001, 4096])
    def test_pm1_steps_and_state_are_those_of_integers(self, walkers):
        # draws of k rows, checked against the Python-int bits of their words, alternate with
        # rng.integers on one generator: a 32-bit half that integers leaves over waits in the
        # state for the next integers call, and raw words do not touch it
        spec = br.WalkSpec(n_steps=1, n_walkers=walkers, rng_seed=0)
        ref, rng = np.random.default_rng(8), np.random.default_rng(8)
        for i, k in enumerate([1, 1, 3, 3, 2, 5]):
            if i % 2:
                expected = np.reshape(pm1_bits(ref, k * walkers), (k, walkers))
                steps = br._draw_steps(spec, rng, k)
                assert steps.dtype == np.int32 and steps.shape == (k, walkers)
            else:
                expected = ref.integers(0, 2, size=k * walkers).reshape(k, walkers)
                steps = rng.integers(0, 2, size=k * walkers).reshape(k, walkers)
            assert np.array_equal(steps, expected)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_pm1_steps_are_fair_overall_at_each_bit_position_and_at_lag_one(self):
        # 2**22 steps from 2**16 whole words: each +1 fraction has standard error 1 / (2 sqrt n)
        spec = br.WalkSpec(n_steps=1, n_walkers=4096, rng_seed=2024)
        steps = br._draw_steps(spec, np.random.default_rng(2024), 1024).ravel()
        assert steps.size == 2**22

        def within_4sigma(fraction, n):
            return np.all(np.abs(fraction - 0.5) <= 4.0 * 0.5 / math.sqrt(n))

        assert within_4sigma(steps.mean(), steps.size)
        assert within_4sigma(steps.reshape(-1, 64).mean(axis=0), steps.size // 64)
        assert within_4sigma(np.mean(steps[1:] == steps[:-1]), steps.size - 1)

    @pytest.mark.parametrize("steps, walkers", [(67, 1001), (4, 65535), (3, 1)])
    def test_pm1_walk_leaves_the_state_of_integers(self, steps, walkers, monkeypatch):
        draw, used = br._draw_steps, []

        def recording(spec, rng, k):
            used.append(rng)
            return draw(spec, rng, k)

        monkeypatch.setattr(br, "_draw_steps", recording)
        for _ in br._walk(br.WalkSpec(steps, walkers, 5)):
            pass
        ref, k = np.random.default_rng(5), math.ceil(br.BLOCK_DRAWS / walkers)
        for t0 in range(0, steps, k):  # each block reads ceil(k W / 64) words of its own
            ref.bit_generator.random_raw(-(-min(k, steps - t0) * walkers // 64))
        assert len(used) == math.ceil(steps / math.ceil(br.BLOCK_DRAWS / walkers))
        assert used[-1].bit_generator.state == ref.bit_generator.state

    def test_pm1_positions_are_int64(self):
        # blocks hold the counts B of +1 steps; x = 2 B - t in int64 is the float walk
        spec = br.WalkSpec(70, 1001, 3)
        ref = reference_walk(spec)
        for t0, block in br._walk(spec):
            for t, counts in enumerate(block, t0 + 1):
                x = 2 * counts.astype(np.int64) - t
                assert np.array_equal(x % 2, np.full(1001, t % 2))
                assert np.array_equal(x, next(ref))
        assert t == 70

    def test_histogram_at_a_step_inside_a_block(self, monkeypatch):
        # blocks of 11 steps at 100000 walkers: step 40 is the 7th row of the 4th block; the +-1
        # histogram always reads the counted walk, as it takes at least BLOCK_DRAWS walkers
        monkeypatch.setattr(br, "BLOCK_DRAWS", 2**20)
        spec = br.WalkSpec(60, 100_000, 21, step_law=br.STEP_GAUSSIAN, sigma_step=0.8)
        x = next(islice(reference_walk(spec), 39, None))
        report = br.histogram_vs_gaussian(spec, 40)
        observed, _ = np.histogram(x, bins=report.bin_edges)
        assert np.array_equal(report.observed, observed)

    @pytest.mark.parametrize("law", [br.STEP_PLUS_MINUS_ONE, br.STEP_GAUSSIAN])
    def test_histogram_counts_the_reference_walk_at_step_t(self, law):
        spec = br.WalkSpec(60, 100_000, 21, step_law=law, sigma_step=0.8)
        x = next(islice(reference_walk(spec), 39, None))
        report = br.histogram_vs_gaussian(spec, 40)
        observed, _ = np.histogram(x, bins=report.bin_edges)
        assert np.array_equal(report.observed, observed)


class TestCountedWalk:
    """From 2**16 +-1 walkers up the walk runs as counts of walkers per site."""

    @pytest.mark.parametrize("steps, walkers", [(4, 65537), (200, 65536)])
    def test_one_draw_a_step_leaves_the_state_of_the_reference(self, steps, walkers, monkeypatch):
        draw, used = br._draw_steps, []

        def recording(spec, rng, k):
            used.append(rng)
            return draw(spec, rng, k)

        monkeypatch.setattr(br, "_draw_steps", recording)
        spec = br.WalkSpec(steps, walkers, 5)
        br.simulate_walks(spec)
        ref = np.random.default_rng(5)
        for _ in reference_counts(spec, ref):
            pass
        assert len(used) == steps
        assert used[-1].bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("steps, walkers", [(300, 65536), (60, 10**7)])
    def test_each_step_holds_the_reference_counts_in_a_tight_window(self, steps, walkers):
        # each step yields the lowest occupied value lo of B and the walkers at each value from it
        # to the highest occupied: those of reference_counts, all W of them, at b <= t
        spec = br.WalkSpec(steps, walkers, 3)
        ref = reference_counts(spec)
        for t, (lo, weights) in enumerate(br._counted(spec), 1):
            assert weights.dtype == np.int64 and weights.sum() == walkers
            assert weights[0] > 0 and weights[-1] > 0 and 0 <= lo and lo + len(weights) <= t + 1
            occupied = {lo + b: n for b, n in enumerate(weights.tolist()) if n}
            assert occupied == next(ref)
        assert t == steps

    def test_final_positions_follow_the_binomial_law(self):
        # 6 steps of 2**16 walkers over 8 seeds: the number of +1 steps is Binomial(6, 1/2)
        observed = np.zeros(7, dtype=np.int64)
        for seed in range(8):
            *_, (lo, weights) = br._counted(br.WalkSpec(6, 2**16, seed))
            observed[lo : lo + len(weights)] += weights
        expected = 8 * 2**16 * np.array([math.comb(6, b) for b in range(7)]) / 64
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 <= 22.458  # the 0.999 quantile of chi-squared with 6 degrees of freedom


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
