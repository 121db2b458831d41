"""Golden-rule rates and seeded exponential decay sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from demonlab import fgr
from demonlab.errors import InvalidInputError
from demonlab.reporting import write_csv
from demonlab.units import UnitSystem


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestGoldenRuleRate:
    def test_zero_coupling(self):
        ch = fgr.DecayChannel(matrix_element_sq=0.0, density_of_states=5.0)
        assert fgr.golden_rule_rate(ch) == 0.0

    def test_unit_inputs_at_hbar_one(self):
        units = UnitSystem(h=2.0 * math.pi)  # hbar = 1
        ch = fgr.DecayChannel(matrix_element_sq=1.0, density_of_states=1.0)
        assert fgr.golden_rule_rate(ch, units) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_linearity_in_coupling(self):
        ch1 = fgr.DecayChannel(2.0, 3.0)
        ch2 = fgr.DecayChannel(4.0, 3.0)
        assert fgr.golden_rule_rate(ch2) == pytest.approx(
            2.0 * fgr.golden_rule_rate(ch1), rel=1e-15
        )

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, rho, a, b = rng.uniform(0.1, 5.0, size=4)
            base = fgr.golden_rule_rate(fgr.DecayChannel(m, rho))
            scaled = fgr.golden_rule_rate(fgr.DecayChannel(a * m, b * rho))
            assert scaled == pytest.approx(a * b * base, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            fgr.DecayChannel(-1.0, 1.0)
        with pytest.raises(InvalidInputError):
            fgr.DecayChannel(1.0, -1.0)


class TestLifetime:
    def test_unit_rate(self):
        assert fgr.lifetime(fgr.ExcitedLevel(1.0)) == 1.0

    def test_reciprocal(self):
        assert fgr.lifetime(fgr.ExcitedLevel(2.5)) == pytest.approx(0.4, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            tau = 10.0 ** rng.uniform(-6, 6)
            level = fgr.ExcitedLevel(1.0 / tau)
            assert fgr.lifetime(level) == pytest.approx(tau, rel=1e-12)

    def test_width_consistency_enforced(self):
        # the width is derived from gamma, so no inconsistent one can be given
        for units in (UnitSystem(), UnitSystem(h=2.0 * math.pi), UnitSystem.si()):
            assert fgr.ExcitedLevel(2.0, units).width == 2.0 * units.hbar
        with pytest.raises(TypeError):
            fgr.ExcitedLevel(gamma=2.0, width=1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(InvalidInputError):
            fgr.ExcitedLevel(0.0)
        with pytest.raises(InvalidInputError):
            fgr.ExcitedLevel(-1.0)


class TestSimulateDecay:
    def test_survival_at_zero_is_exactly_one(self):
        sample = fgr.simulate_decay(1.0, 1000, rng_seed=2)
        assert sample.survival(0.0) == 1.0

    def test_survival_matches_exponential_at_1e6(self):
        sample = fgr.simulate_decay(1.0, 1_000_000, rng_seed=3)
        analytic = math.exp(-1.0)
        tol = binomial_3sigma(analytic, sample.n_samples)
        assert tol == pytest.approx(0.00145, abs=2e-5)
        assert abs(sample.survival(1.0) - analytic) <= tol

    def test_half_life(self):
        sample = fgr.simulate_decay(1.0, 1_000_000, rng_seed=4)
        tol = binomial_3sigma(0.5, sample.n_samples)
        assert abs(sample.survival(math.log(2.0)) - 0.5) <= tol

    def test_mean_waiting_time(self):
        for gamma, seed in ((1.0, 5), (4.0, 6)):
            sample = fgr.simulate_decay(gamma, 200_000, rng_seed=seed)
            se = 1.0 / (gamma * math.sqrt(sample.n_samples))
            assert abs(sample.mean_waiting_time() - 1.0 / gamma) <= 3.0 * se

    def test_same_seed_bit_identical(self):
        a = fgr.simulate_decay(2.0, 10_000, rng_seed=7)
        b = fgr.simulate_decay(2.0, 10_000, rng_seed=7)
        assert np.array_equal(a.waiting_times, b.waiting_times)
        ts = np.linspace(0.0, 3.0, 20)
        assert np.array_equal(a.curve(ts)[1], b.curve(ts)[1])

    def test_different_seed_differs(self):
        a = fgr.simulate_decay(2.0, 10_000, rng_seed=7)
        b = fgr.simulate_decay(2.0, 10_000, rng_seed=8)
        assert not np.array_equal(a.waiting_times, b.waiting_times)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            fgr.simulate_decay(0.0, 100, rng_seed=0)
        with pytest.raises(InvalidInputError):
            fgr.simulate_decay(1.0, 0, rng_seed=0)
        sample = fgr.simulate_decay(1.0, 100, rng_seed=0)
        with pytest.raises(InvalidInputError):
            sample.survival(-1.0)
        with pytest.raises(InvalidInputError):
            sample.curve([0.0, -1.0])

    @pytest.mark.parametrize("gamma", [1.0, 1.3, 1e-300, 3e300])
    def test_times_are_minus_log1p_of_minus_u_over_gamma_bit_for_bit(self, gamma):
        u = np.random.default_rng(11).random(10_000)
        expected = np.sort(-np.log1p(-u) / gamma)
        got = fgr.simulate_decay(gamma, 10_000, rng_seed=11).waiting_times
        assert got.tobytes() == expected.tobytes()

    def test_draws_its_times_in_place(self):
        # 10**6 float64 times are 7.63 MiB; a second array of them would double the peak
        tracemalloc.start()
        try:
            fgr.simulate_decay(1.0, 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 8.0

    def test_gamma_whose_waiting_times_overflow_rejected(self):
        # 37 n / gamma bounds the sum of n waiting times: 2e-302 at n = 1e5
        for gamma in (1e-320, 1e-302):
            with pytest.raises(InvalidInputError, match="gamma too small"):
                fgr.simulate_decay(gamma, 100_000, rng_seed=0)
        sample = fgr.simulate_decay(1e-300, 100_000, rng_seed=0)
        assert np.isfinite(sample.mean_waiting_time()) and sample.waiting_times[-1] < 37e300
        assert all(np.isfinite(row).all() for row in sample.to_rows())

    def test_curve_equals_pointwise_survival(self):
        sample = fgr.simulate_decay(1.3, 50_000, rng_seed=10)
        ts = np.concatenate([np.linspace(0.0, 6.0, 501), sample.waiting_times[:5], [1e9]])
        _, emp, _ = sample.curve(ts)
        assert np.array_equal(emp, np.array([sample.survival(t) for t in ts]))

    def test_csv_emission(self, tmp_path):
        sample = fgr.simulate_decay(1.0, 1000, rng_seed=9)
        path = tmp_path / "survival.csv"
        write_csv(path, sample.CSV_HEADER, sample.to_rows())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,empirical_survival,analytic_survival"
        assert len(lines) == 52
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0 and float(first[2]) == 1.0

    def test_default_rows_span_five_lifetimes(self):
        sample = fgr.simulate_decay(2.0, 1000, rng_seed=9)
        rows = sample.to_rows()
        assert len(rows) == 51 and len(rows[0]) == len(sample.CSV_HEADER)
        assert rows[0][0] == 0.0 and rows[-1][0] == 2.5


class TestVerdicts:
    def test_correct_sample_passes(self):
        sample = fgr.simulate_decay(1.5, 100_000, rng_seed=3)
        verdicts = {name: c.passed for name, c in sample.verdicts().items()}
        assert verdicts == {"survival_within_3sigma": True, "mean_within_3sigma": True}
        assert list(sample.survival_checks) == pytest.approx(
            [math.log(2.0) / 1.5, 1.0 / 1.5, 2.0 / 1.5]
        )

    def test_wrong_rate_is_flagged(self):
        # waiting times drawn at gamma = 1.05, checked against gamma = 1
        drawn = fgr.simulate_decay(1.05, 100_000, rng_seed=3)
        sample = fgr.DecaySample(1.0, 3, drawn.waiting_times)
        assert {name: c.passed for name, c in sample.verdicts().items()} == {
            "survival_within_3sigma": False, "mean_within_3sigma": False
        }

