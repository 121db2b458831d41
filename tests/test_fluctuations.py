"""Volume fluctuations of independent components and Brillouin's balance."""

import math
import re

import numpy as np
import pytest

from demonlab import fluctuations as fl
from demonlab.errors import InvalidInputError
from demonlab.units import UnitSystem


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestGasEntropyChange:
    def test_log_of_inverse_e(self):
        spec = fl.FluctuationSpec(2, 1.0 / math.e)
        assert fl.gas_entropy_change(spec) == pytest.approx(-2.0, rel=1e-12)

    def test_no_change_at_equal_volumes(self):
        spec = fl.FluctuationSpec(5, 1.0)
        assert fl.gas_entropy_change(spec) == 0.0

    def test_half_volume_ten_components(self):
        spec = fl.FluctuationSpec(10, 0.5)
        assert fl.gas_entropy_change(spec) == pytest.approx(
            -6.931471805599453, abs=1e-12
        )

    def test_k_scaling(self):
        spec = fl.FluctuationSpec(10, 0.5)
        assert fl.gas_entropy_change(spec, UnitSystem(k=2.0)) == pytest.approx(
            -2.0 * 10.0 * math.log(2.0), rel=1e-14
        )

    def test_expansion_refused(self):
        for make in (
            lambda: fl.FluctuationSpec(3, 2.0),
            lambda: fl.FluctuationSpec(3, 1.0 + 2**-52),
            lambda: fl.FluctuationSpec.from_radiation(3.0, 1.0, 2.0),
        ):
            with pytest.raises(InvalidInputError, match="V > V0"):
                make()

    @pytest.mark.parametrize(
        "make_spec, inputs",
        [
            (lambda: fl.FluctuationSpec(1e308, 1e-300), "1e+308"),
            (lambda: fl.FluctuationSpec.from_radiation(1e307, 1.0, 1e-300), "1e+307"),
        ],
        ids=["gas", "radiation"],
    )
    def test_overflowing_change_names_the_inputs(self, make_spec, inputs):
        # each factor is finite, k N ln(V/V0) is not
        with pytest.raises(InvalidInputError, match=re.escape(f"N={inputs}, V/V0=1e-300")):
            fl.gas_entropy_change(make_spec())


class TestRadiationEntropyChange:
    def test_reduces_to_gas_formula(self):
        units = UnitSystem()
        nu = 2.0
        energy = 2.0 * units.h * nu
        spec = fl.FluctuationSpec.from_radiation(energy, nu, 1.0 / math.e, units)
        value = fl.gas_entropy_change(spec, units)
        assert value == pytest.approx(-2.0, rel=1e-12)

    def test_five_quanta_half_volume(self):
        units = UnitSystem()
        spec = fl.FluctuationSpec.from_radiation(5.0 * units.h * 1.0, 1.0, 0.5, units)
        value = fl.gas_entropy_change(spec, units)
        assert value == pytest.approx(-3.4657359027997265, abs=1e-12)

    def test_from_radiation_spec_agrees(self):
        units = UnitSystem(h=2.0)
        spec = fl.FluctuationSpec.from_radiation(12.0, 1.5, 0.5, units)
        assert spec.n_components == pytest.approx(4.0, rel=1e-14)
        direct = fl.gas_entropy_change(fl.FluctuationSpec(4.0, 0.5), units)
        assert fl.gas_entropy_change(spec, units) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((1.0, 1e-300, 0.5, UnitSystem(h=1e-30)), "h * frequency"),  # underflows to 0
            ((1e300, 1e-300, 0.5), "N = energy / (h * frequency)"),  # overflows to inf
            ((1.0, 1.0, 0.0), "volume_ratio"),
            ((1.0, 1.0, math.inf), "volume_ratio"),
        ],
        ids=["h-nu-underflow", "n-overflow", "zero-volume", "infinite-volume"],
    )
    def test_out_of_range_inputs_name_the_quantity(self, args, name):
        with pytest.raises(InvalidInputError, match=re.escape(name)):
            fl.FluctuationSpec.from_radiation(*args)


class TestFluctuationProbability:
    def test_three_components_half_volume(self):
        assert fl.fluctuation_probability(fl.FluctuationSpec(3, 0.5)) == 0.125

    def test_certain_event(self):
        assert fl.fluctuation_probability(fl.FluctuationSpec(4, 1.0)) == 1.0

    def test_entropy_probability_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            spec = fl.FluctuationSpec(
                float(rng.uniform(1.0, 30.0)), float(rng.uniform(0.05, 1.0))
            )
            w = fl.fluctuation_probability(spec)
            ds = fl.gas_entropy_change(spec)
            assert abs(math.exp(ds) - w) <= 1e-12

    def test_monotone_decreasing_in_n(self):
        probs = [
            fl.fluctuation_probability(fl.FluctuationSpec(n, 0.7)) for n in range(1, 12)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_in_unit_interval(self):
        assert 0.0 < fl.fluctuation_probability(fl.FluctuationSpec(20, 0.3)) <= 1.0


class TestMonteCarloFluctuation:
    def test_three_points_half_volume(self):
        spec = fl.FluctuationSpec(3, 0.5)
        emp = fl.monte_carlo_fluctuation(spec, 1_000_000, rng_seed=1)
        tol = binomial_3sigma(0.125, 1_000_000)
        assert tol == pytest.approx(0.000992, abs=1e-5)
        assert abs(emp - 0.125) <= tol

    def test_single_point(self):
        spec = fl.FluctuationSpec(1, 0.3)
        emp = fl.monte_carlo_fluctuation(spec, 200_000, rng_seed=2)
        assert abs(emp - 0.3) <= binomial_3sigma(0.3, 200_000)

    def test_equal_volumes_always_inside(self):
        spec = fl.FluctuationSpec(2, 1.0)
        assert fl.monte_carlo_fluctuation(spec, 10_000, rng_seed=3) == 1.0

    def test_independence_factorization(self):
        # empirical P(all N inside) tracks empirical P(one inside)^N
        single = fl.monte_carlo_fluctuation(
            fl.FluctuationSpec(1, 0.6), 400_000, rng_seed=4
        )
        for n, seed in ((2, 5), (5, 6)):
            joint = fl.monte_carlo_fluctuation(
                fl.FluctuationSpec(n, 0.6), 400_000, rng_seed=seed
            )
            expected = 0.6**n
            # compound the one-point 3-sigma error n times plus the joint noise
            tol = n * expected * abs(single - 0.6) / 0.6 + binomial_3sigma(
                expected, 400_000
            ) + n * expected * binomial_3sigma(0.6, 400_000) / 0.6
            assert abs(joint - single**n) <= tol

    def test_limits_enforced(self):
        with pytest.raises(InvalidInputError):
            fl.monte_carlo_fluctuation(fl.FluctuationSpec(21, 0.5), 100_000, 0)
        with pytest.raises(InvalidInputError):
            fl.monte_carlo_fluctuation(fl.FluctuationSpec(3, 0.5), 9_999, 0)

    def test_determinism(self):
        spec = fl.FluctuationSpec(4, 0.4)
        a = fl.monte_carlo_fluctuation(spec, 50_000, rng_seed=7)
        b = fl.monte_carlo_fluctuation(spec, 50_000, rng_seed=7)
        assert a == b


class TestBrillouinBalance:
    def test_worked_example(self):
        # h nu1 = 10 kT and p/P0 = 1e-6 at k = 1
        spec = fl.BrillouinSpec(b=10.0, info_fraction=1e-6)
        balance = fl.brillouin_balance(spec)
        assert balance["dS_demon"] == pytest.approx(10.0, rel=1e-14)
        assert balance["dS_gas_approx"] == pytest.approx(-1e-6, rel=1e-12)
        assert balance["dS_gas_exact"] == pytest.approx(-1e-6, rel=1e-3)
        assert balance["net"] == pytest.approx(10.0, abs=1e-5)

    def test_no_information_case(self):
        spec = fl.BrillouinSpec(b=3.0, info_fraction=0.0)
        balance = fl.brillouin_balance(spec)
        assert balance["dS_gas_exact"] == 0.0
        assert balance["net"] == balance["dS_demon"]

    def test_taylor_remainder_bound(self):
        for frac in (1e-3, 1e-4, 1e-6):
            spec = fl.BrillouinSpec(1.0, frac)
            balance = fl.brillouin_balance(spec)
            rel_err = abs(
                balance["dS_gas_exact"] - balance["dS_gas_approx"]
            ) / abs(balance["dS_gas_approx"])
            assert rel_err <= frac

    def test_net_positive_sweep(self):
        for b in np.geomspace(1.0, 1e3, 16):
            for frac in (0.0, 1e-6, 1e-4, 1e-3):
                spec = fl.BrillouinSpec(b=b, info_fraction=frac)
                balance = fl.brillouin_balance(spec)
                assert balance["net"] > 0.0
                assert balance["net_approx"] > 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            fl.BrillouinSpec(1.0, 1.0)  # p == P0
        with pytest.raises(InvalidInputError):
            fl.BrillouinSpec(-1.0, 0.0)


class TestFluctuationReport:
    def test_identity_only_without_trials(self):
        spec = fl.FluctuationSpec(n_components=3.0, volume_ratio=0.5)
        derived, verdicts = fl.fluctuation_report(spec, 0, rng_seed=0)
        assert derived["probability"] == 0.125
        assert derived["dS"] == pytest.approx(-3.0 * math.log(2.0), rel=1e-15)
        assert verdicts == {"identity_ok": True}

    def test_negative_trials_refused(self):
        spec = fl.FluctuationSpec(n_components=3.0, volume_ratio=0.5)
        message = r"^n_trials must be in \[10000, 10000000\], got -5$"
        with pytest.raises(InvalidInputError, match=message):
            fl.fluctuation_report(spec, -5, rng_seed=0)

    def test_monte_carlo_and_brillouin_checks(self):
        spec = fl.FluctuationSpec(n_components=3.0, volume_ratio=0.5)
        bspec = fl.BrillouinSpec(b=10.0, info_fraction=1e-6)
        derived, verdicts = fl.fluctuation_report(spec, 20_000, 5, bspec)
        assert derived["mc_tol_3sigma"] == pytest.approx(3.0 * math.sqrt(0.125 * 0.875 / 20_000))
        assert derived["brillouin"] == fl.brillouin_balance(bspec)
        assert verdicts == {
            "identity_ok": True, "mc_within_3sigma": True, "brillouin_net_positive": True
        }
        assert all(type(v) is bool for v in verdicts.values())

