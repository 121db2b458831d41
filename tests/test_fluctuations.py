"""Volume fluctuations of independent components and Brillouin's balance."""

import math
import re
import sys
import threading

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

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_counts_the_rows_whose_largest_draw_is_inside(self, n):
        # three pieces of one stream, each counted by its row maxima
        trials, ratio = 2 * 200_000 + 1001, 0.5 ** (1 / n)
        rng, hits = np.random.default_rng(9), 0
        for chunk in (200_000, 200_000, 1001):
            hits += int(np.count_nonzero(rng.random((chunk, n)).max(axis=1) < ratio))
        spec = fl.FluctuationSpec(n, ratio)
        assert fl.monte_carlo_fluctuation(spec, trials, rng_seed=9) == hits / trials

    def test_determinism(self):
        spec = fl.FluctuationSpec(4, 0.4)
        a = fl.monte_carlo_fluctuation(spec, 50_000, rng_seed=7)
        b = fl.monte_carlo_fluctuation(spec, 50_000, rng_seed=7)
        assert a == b


class TestTwoHalves:
    """The trials are counted in two halves, the second from the stream advanced past the first."""

    @pytest.mark.parametrize(
        "seed, skipped, m", [(0, 0, 5), (1, 1, 7), (2, 5003 * 3, 64), (9, 2**16 + 1, 3)]
    )
    def test_advance_skips_exactly_one_output_per_double(self, seed, skipped, m):
        jumped = np.random.Generator(np.random.PCG64(seed).advance(skipped)).random(m)
        assert np.array_equal(jumped, np.random.default_rng(seed).random(skipped + m)[skipped:])

    @pytest.mark.parametrize("trials", [10**4 + 1, 2 * 2**16 + 7])
    @pytest.mark.parametrize("n", [1, 3, 20])
    @pytest.mark.parametrize("ratio", ["one", "least", "half-chance"])
    def test_the_count_is_the_one_stream_count(self, trials, n, ratio):
        r = {"one": 1.0, "least": 2.0**-1074, "half-chance": 0.5 ** (1 / n)}[ratio]
        hits = (np.random.default_rng(11).random((trials, n)) < r).all(axis=1).sum()
        emp = fl.monte_carlo_fluctuation(fl.FluctuationSpec(n, r), trials, rng_seed=11)
        assert emp == hits / trials

    def test_concurrent_calls_each_count_their_own_stream(self):
        # four callers and their four second halves on two CPUs, switching as often as can be
        spec, trials, results = fl.FluctuationSpec(3, 0.5), 100_001, {}
        expected = {
            seed: (np.random.default_rng(seed).random((trials, 3)) < 0.5).all(axis=1).sum() / trials
            for seed in range(4)
        }

        def call(seed):
            results[seed] = fl.monte_carlo_fluctuation(spec, trials, rng_seed=seed)

        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == expected

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        fl.monte_carlo_fluctuation(fl.FluctuationSpec(3, 0.5), 100_001, rng_seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("source", ["Generator", "default_rng"], ids=["second", "calling"])
    def test_a_failure_in_either_half_reaches_the_caller_as_itself(self, source, monkeypatch):
        planted = RuntimeError("planted")

        class Failing:
            def __init__(self, *_args):
                pass

            def random(self, out):
                raise planted

        monkeypatch.setattr(np.random, source, Failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            fl.monte_carlo_fluctuation(fl.FluctuationSpec(3, 0.5), 100_000, rng_seed=1)
        assert caught.value is planted
        assert threading.active_count() == before


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
        for f in (1.0, -0.5, math.nan):  # 1.0 is p == P0
            with pytest.raises(InvalidInputError, match=rf"^info_fraction must .* got {f}$"):
                fl.BrillouinSpec(1.0, f)
        with pytest.raises(InvalidInputError):
            fl.BrillouinSpec(-1.0, 0.0)

    def test_overflowing_gas_change_names_f_and_the_units(self):
        # k ln(1 - f) is about -36.7 k at the largest f below 1
        spec = fl.BrillouinSpec(1.0, 0.9999999999999999)
        assert math.isfinite(fl.brillouin_balance(spec, UnitSystem(k=1e306))["dS_gas_exact"])
        message = r"^-k ln\(1 - f\) of f=0.9999999999999999, UnitSystem\(k=1e\+307, h=1.0\)"
        with pytest.raises(InvalidInputError, match=message):
            fl.brillouin_balance(spec, UnitSystem(k=1e307))


class TestFluctuationReport:
    def test_identity_only_without_trials(self):
        spec = fl.FluctuationSpec(n_components=3.0, volume_ratio=0.5)
        derived, verdicts = fl.fluctuation_report(spec, 0, rng_seed=0)
        assert derived["probability"] == 0.125
        assert derived["dS"] == pytest.approx(-3.0 * math.log(2.0), rel=1e-15)
        assert {name: c.passed for name, c in verdicts.items()} == {"identity_ok": True}

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
        assert {name: c.passed for name, c in verdicts.items()} == {
            "identity_ok": True, "mc_within_3sigma": True, "brillouin_net_positive": True
        }
        assert all(type(c.passed) is bool for c in verdicts.values())

