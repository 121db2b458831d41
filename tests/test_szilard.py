"""One-molecule engine: insertion cost, extracted work, ledger balance."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from wavefns import is_minimum_uncertainty, uncertainty_product

from demonlab import szilard
from demonlab.errors import InvalidInputError, InvalidStateError
from demonlab.reporting import write_csv
from demonlab.units import UnitSystem

LN2 = math.log(2.0)


def make_box(length=1.0, temperature=1.0, mass=1.0):
    return szilard.EngineBox(length_L=length, temperature_T=temperature, mass_m=mass)


class TestInitialState:
    def test_box_scale_convention_unit_box(self):
        state = szilard.initial_state(make_box())
        assert state.state.sigma_x**2 == pytest.approx(1.0, abs=0)
        assert state.state.sigma_p**2 == pytest.approx(0.25, abs=0)
        assert state.side == szilard.SIDE_WHOLE

    def test_length_scaling(self):
        base = szilard.initial_state(make_box(length=1.0))
        doubled = szilard.initial_state(make_box(length=2.0))
        assert doubled.state.sigma_x**2 == pytest.approx(4.0 * base.state.sigma_x**2)
        assert doubled.state.sigma_p**2 == pytest.approx(base.state.sigma_p**2 / 4.0)

    def test_uncertainty_product_by_convention(self):
        units = UnitSystem(h=3.7)
        for length in (0.2, 1.0, 8.0):
            box_scale = szilard.initial_state(make_box(length=length), units)
            assert uncertainty_product(box_scale.state) == pytest.approx(
                units.h / 2.0, rel=1e-14
            )
            exact = szilard.initial_state(
                make_box(length=length), units, szilard.CONVENTION_EXACT
            )
            assert uncertainty_product(exact.state) == pytest.approx(
                units.hbar / 2.0, rel=1e-14
            )
            assert is_minimum_uncertainty(exact.state, units, rtol=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(InvalidInputError):
            szilard.initial_state(make_box(), convention="folk")

    def test_invalid_box(self):
        with pytest.raises(InvalidInputError):
            make_box(length=0.0)
        with pytest.raises(InvalidInputError):
            make_box(temperature=-5.0)


class TestInsertPartition:
    def test_entropy_cost_is_k_ln2(self):
        state = szilard.initial_state(make_box())
        _, delta_s = szilard.insert_partition(state, rng_seed=0)
        assert delta_s == pytest.approx(LN2, abs=1e-15)

    def test_cost_parameter_free(self):
        for length in (0.1, 1.0, 10.0):
            for temperature in (1.0, 300.0):
                for convention in szilard.CONVENTIONS:
                    for units in (UnitSystem(), UnitSystem.si()):
                        state = szilard.initial_state(
                            make_box(length, temperature), units, convention
                        )
                        _, ds = szilard.insert_partition(state, 1, units)
                        assert abs(ds - units.k * LN2) <= 1e-12 * units.k

    @pytest.mark.parametrize("length", [1e-300, 1e300, 8e307])
    def test_cost_at_extreme_lengths(self, length):
        # sigma_p^2 leaves float64 range here; the spread ratio is still exactly 2
        for convention in szilard.CONVENTIONS:
            state = szilard.initial_state(make_box(length), convention=convention)
            _, ds = szilard.insert_partition(state, 0)
            assert ds == LN2

    @pytest.mark.parametrize("length", [1e-320, 5e-309, 1e308])
    def test_sigma_p_out_of_range_names_length(self, length):
        with pytest.raises(InvalidInputError, match="length_L"):
            szilard.initial_state(make_box(length))

    def test_side_independence(self):
        state = szilard.initial_state(make_box())
        # hunt seeds landing on each side; the cost must be bit-identical
        results = {}
        for seed in range(20):
            new_state, ds = szilard.insert_partition(state, seed)
            results.setdefault(new_state.side, ds)
        assert set(results) == {szilard.SIDE_LEFT, szilard.SIDE_RIGHT}
        left, right = results[szilard.SIDE_LEFT], results[szilard.SIDE_RIGHT]
        assert left == right

    def test_variance_halving(self):
        state = szilard.initial_state(make_box(length=3.0))
        new_state, _ = szilard.insert_partition(state, 2)
        assert new_state.state.sigma_x == pytest.approx(1.5, abs=0)
        assert new_state.state.sigma_p == pytest.approx(2.0 * state.state.sigma_p, abs=0)

    def test_double_insert_rejected(self):
        state = szilard.initial_state(make_box())
        inserted, _ = szilard.insert_partition(state, 3)
        with pytest.raises(InvalidStateError):
            szilard.insert_partition(inserted, 4)

    def test_cost_compensates_volume_halving(self):
        # the naive halved-volume entropy drop k ln(1/2) is exactly cancelled
        units = UnitSystem(k=1.4)
        state = szilard.initial_state(make_box(), units)
        _, ds = szilard.insert_partition(state, 0, units)
        naive_drop = units.k * math.log(0.5)
        assert ds + naive_drop == pytest.approx(0.0, abs=1e-15)

    def test_cost_matches_gaussian_information_difference(self):
        from demonlab.qiur import gaussian_information

        state = szilard.initial_state(make_box(length=0.7))
        new_state, ds = szilard.insert_partition(state, 5)
        via_information = gaussian_information(new_state.state.sigma_p) - (
            gaussian_information(state.state.sigma_p)
        )
        assert ds == pytest.approx(via_information, abs=1e-12)


class TestExtractWork:
    def test_work_and_bath_entropy(self):
        state, _ = szilard.insert_partition(szilard.initial_state(make_box()), 6)
        work, ds_bath, reset = szilard.extract_work(state, make_box())
        assert work == pytest.approx(LN2, abs=1e-15)
        assert ds_bath == pytest.approx(-LN2, abs=1e-15)
        assert reset.side == szilard.SIDE_WHOLE

    def test_work_matches_quadrature_oracle(self):
        # independent oracle: integral of kT/V from L/2 to L
        for length, temperature in ((1.0, 1.0), (4.0, 2.5)):
            box = make_box(length, temperature)
            state, _ = szilard.insert_partition(szilard.initial_state(box), 7)
            work, _, _ = szilard.extract_work(state, box)
            oracle, err = quad(lambda v: temperature / v, length / 2.0, length)
            assert err < 1e-10
            assert work == pytest.approx(oracle, rel=1e-10)

    def test_temperature_scaling(self):
        hot = make_box(temperature=2.0)
        state, _ = szilard.insert_partition(szilard.initial_state(hot), 8)
        work_hot, ds_hot, _ = szilard.extract_work(state, hot)
        cold = make_box(temperature=1.0)
        state_c, _ = szilard.insert_partition(szilard.initial_state(cold), 8)
        work_cold, ds_cold, _ = szilard.extract_work(state_c, cold)
        assert work_hot == pytest.approx(2.0 * work_cold, rel=1e-14)
        assert ds_hot == ds_cold

    def test_cycle_closure(self):
        box = make_box(length=2.0)
        initial = szilard.initial_state(box)
        state, _ = szilard.insert_partition(initial, 9)
        _, _, reset = szilard.extract_work(state, box)
        assert reset.state.sigma_x == initial.state.sigma_x
        assert reset.state.sigma_p == initial.state.sigma_p
        assert reset.side == initial.side

    def test_no_partition_rejected(self):
        state = szilard.initial_state(make_box())
        with pytest.raises(InvalidStateError):
            szilard.extract_work(state, make_box())


class TestRunCycle:
    def test_single_cycle_entries(self):
        ledger = szilard.run_cycle(make_box(), 1, rng_seed=10)
        assert [e.label for e in ledger.entries] == ["insertion", "expansion"]
        assert ledger.entries[0].delta_s == pytest.approx(LN2, abs=1e-15)
        assert ledger.entries[1].delta_s == pytest.approx(-LN2, abs=1e-15)
        assert ledger.net_entropy() == 0.0
        assert ledger.net_work() == pytest.approx(LN2, abs=1e-15)

    def test_hundred_cycles_prefix_nonnegative(self):
        ledger = szilard.run_cycle(make_box(), 100, rng_seed=11)
        assert len(ledger.entries) == 200
        assert ledger.prefix_nonnegative(tol=1e-12)
        assert abs(ledger.net_entropy()) <= 1e-12
        cum = ledger.cumulative_entropy()
        # after each completed cycle the universe is exactly back to zero
        assert np.all(cum[1::2] == 0.0)

    def test_seeds_change_sides_not_totals(self):
        a = szilard.run_cycle(make_box(), 50, rng_seed=12)
        b = szilard.run_cycle(make_box(), 50, rng_seed=13)
        assert a.sides != b.sides
        assert a.net_entropy() == b.net_entropy()
        assert a.net_work() == b.net_work()
        assert [e.delta_s for e in a.entries] == [e.delta_s for e in b.entries]

    def test_same_seed_reproducible(self):
        a = szilard.run_cycle(make_box(), 20, rng_seed=14)
        b = szilard.run_cycle(make_box(), 20, rng_seed=14)
        assert a.sides == b.sides

    def test_invalid_cycle_count(self):
        with pytest.raises(InvalidInputError):
            szilard.run_cycle(make_box(), 0, rng_seed=0)

    def test_work_bounded_by_kT_ln2_per_cycle(self):
        units = UnitSystem(k=2.0)
        box = make_box(temperature=3.0)
        ledger = szilard.run_cycle(box, 10, rng_seed=15, units=units)
        per_cycle = ledger.net_work() / 10
        assert per_cycle <= units.k * 3.0 * LN2 * (1 + 1e-14)
        assert per_cycle == pytest.approx(units.k * 3.0 * LN2, rel=1e-14)


class TestLedgerEmission:
    def test_csv_columns(self, tmp_path):
        ledger = szilard.run_cycle(make_box(), 2, rng_seed=16)
        path = tmp_path / "ledger.csv"
        write_csv(path, ledger.CSV_HEADER, ledger.to_rows())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cycle,step_label,dS,dW,cum_dS"
        assert len(lines) == 5
        last = lines[-1].split(",")
        assert float(last[-1]) == 0.0

    def test_verdicts(self):
        ledger = szilard.run_cycle(make_box(), 2, rng_seed=17)
        assert ledger.verdicts() == {"prefix_nonnegative": True, "net_entropy_zero": True}
        assert ledger.net_entropy() == 0.0
        assert len(ledger.to_rows()) == 4

    def test_verdicts_flag_an_unbalanced_ledger(self):
        ledger = szilard.run_cycle(make_box(), 1, rng_seed=17)
        ledger.append(2, "insertion", 2e-12, 0.0)
        assert ledger.verdicts() == {"prefix_nonnegative": True, "net_entropy_zero": False}
        ledger.append(2, "expansion", -4e-12, 0.0)
        assert ledger.verdicts() == {"prefix_nonnegative": False, "net_entropy_zero": False}
