"""Speed-sorting demon: thermal momentum, door bound, probe trade-off, MC."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from wavefns import is_minimum_uncertainty

from demonlab import speed_demon as sd
from demonlab.errors import InvalidInputError
from demonlab.units import SI_UNITS, UnitSystem

# frozen from an independent high-precision evaluation of the formulas
ARGON = sd.GasSpec(temperature_T=300.0, mass_m=6.64e-26)
ARGON_P_RMS = 2.87241334491e-23
ARGON_DOOR = 1.83568952483e-12
ARGON_SIGMA_P_100 = 2.87241334491e-24
ARGON_SIGMA_X_100 = 1.83568952483e-11


class TestRmsMomentum:
    def test_natural_units(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        assert sd.rms_momentum(gas) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_si_argon(self):
        assert sd.rms_momentum(ARGON, SI_UNITS) == pytest.approx(ARGON_P_RMS, rel=1e-2)
        assert sd.rms_momentum(ARGON, SI_UNITS) == pytest.approx(ARGON_P_RMS, rel=1e-9)

    def test_quadrupling_temperature_doubles(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=2.0)
        hot = sd.GasSpec(temperature_T=4.0, mass_m=2.0)
        assert sd.rms_momentum(hot) == pytest.approx(2.0 * sd.rms_momentum(gas), rel=1e-14)


class TestMaxDoorSize:
    def test_unit_spread(self):
        assert sd.max_door_size(1.0) == pytest.approx(0.07957747154594767, abs=1e-15)

    def test_si_argon(self):
        door = sd.max_door_size(sd.rms_momentum(ARGON, SI_UNITS), SI_UNITS)
        assert door == pytest.approx(ARGON_DOOR, rel=1e-2)
        assert door == pytest.approx(ARGON_DOOR, rel=1e-9)

    def test_reciprocal_scaling(self):
        assert sd.max_door_size(2.0) == pytest.approx(sd.max_door_size(1.0) / 2.0, rel=1e-14)

    def test_invalid_spread(self):
        with pytest.raises(InvalidInputError):
            sd.max_door_size(0.0)


class TestPostMeasurementSpreads:
    def test_natural_unit_case(self):
        # m = 1, h = 1, nu = 1/3 gives sigma_p = 1 and sigma_x = 1/(4 pi)
        gas = sd.GasSpec(temperature_T=10.0, mass_m=1.0)
        spreads = sd.post_measurement_spreads(gas, sd.ProbeSpec(nu_low=1.0 / 3.0))
        assert spreads.sigma_p == pytest.approx(1.0, rel=1e-15)
        assert spreads.sigma_x == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    def test_si_argon_ratio_100(self):
        probe = sd.ProbeSpec.from_energy_ratio(ARGON, 100.0, SI_UNITS)
        spreads = sd.post_measurement_spreads(ARGON, probe, SI_UNITS)
        assert spreads.sigma_p == pytest.approx(ARGON_SIGMA_P_100, rel=1e-2)
        assert spreads.sigma_x == pytest.approx(ARGON_SIGMA_X_100, rel=1e-2)
        assert spreads.sigma_p == pytest.approx(ARGON_SIGMA_P_100, rel=1e-9)
        assert spreads.sigma_x == pytest.approx(ARGON_SIGMA_X_100, rel=1e-9)

    def test_minimum_uncertainty_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            units = UnitSystem(k=10.0 ** rng.uniform(-2, 2), h=10.0 ** rng.uniform(-2, 2))
            gas = sd.GasSpec(
                temperature_T=10.0 ** rng.uniform(-2, 3), mass_m=10.0 ** rng.uniform(-3, 3)
            )
            probe = sd.ProbeSpec.from_energy_ratio(gas, rng.uniform(2.0, 1e4), units)
            spreads = sd.post_measurement_spreads(gas, probe, units)
            product = spreads.sigma_x * spreads.sigma_p
            assert product == pytest.approx(units.h / (4.0 * math.pi), rel=1e-12)
            assert is_minimum_uncertainty(spreads, units, rtol=1e-12)

    def test_regime_warning(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        with pytest.warns(UserWarning, match="gentle-probe"):
            sd.post_measurement_spreads(gas, sd.ProbeSpec(nu_low=1.0))

    def test_monotonic_in_probe_frequency(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        gentler = sd.post_measurement_spreads(gas, sd.ProbeSpec(nu_low=1e-4))
        harder = sd.post_measurement_spreads(gas, sd.ProbeSpec(nu_low=1e-2))
        assert gentler.sigma_p < harder.sigma_p
        assert gentler.sigma_x > harder.sigma_x


class TestSortingFeasibility:
    def test_ratio_sqrt_collapse(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        assert sd.sorting_feasibility(gas, probe) == pytest.approx(10.0, abs=1e-12)
        probe4 = sd.ProbeSpec.from_energy_ratio(gas, 10_000.0)
        assert sd.sorting_feasibility(gas, probe4) == pytest.approx(100.0, abs=1e-10)

    def test_boundary_ratio_one_warns(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        with pytest.warns(UserWarning):
            ratio = sd.sorting_feasibility(gas, sd.ProbeSpec.from_energy_ratio(gas, 1.0))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_identity_random_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            units = UnitSystem(k=10.0 ** rng.uniform(-3, 3), h=10.0 ** rng.uniform(-3, 3))
            gas = sd.GasSpec(
                temperature_T=10.0 ** rng.uniform(-3, 3), mass_m=10.0 ** rng.uniform(-3, 3)
            )
            energy_ratio = 10.0 ** rng.uniform(0.1, 6)
            probe = sd.ProbeSpec.from_energy_ratio(gas, energy_ratio, units)
            ratio = sd.sorting_feasibility(gas, probe, units)
            expected = math.sqrt(
                units.k * gas.temperature_T / (units.h * probe.nu_low)
            )
            assert abs(ratio - expected) <= 1e-12 * expected
            assert ratio > 1.0


class TestInformationLedger:
    def test_usable_change_is_zero(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        ledger = sd.information_ledger(gas, probe)
        assert ledger["dS_momentum"] < 0.0
        assert ledger["dI_position"] > 0.0
        assert abs(ledger["sorting_usable_change"]) < 1e-12

    def test_momentum_entropy_drop_value(self):
        # sigma_p shrinks by sqrt(h nu / kT) = 1/10, so dS = -k ln 10
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        ledger = sd.information_ledger(gas, probe)
        assert ledger["dS_momentum"] == pytest.approx(-math.log(10.0), abs=1e-12)


class TestSimulateSorting:
    def test_passage_matches_erf_oracle(self):
        # sigma_x / d = 10: analytic passage erf(1/(20 sqrt 2)) ~ 0.0398776
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        spreads = sd.post_measurement_spreads(gas, probe)
        door = sd.SortingGeometry(spreads.sigma_x / 10.0)
        report = sd.simulate_sorting(gas, probe, door, 1_000_000, rng_seed=2)
        assert report.analytic_passage == pytest.approx(0.039877611676744923, abs=1e-12)
        tol = 3.0 * math.sqrt(report.analytic_passage * (1 - report.analytic_passage) / 1e6)
        assert abs(report.empirical_passage - report.analytic_passage) <= tol

    def test_huge_door_passes_everything(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        spreads = sd.post_measurement_spreads(gas, probe)
        report = sd.simulate_sorting(
            gas, probe, sd.SortingGeometry(1e9 * spreads.sigma_x), 10_000, rng_seed=3
        )
        assert report.empirical_passage == 1.0
        assert report.analytic_passage == pytest.approx(1.0, abs=1e-15)

    def test_localized_molecule_passes(self):
        # a probe so hard the packet is tiny next to the door (regime warning)
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        with pytest.warns(UserWarning):
            report = sd.simulate_sorting(
                gas,
                sd.ProbeSpec(nu_low=1e12),
                sd.SortingGeometry(1.0),
                10_000,
                rng_seed=4,
            )
        assert report.empirical_passage == 1.0
        assert report.analytic_passage == pytest.approx(1.0, abs=1e-15)

    def test_report_fields_and_energy(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        door = sd.SortingGeometry(sd.max_door_size(sd.rms_momentum(gas)))
        report = sd.simulate_sorting(gas, probe, door, 5_000, rng_seed=5)
        assert report.feasibility_ratio == pytest.approx(10.0, abs=1e-12)
        assert report.sorting_infeasible
        assert report.injected_energy == pytest.approx(5_000 * probe.nu_low, rel=1e-14)
        assert abs(report.sorting_usable_change) < 1e-12
        doc = asdict(report)
        assert doc["n_attempts"] == 5_000
        assert doc["sorting_infeasible"] is True
        assert report.verdicts() == {"sorting_infeasible": True, "mc_within_3sigma": True}

    def test_determinism(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        door = sd.SortingGeometry(1.0)
        a = sd.simulate_sorting(gas, probe, door, 10_000, rng_seed=6)
        b = sd.simulate_sorting(gas, probe, door, 10_000, rng_seed=6)
        assert a.empirical_passage == b.empirical_passage

    def test_analytic_passage_within_2ulp_of_scipy_erf(self):
        from scipy.special import erf

        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        door = sd.SortingGeometry(sd.max_door_size(sd.rms_momentum(gas)))
        for ratio in np.geomspace(1.01, 1e6, 200):
            probe = sd.ProbeSpec.from_energy_ratio(gas, ratio)
            report = sd.simulate_sorting(gas, probe, door, 1, rng_seed=0)
            expected = erf(report.door_size / (2.0 * math.sqrt(2.0) * report.sigma_x_post))
            assert abs(report.analytic_passage - expected) <= 2.0 * np.spacing(expected)

    @pytest.mark.parametrize(
        "temperature, mass, nu_low",
        [(1e-320, 1.0, None), (1e-310, 1.0, None), (1.0, 1e-320, None), (1.0, 1.0, 1e-320)],
    )
    def test_spread_out_of_float_range_rejected(self, temperature, mass, nu_low):
        gas = sd.GasSpec(temperature_T=temperature, mass_m=mass)
        probe = sd.ProbeSpec(nu_low) if nu_low else sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        with pytest.raises(InvalidInputError, match=f"temperature_T={temperature!r}, "):
            sd.simulate_sorting(gas, probe, sd.SortingGeometry(1.0), 10, rng_seed=0)

    def test_small_representable_temperature_runs_clean(self):
        gas = sd.GasSpec(temperature_T=1e-300, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        door = sd.SortingGeometry(sd.max_door_size(sd.rms_momentum(gas)))
        report = sd.simulate_sorting(gas, probe, door, 10_000, rng_seed=7)
        assert all(math.isfinite(v) for v in asdict(report).values())
        assert report.feasibility_ratio == pytest.approx(10.0, rel=1e-12)
        assert abs(report.sorting_usable_change) < 1e-12
        assert all(report.verdicts().values())

    def test_invalid_attempts(self):
        gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
        probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
        with pytest.raises(InvalidInputError):
            sd.simulate_sorting(gas, probe, sd.SortingGeometry(1.0), 0, rng_seed=0)
