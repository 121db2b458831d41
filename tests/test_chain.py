"""One bit, k ln 2, booked the same way across scenarios, and the Heisenberg floor.

Szilard's insertion, Einstein's halved volume and Brillouin's halved microstate
count each book one bit. Each link runs through cli.run where a scenario reports
it, and holds in natural and SI units. A minimum-uncertainty packet's sampled joint
information meets the closed-form Gaussian informations, whose sum is the bound
ln(h e / 2) that the demon's measurement cannot beat. Einstein's one-component
halving is sampled at its probability 1/2, and Szilard's insertion and the speed
demon's probe each book k times a difference of Gaussian momentum informations.
"""

from __future__ import annotations

import math

import pytest

from demonlab import cli, qiur, szilard
from demonlab.fluctuations import (
    BrillouinSpec,
    FluctuationSpec,
    brillouin_balance,
    gas_entropy_change,
)
from demonlab.units import NATURAL_UNITS, UnitSystem

#: k ln 2 as each scenario books it, pinned bit for bit.
K_LN_2 = {"natural": 0.6931471805599453, "si": 9.569929616929079e-24}
UNITS = {"natural": ([], NATURAL_UNITS), "si": (["--si"], UnitSystem.si())}


def report(*argv: str) -> dict:
    args = cli.build_parser().parse_args(list(argv))
    return cli.run(cli.resolve_config(args.scenario, args))


@pytest.mark.parametrize("system", UNITS)
def test_szilard_einstein_and_brillouin_book_the_same_bit(system):
    flags, units = UNITS[system]
    bit = K_LN_2[system]
    assert units.k * math.log(2.0) == bit
    assert report("szilard", *flags)["derived"]["insertion_dS"] == bit
    einstein = report("einstein", "--n-components", "1", "--volume-ratio", "0.5", "--trials", "0",
                      "--brillouin-b", "1", "--info-fraction", "0.5", *flags)["derived"]
    assert -einstein["dS"] == -gas_entropy_change(FluctuationSpec(1, 0.5), units) == bit
    brillouin = brillouin_balance(BrillouinSpec(1.0, 0.5), units)
    assert -einstein["brillouin"]["dS_gas_exact"] == -brillouin["dS_gas_exact"] == bit


@pytest.mark.parametrize("system", UNITS)
@pytest.mark.parametrize("temperature", ["1", "2", "300"])
def test_szilard_work_is_temperature_times_the_bit_and_nets_zero_entropy(system, temperature):
    flags, _units = UNITS[system]
    derived = report("szilard", "--cycles", "5", "--temperature", temperature, *flags)["derived"]
    work = float(temperature) * derived["insertion_dS"]
    assert abs(derived["work_per_cycle"] - work) <= math.ulp(work)
    assert derived["net_dS"] == 0.0


@pytest.mark.parametrize("system", UNITS)
@pytest.mark.parametrize("fraction", [0.5, 0.25])
def test_brillouin_breaks_even_at_b_of_minus_log_one_minus_f(system, fraction):
    flags, _units = UNITS[system]
    b = -math.log1p(-fraction)
    assert fraction != 0.5 or b == math.log(2.0)
    out = report("einstein", "--brillouin-b", repr(b), "--info-fraction", repr(fraction), *flags)
    assert out["derived"]["brillouin"]["net"] == 0.0
    assert out["verdicts"]["brillouin_net_positive"] is False


@pytest.mark.parametrize("sigma_x", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [4096, 2**20], ids=["whole-fft", "stream"])
def test_a_minimum_uncertainty_packet_samples_the_closed_form_joint(n, sigma_x):
    # gaussian_information(sigma_x) + gaussian_information(hbar / (2 sigma_x)) is ln(h e / 2),
    # to the rounding of two logs. The packet is cut at +-8 sigma_x: the truncated Gaussian's
    # information falls by m + 8 phi(8), with m = erfc(8 / sqrt 2) its lost tail mass and phi
    # the unit normal density (4.2e-14), and its momentum density moves with it; the sampled
    # joint fell 2.0 margins below the closed form at both sizes. Allow 3.
    units = NATURAL_UNITS
    closed = qiur.gaussian_information(sigma_x)
    closed += qiur.gaussian_information(units.hbar / (2 * sigma_x))
    assert abs(closed - qiur.qiur_bound(units)) <= 4 * math.ulp(closed)
    margin = math.erfc(8 / math.sqrt(2)) + 8 * math.exp(-32) / math.sqrt(2 * math.pi)
    report = qiur.entropy_report(qiur.gaussian_packet(sigma_x, n=n), units)
    assert abs(report["joint"] - closed) <= 3 * margin


def test_einstein_estimates_half_within_its_own_3_sigma():
    # one component, half the volume: the all-inside probability is 1/2, and 10^5 seeded
    # placements read 0.50098 at seed 0, inside the report's own mc_within_3sigma Check
    out = report("einstein", "--n-components", "1", "--volume-ratio", "0.5",
                 "--trials", "100000", "--seed", "0")
    derived = out["derived"]
    assert (derived["probability"], derived["mc_probability"]) == (0.5, 0.50098)
    assert abs(derived["mc_probability"] - 0.5) <= derived["mc_tol_3sigma"]
    assert out["verdicts"]["mc_within_3sigma"] is True


@pytest.mark.parametrize("k", [1.0, 1.380649e-23, 1e4])
def test_szilard_and_speed_demon_book_momentum_spreads_as_gaussian_informations(k):
    # both ledgers are k times a difference of closed-form Gaussian informations of momentum
    # spreads: szilard's insertion doubles sigma_p (measured 0 ulp apart), and the speed-demon
    # probe takes p_rms to sigma_p_post (measured 0 to 3 ulp apart); allow 4 ulp
    box = szilard.EngineBox(1.0, 1.0, 1.0)
    sigma_p = szilard.initial_state(box, UnitSystem(k=k)).state.sigma_p
    booked = k * (qiur.gaussian_information(2 * sigma_p) - qiur.gaussian_information(sigma_p))
    insertion = report("szilard", "--k", repr(k))["derived"]["insertion_dS"]
    assert abs(booked - insertion) <= 4 * math.ulp(insertion)
    demon = report("speed-demon", "--k", repr(k), "--attempts", "1000")["derived"]
    ratio = k * math.log(demon["sigma_p_post"] / demon["p_rms"])
    assert abs(demon["dS_momentum"] - ratio) <= 4 * math.ulp(ratio)
