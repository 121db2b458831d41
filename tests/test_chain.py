"""One bit, k ln 2, booked the same way across scenarios.

Szilard's insertion, Einstein's halved volume and Brillouin's halved microstate
count each book one bit. Each link runs through cli.run where a scenario reports
it, and holds in natural and SI units.
"""

from __future__ import annotations

import math

import pytest

from demonlab import cli
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
