"""Physics relations that hold for every input, where one anchor value cannot tell a
formula from its mutant: how the golden-rule rate scales with h, and where speed-sorting
becomes infeasible."""

import json
import math

import pytest

from demonlab import cli
from demonlab.fgr import DecayChannel, golden_rule_rate
from demonlab.units import UnitSystem


@pytest.mark.parametrize("h", [1.0, 0.37, 6.62607015e-34])
@pytest.mark.parametrize("c", [2.0, 0.1, 1e3])
def test_golden_rule_rate_scales_as_one_over_h(h, c):
    channel = DecayChannel(matrix_element_sq=0.3, density_of_states=2.5)
    rate = golden_rule_rate(channel, UnitSystem(h=h))
    assert rate == pytest.approx(4.0 * math.pi**2 * 0.75 / h, rel=1e-14)
    assert golden_rule_rate(channel, UnitSystem(h=c * h)) == pytest.approx(rate / c, rel=1e-14)


# kT / h nu_low = r makes sigma_x / d = sqrt(r), in every unit system
@pytest.mark.parametrize("r", [0.5, 0.81, 1.21, 2.0, 3.61])
@pytest.mark.parametrize("units", [[], ["--k", "3.0", "--h", "0.25", "--temperature", "7.0"]])
def test_sorting_is_infeasible_exactly_where_the_ratio_exceeds_one(r, units, capsys):
    argv = ["speed-demon", "--ratio", str(r), "--attempts", "1000", *units]
    if r > 1.0:
        code = cli.main(argv)
    else:
        with pytest.warns(UserWarning, match="outside the gentle-probe regime"):
            code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    assert report["derived"]["feasibility_ratio"] == pytest.approx(math.sqrt(r), rel=1e-12)
    assert report["verdicts"]["sorting_infeasible"] is (r > 1.0)
    assert code == (0 if all(report["verdicts"].values()) else 1)
