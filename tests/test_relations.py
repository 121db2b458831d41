"""Physics relations that hold for every input, where one anchor value cannot tell a
formula from its mutant: how the golden-rule rate scales with h, where speed-sorting
becomes infeasible, and how the einstein entropies scale with k but not with h."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonlab import cli
from demonlab.fgr import DecayChannel, golden_rule_rate
from demonlab.fluctuations import (
    BrillouinSpec,
    FluctuationSpec,
    brillouin_balance,
    gas_entropy_change,
)
from demonlab.reporting import json_dumps
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


def test_fluctuation_anchors():
    ds = gas_entropy_change(FluctuationSpec(3, 0.5))
    assert ds == pytest.approx(-3.0 * math.log(2.0), rel=1e-15)
    assert brillouin_balance(BrillouinSpec(10.0, 0.0), UnitSystem(k=2.0))["dS_demon"] == 20.0


EINSTEIN = ["einstein", "--brillouin-b", "10", "--info-fraction", "1e-3", "--trials", "10000"]
SCALES = st.floats(min_value=1e-3, max_value=1e3)


def einstein_report(*units: str) -> dict:
    args = cli.build_parser().parse_args([*EINSTEIN, *units])
    report = cli.run(cli.resolve_config("einstein", args))
    del report["wall_time_s"]
    return report


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(SCALES)
def test_einstein_entropies_scale_with_k(c):
    base, scaled = einstein_report(), einstein_report("--k", repr(c))
    assert scaled["derived"]["dS"] == pytest.approx(c * base["derived"]["dS"], rel=1e-15, abs=0)
    for key, value in base["derived"]["brillouin"].items():
        assert scaled["derived"]["brillouin"][key] == pytest.approx(c * value, rel=1e-15, abs=0)
    assert scaled["verdicts"] == base["verdicts"]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(SCALES)
def test_einstein_report_does_not_read_h(c):
    base, scaled = einstein_report(), einstein_report("--h", repr(c))
    assert scaled["config"].pop("h") == c
    del base["config"]["h"]
    assert json_dumps(scaled) == json_dumps(base)
