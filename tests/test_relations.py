"""Physics relations that hold for every input, where one anchor value cannot tell a
formula from its mutant: how the golden-rule rate scales with h, where speed-sorting
becomes infeasible, how the einstein entropies scale with k but not with h, and how
every verdict keeps, and every k-valued field scales, under k -> c k."""

import json
import math
import sys

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


#: The values of k of the markov and szilard relation tests.
K_SCALES = [1.380649e-23, 1e-4, 1.0, 1e4, 1e20]

#: Per invocation, its derived fields in units of k: each scales by c under k -> c k.
K_VALUED = {
    ("fgr", "--samples", "10000"): (),
    ("qiur", "--grid-n", "1024"): (),
    ("qiur", "--box-length", "2", "--grid-n", "1024"): (),
    ("speed-demon", "--attempts", "10000"): ("dS_momentum", "injected_energy"),
    ("einstein", "--trials", "10000"): ("dS",),
    ("einstein", "--brillouin-b", "10", "--info-fraction", "1e-3", "--trials", "10000"):
        ("dS", "brillouin"),
    ("einstein", "--energy", "5", "--frequency", "1", "--trials", "10000"): ("dS",),
    ("brownian", "--steps", "50", "--walkers", "1000"): (),
}


def derived_at(argv: tuple[str, ...], *units: str) -> tuple[dict, dict]:
    args = cli.build_parser().parse_args([*argv, *units])
    report = cli.run(cli.resolve_config(args.scenario, args))
    return report["derived"], report["verdicts"]


def within_ulps(value: float, expected: float, ulps: int = 4) -> bool:
    return abs(value - expected) <= ulps * sys.float_info.epsilon * abs(expected)


@pytest.mark.parametrize("c", K_SCALES)
@pytest.mark.parametrize("argv", list(K_VALUED), ids=" ".join)
def test_verdicts_keep_and_k_valued_fields_scale_under_k_to_ck(argv, c):
    base, base_verdicts = derived_at(argv)
    scaled, verdicts = derived_at(argv, "--k", repr(c))
    assert verdicts == base_verdicts
    for key in K_VALUED[argv]:
        values = base[key] if isinstance(base[key], dict) else {key: base[key]}
        got = scaled[key] if isinstance(scaled[key], dict) else {key: scaled[key]}
        for name, value in values.items():
            assert within_ulps(got[name], c * value), (name, got[name], c * value)
    if argv[0] == "speed-demon":
        # dS_momentum + k dI_position cancels to the rounding of k |dI_position|; the momenta
        # and lengths scale by powers of sqrt(c)
        eps = sys.float_info.epsilon
        assert abs(scaled["sorting_usable_change"]) <= 16 * eps * c * abs(base["dI_position"])
        return
    if argv[0] == "einstein":  # exp(dS / k) - W rounds with k
        del base["identity_gap"]
        assert scaled.pop("identity_gap") <= 4 * math.ulp(base["probability"])
    k_free = [key for key in base if key not in K_VALUED[argv]]
    assert [scaled[key] for key in k_free] == [base[key] for key in k_free]
