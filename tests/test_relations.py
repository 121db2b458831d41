"""Physics relations that hold for every input, where one anchor value cannot tell a
formula from its mutant: how the golden-rule rate scales with h, where speed-sorting
becomes infeasible, how the einstein entropies scale with k but not with h, how
every verdict keeps, and every k-valued field scales, under k -> c k, how the
momentum information and its bound shift by ln c under h -> c h, how szilard's
entropies ignore the box, and where h nu = kT / 100 puts the sorting ratio."""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonlab import cli, qiur
from demonlab.fgr import DecayChannel, golden_rule_rate
from demonlab.fluctuations import (
    BrillouinSpec,
    FluctuationSpec,
    brillouin_balance,
    gas_entropy_change,
)
from demonlab.reporting import json_dumps
from demonlab.speed_demon import GasSpec, ProbeSpec, sorting_feasibility
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


@pytest.mark.parametrize("c", [1e-4, 1e4, 6.62607015e-34])
@pytest.mark.parametrize("n", [4096, 2**20], ids=["whole-fft", "stream"])
def test_h_to_ch_shifts_i_p_and_the_bound_by_ln_c(n, c):
    # |phi|^2 scales by 1/c and dp by c, so each term -rho ln rho dp gains rho dp ln c, and their
    # sum ln c. The scaled amplitudes round within a few eps each, which moves ln rho by as much
    # absolutely; the N terms, each below (|ln rho| + |ln c|) rho dp, are summed pairwise with an
    # error of eps log2 N times their absolute sum. So the two I_p differ from ln c by at most
    # 4 eps log2 N (1 + |I_p| + |ln c|), and joint - bound, whose bound rounds ln c once more,
    # keeps to the same. Measured: below 0.1 of that bound at every c and size here.
    psi = qiur.gaussian_packet(1.0, n=n)
    base, scaled = qiur.entropy_report(psi), qiur.entropy_report(psi, UnitSystem(h=c))
    shift = math.log(c)
    slack = 4 * sys.float_info.epsilon * math.log2(n) * (1 + abs(base["I_p"]) + abs(shift))
    assert scaled["I_x"] == base["I_x"]
    assert abs(scaled["I_p"] - base["I_p"] - shift) <= slack
    assert abs(scaled["bound"] - base["bound"] - shift) <= 4 * math.ulp(shift + 1.0)
    gap = (scaled["joint"] - scaled["bound"]) - (base["joint"] - base["bound"])
    assert abs(gap) <= slack
    assert scaled["satisfied"] is base["satisfied"] is True


#: Box length, temperature and mass of the szilard invariance test.
BOXES = [(1.0, 1.0, 1.0), (1e-9, 300.0, 6.6e-26), (10.0, 1e-3, 1e3)]


@pytest.mark.parametrize("k", [1.0, 1.380649e-23, 1e4])
def test_szilard_entropies_do_not_read_the_box_and_work_over_t_keeps_its_value(k):
    # insertion_dS is k ln(2 sigma_p / sigma_p) and net_dS sums +-k ln 2: neither sees L, T or
    # m. net_work sums n copies of fl(fl(k T) ln 2) in order, so net_work / T is n k ln 2 to a
    # relative (n + 2) eps / 2 + O(eps^2) on each side; two sides differ by (n + 3) eps at most.
    # Measured: 11.4 eps at most, at n = 100
    n = 100
    derived = [derived_at(("szilard", "--cycles", str(n), "--length", repr(length),
                           "--temperature", repr(t), "--mass", repr(m)), "--k", repr(k))[0]
               for length, t, m in BOXES]
    assert len({(d["insertion_dS"], d["net_dS"]) for d in derived}) == 1
    per_t = [d["net_work"] / t for d, (_length, t, _m) in zip(derived, BOXES)]
    for value in per_t[1:]:
        assert abs(value - per_t[0]) <= (n + 3) * sys.float_info.epsilon * per_t[0]


@pytest.mark.parametrize("t, m", [(1.0, 1.0), (300.0, 6.64e-26), (1e-3, 1e5)])
@pytest.mark.parametrize("h", [1.0, 6.62607015e-34, 1e-4])
@pytest.mark.parametrize("k", [1.0, 1.380649e-23, 1e4])
def test_sorting_feasibility_is_ten_at_h_nu_of_kt_over_100(k, h, t, m):
    # sigma_x / d = sqrt(kT / h nu) in any units, to the roundings of its products, roots and
    # quotients: measured 1 ulp from 10 at worst; allow 2
    units = UnitSystem(k=k, h=h)
    gas = GasSpec(t, m)
    ratio = sorting_feasibility(gas, ProbeSpec.from_energy_ratio(gas, 100.0, units), units)
    assert abs(ratio - 10.0) <= 2 * math.ulp(10.0)
