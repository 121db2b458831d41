"""Escape net: generated flags for every scenario end in a report or one error line.

Each example runs ``cli.main`` in-process with every float flag of a scenario
drawn from subnormal, huge, infinite, NaN, negative and ordinary values, and a
seed from -2**70 to 2**70. Counts stay small, so no example allocates much;
each int flag is also driven alone at -1, 0, 1 and far past every count limit.
The run must exit 0, 1 or 2 without an exception; a failure writes exactly one
``demonlab <scenario>: error:`` or ``demonlab: error:`` line and nothing else;
stdout is empty or JSON with no NaN or Infinity. No warning may escape, except
the speed-demon probe's documented gentle-probe UserWarning. A zero-means-unset
flag (0.0 or -0.0 keeps its default) set below zero or to NaN must not exit 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonlab import cli

#: Small counts: the net looks for escapes at float extremes, not for memory limits.
COUNTS = {
    "h-theorem": ["--states", "4", "--samples", "5"],
    "fgr": ["--samples", "1000"],
    "qiur": ["--grid-n", "64"],
    "szilard": ["--cycles", "3"],
    "speed-demon": ["--attempts", "100"],
    "einstein": ["--trials", "10000"],
    "brownian": ["--steps", "20", "--walkers", "100"],
}

EXTREMES = [
    5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-20,
    1e20, 1e155, 1e280, 1e300, 1e307, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"), 0.0, -0.0, -1.0, -1e300,
]

FLOATS = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


#: Keys whose 0.0 means "unset": below zero or NaN they must be refused, not dropped.
UNSET_KEYS = {"t_max", "box_length", "nu_low", "door", "energy", "frequency", "brillouin_b"}

#: Each is refused by its count's range, or small enough to run in a moment.
INT_EXTREMES = [-1, 0, 1, 10**11, 2**63, 10**30]


def flags(scenario: str, kind: type) -> list[str]:
    table = {**cli.COMMON_PARAMS, **cli.SCENARIO_PARAMS[scenario]}
    return [key for key, (typ, _default) in table.items() if typ is kind]


def _reject_constant(name: str) -> None:
    raise ValueError(f"report holds {name}")


@st.composite
def argvs(draw, scenario: str) -> list[str]:
    argv = [scenario, *COUNTS[scenario]]
    for key in flags(scenario, float):
        if draw(st.booleans()):
            argv.append(f"--{key.replace('_', '-')}={draw(FLOATS)!r}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-(2**70), 2**70))}")
    if draw(st.booleans()):
        argv.append("--si")
    if scenario == "brownian" and draw(st.booleans()):
        argv.append("--step-law=gaussian")
    return argv


def escape(scenario: str, argv: list[str]) -> str | None:
    """Run argv in-process; describe how it broke the contract, or return None."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if code not in (0, 1, 2):
        return f"exit {code}"
    for arg in argv:
        flag, _, value = arg.partition("=")
        if code == 0 and flag[2:].replace("-", "_") in UNSET_KEYS and not float(value) >= 0.0:
            return f"exit 0 with {arg}"
    for w in caught:
        if not (scenario == "speed-demon" and "gentle-probe" in str(w.message)):
            return f"{w.category.__name__}: {w.message}"
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        return None if err.getvalue() == "" else f"stderr beside a report: {err.getvalue()!r}"
    lines = err.getvalue().splitlines()
    if code == 0 or len(lines) != 1:
        return f"exit {code} with stderr {lines!r}"
    if not lines[0].startswith((f"demonlab {scenario}: error: ", "demonlab: error: ")):
        return f"unexpected error line {lines[0]!r}"
    return None


SCENARIOS = sorted(cli.SCENARIO_PARAMS)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_float_flag_alone_at_each_extreme(scenario):
    argvs_ = [
        [scenario, *COUNTS[scenario], f"--{key.replace('_', '-')}={value!r}", *extra]
        for key in flags(scenario, float)
        for value in EXTREMES
        for extra in ([], ["--si"])
    ]
    broken = [(argv, why) for argv in argvs_ if (why := escape(scenario, argv))]
    assert broken == []


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_int_flag_alone_at_each_extreme(scenario):
    argvs_ = [
        [scenario, *COUNTS[scenario], f"--{key.replace('_', '-')}={value}"]
        for key in flags(scenario, int)
        for value in INT_EXTREMES
    ]
    broken = [(argv, why) for argv in argvs_ if (why := escape(scenario, argv))]
    assert broken == []


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_invocation_ends_in_a_report_or_one_error_line(scenario):
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(argvs(scenario))
    def check(argv):
        assert escape(scenario, argv) is None, argv

    check()
