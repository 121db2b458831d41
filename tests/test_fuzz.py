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
Each key set alone to a valid value away from its default is either read (a
report) or refused in one error line that names it, before any work is done.
Generated --config files, rates files and qiur CSVs keep the same contract; an
error about a file's own reading names the file, which is not asserted here
because the checks downstream of the reader (say, a non-square matrix) do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonlab import brownian, cli, speed_demon

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
    return [key for key, default in cli._param_table(scenario).items() if type(default) is kind]


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


SCENARIOS = sorted(cli.SCENARIOS)


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


GOLDEN = Path(__file__).with_name("golden")

#: A valid value away from its default for every key of every scenario; --si takes none.
NON_DEFAULTS = {
    "seed": "3", "k": "2", "h": "2", "si": None, "output": "report.json", "format": "csv",
    "states": "5", "rates_file": str(GOLDEN / "rates.json"), "p0": "0.5,0.1,0.1,0.1,0.1,0.1",
    "t_max": "10", "samples": "1000", "gamma": "2", "input": str(GOLDEN / "wavefn.csv"),
    "sigma_x": "2", "box_length": "2", "grid_n": "128", "cycles": "3", "length": "2",
    "temperature": "2", "mass": "2", "convention": "exact-gaussian", "nu_low": "0.01",
    "ratio": "50", "door": "0.01", "attempts": "1000", "n_components": "2", "energy": "5",
    "frequency": "1", "volume_ratio": "0.25", "trials": "20000", "brillouin_b": "1",
    "info_fraction": "0.5", "steps": "50", "walkers": "500", "step_law": "gaussian",
    "sigma_step": "2",
}


class ReadsSeen(cli.Params):
    """cli.Params that also keeps every key read in the class-wide set seen."""

    seen: set[str] = set()

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_key_set_alone_is_read_or_refused_by_name(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "Params", ReadsSeen)
    broken = []
    for key in cli._param_table(scenario):
        flag = f"--{key.replace('_', '-')}"
        argv = [scenario, flag if NON_DEFAULTS[key] is None else f"{flag}={NON_DEFAULTS[key]}"]
        out, err = io.StringIO(), io.StringIO()
        ReadsSeen.seen.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        report = out.getvalue() != "" and lines == [] and key in ReadsSeen.seen
        refused = (out.getvalue() == "" and len(lines) == 1 and key in lines[0]
                   and lines[0].startswith(f"demonlab {scenario}: error: "))
        if not (code == 0 and report or code == 1 and (report or refused)):
            broken.append((argv, code, lines))
    assert broken == []


@pytest.mark.parametrize(
    "module, work, argv, line",
    [
        (brownian, "simulate_walks", ["brownian", "--sigma-step", "3"],
         "demonlab brownian: error: sigma_step set but not read under the +-1 step law"),
        (speed_demon, "simulate_sorting", ["speed-demon", "--nu-low", "3", "--ratio", "5"],
         "demonlab speed-demon: error: ratio set but not read with nu_low"),
    ],
    ids=["brownian", "speed-demon"],
)
def test_an_unread_key_is_refused_before_the_work(module, work, argv, line, monkeypatch, capsys):
    # the work includes speed-demon's gentle-probe warning, which nu_low = 3 > kT would raise
    def fail(*_args, **_kwargs):
        raise AssertionError(f"{work} ran before the refusal")

    monkeypatch.setattr(module, work, fail)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", line + "\n")


#: Config values beside each key's valid one: out of range, non-finite, malformed, empty.
CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "2.5", "1e400", "nan", "-inf", "true", "no", "", "csv",
                     "0x10", "1_000", "."]),
    st.text(alphabet="0123456789.-+eEinaftrux ,#=", max_size=8),
)


@st.composite
def config_files(draw, scenario: str) -> tuple[str, bytes]:
    """A config file (name, bytes): raw bytes, or `key = value` lines: the scenario's keys,
    dashed or not, each at its valid non-default value (unread ones among them) or a bad
    one, an unknown key, comments and blank lines, and now and then a line with no `=`."""
    if draw(st.sampled_from([False] * 5 + [True])):
        return "fuzz.cfg", draw(st.binary(max_size=48))
    table = cli._param_table(scenario)
    keys = [*table, *(key.replace("_", "-") for key in table if "_" in key), "colour"]
    lines = draw(st.lists(st.sampled_from(["# comment", "", "  "]), max_size=2))
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        valid = NON_DEFAULTS.get(key.replace("-", "_")) or "true"
        lines.append(f"{key} = {draw(st.one_of(st.just(valid), CONFIG_VALUES))}")
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.append("no equals sign")
    return "fuzz.cfg", "\n".join(draw(st.permutations(lines))).encode()


#: Nonnegative finite rates, up to 300 decades either side of 1.
RATES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300, 1e300])


@st.composite
def rates_files(draw) -> tuple[str, bytes]:
    """A rates file (name, bytes): a symmetric matrix, valid or with one defect
    (asymmetric, NaN, infinite, negative, disconnected, ragged), or an empty, binary or
    deeply nested file."""
    name = draw(st.sampled_from(["rates.json", "rates.txt"]))
    kind = draw(st.sampled_from(["valid"] * 6 + ["asymmetric", "nan", "inf", "negative",
                                             "disconnected", "ragged", "empty", "binary",
                                             "nested"]))
    if kind == "empty":
        return name, b""
    if kind == "binary":
        return name, draw(st.binary(min_size=1, max_size=48))
    if kind == "nested":
        depth = draw(st.sampled_from([3, 64, 65, 10**4]))
        return name, ('{"rates": ' + "[" * depth + "1" + "]" * depth + "}").encode()
    n = draw(st.integers(2, 5))
    upper = {(i, j): draw(RATES) for i in range(n) for j in range(i + 1, n)}
    r = [[upper.get((min(i, j), max(i, j)), 0.0) for j in range(n)] for i in range(n)]
    i, j = draw(st.permutations(range(n)))[:2]
    if kind in ("asymmetric", "nan", "inf", "negative"):
        r[i][j] = {"asymmetric": r[j][i] + 1.0, "nan": math.nan, "inf": math.inf,
                   "negative": -1.0}[kind]
    if kind == "disconnected":
        r = [[v if (a < n // 2) == (b < n // 2) else 0.0 for b, v in enumerate(row)]
             for a, row in enumerate(r)]
    if kind == "ragged":
        r[i] = r[i][:-1]
    if name.endswith(".json"):
        return name, json.dumps({"rates": r}).encode()
    return name, "\n".join(" ".join(map(repr, row)) for row in r).encode()


@st.composite
def qiur_csvs(draw) -> tuple[str, bytes]:
    """An x,re,im CSV (name, bytes): random or constant amplitudes, or one defect (NaN or
    infinite amplitude, non-uniform x, a short row, a field over the csv module's limit),
    at ordinary or extreme spacings and scales, and around the least grid size."""
    defects = ["nan", "inf", "non-uniform", "short-row", "long-field"]
    kind = draw(st.sampled_from(["random", "constant"] if draw(st.booleans()) else defects))
    ordinary = draw(st.booleans())  # or extreme sizes, spacings, origins and scales
    n = draw(st.sampled_from([64, 100, 128] if ordinary else [64, 1, 63]))
    x0 = draw(st.sampled_from([0.0, -50.0] if ordinary else [0.0, 1e300]))
    dx = draw(st.sampled_from([1.0, 0.05] if ordinary else [1e-20, 1e20, 1e-300, 1e300, 5e-324]))
    scale = draw(st.sampled_from([1.0] if ordinary else [
        1.0, 1e-170, 1e170, 5e-324, 1.7976931348623157e308]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = [[x0 + i * dx, *(scale * v for v in rng.standard_normal(2).tolist())]
            for i in range(n)]
    if kind == "constant":
        rows = [[x, scale, 0.0] for x, _re, _im in rows]
    cells = [[repr(v) for v in row] for row in rows]
    if cells and kind in defects:
        k, column = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, 2]))
        if kind in ("nan", "inf"):
            cells[k][column] = kind
        elif kind == "non-uniform":
            cells[k][0] = repr(rows[k][0] + 0.5 * dx)
        elif kind == "short-row":
            cells[k] = cells[k][:2]
        else:
            cells[k][column] = "1" * 140_000
    return "psi.csv", ("x,re,im\n" + "\n".join(",".join(row) for row in cells) + "\n").encode()


#: name -> (scenario, the argv before the file's path, strategy of the file's (name, bytes))
FILE_INPUTS = {
    **{f"config-{s}": (s, [s, *COUNTS[s], "--config"], config_files(s)) for s in SCENARIOS},
    "rates-file": ("h-theorem", ["h-theorem", "--samples", "5", "--rates-file"], rates_files()),
    "qiur-csv": ("qiur", ["qiur", "--input"], qiur_csvs()),
}


@pytest.mark.parametrize("name", FILE_INPUTS)
def test_every_file_ends_in_a_report_or_one_error_line(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a config's output key writes here
    scenario, argv, files = FILE_INPUTS[name]

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(files)
    def check(drawn):
        filename, content = drawn
        path = tmp_path / filename
        path.write_bytes(content)
        assert escape(scenario, [*argv, str(path)]) is None, content[:200]

    check()
