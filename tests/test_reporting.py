"""Report emission helpers: JSON of numpy values, key/value rows, the verdict record."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from demonlab import cli
from demonlab.errors import NumericError
from demonlab.reporting import Check, json_dumps, kv_rows
from demonlab.units import UnitSystem


def test_json_of_numpy_values_equals_json_of_python_values():
    values = {"b": np.bool_(True), "i": np.int64(7), "f": np.float64(0.1), "a": np.arange(3.0)}
    plain = {"b": True, "i": 7, "f": 0.1, "a": [0.0, 1.0, 2.0]}
    assert json_dumps(values) == json_dumps(plain)
    assert json.loads(json_dumps(values)) == plain


def test_json_rejects_unknown_objects():
    with pytest.raises(TypeError):
        json_dumps({"x": object()})


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.float64("nan"), np.array([1.0, np.nan])])
def test_json_rejects_non_finite_values(value):
    # RFC 8259 has no Infinity or NaN
    with pytest.raises(NumericError, match="not valid JSON"):
        json_dumps({"derived": {"x": value}})


@pytest.mark.parametrize(
    "output",
    [[], ["--output", "report.json"], ["--format", "csv", "--output", "report.csv"]],
    ids=["stdout", "file", "csv-file"],
)
def test_cli_reports_a_non_finite_value_as_one_error_line(output, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)

    def runner(*_):
        yield {}
        return {"x": np.inf}, {}, None

    monkeypatch.setitem(cli.SCENARIOS, "szilard", (runner, cli.SCENARIOS["szilard"][1]))
    assert cli.main(["szilard", *output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("demonlab szilard: error: report is not valid JSON")
    assert list(tmp_path.iterdir()) == []  # no report file of either format


def test_kv_rows_sorted_without_dicts():
    derived = {"b": 2, "a": 1.5, "nested": {"net": 1.0}, "c": True}
    assert kv_rows(derived) == [("a", 1.5), ("b", 2), ("c", True)]


def binomial_3sigma(p: float, n: int) -> float:
    return Check.binomial(p, p, n).tolerance


def test_binomial_3sigma():
    assert binomial_3sigma(0.5, 100) == pytest.approx(0.15)
    assert binomial_3sigma(0.125, 20_000) == 3.0 * math.sqrt(0.125 * 0.875 / 20_000)
    assert binomial_3sigma(1.0, 10) == 0.0
    # p (1 - p) / n underflows to 0 for a subnormal p; the tolerance must not
    p = 8.686e-321
    assert p * (1.0 - p) / 10_000 == 0.0
    assert binomial_3sigma(p, 10_000) == 3.0 * math.sqrt(p) / 100.0 > p


#: One invocation per runner, small, and with every verdict of its scenario.
RUNNER_ARGVS = [
    ["h-theorem"],
    ["fgr", "--samples", "10000"],
    ["qiur", "--grid-n", "256"],
    ["szilard", "--cycles", "3"],
    ["speed-demon", "--attempts", "1000"],
    ["einstein", "--trials", "10000", "--brillouin-b", "10"],
    ["brownian", "--steps", "30", "--walkers", "100"],
]


def runner_checks(argv: list[str]) -> dict:
    """The verdicts a runner returns to cli.run, before run writes their passed bools."""
    args = cli.build_parser().parse_args(argv)
    params = cli.resolve_config(args.scenario, args)
    runner = cli.SCENARIOS[args.scenario][0](params, UnitSystem(), params["seed"])
    next(runner)
    with pytest.raises(StopIteration) as done:
        next(runner)
    return done.value.value[1]


def test_every_runner_returns_checks_with_a_bool_and_no_truth_value():
    assert sorted(argv[0] for argv in RUNNER_ARGVS) == sorted(cli.SCENARIOS)
    checks = {(argv[0], name): check for argv in RUNNER_ARGVS
              for name, check in runner_checks(argv).items()}
    assert len(checks) == 15
    for check in checks.values():
        assert type(check) is Check and type(check.passed) is bool
        with pytest.raises(TypeError, match="no truth value"):
            bool(check)
    for argv in RUNNER_ARGVS:
        report = cli.run(cli.resolve_config(argv[0], cli.build_parser().parse_args(argv)))
        assert report["verdicts"] == {name: c.passed for name, c in runner_checks(argv).items()}


def _builds_a_check(call: ast.Call) -> bool:
    """Check(...), Check.within(...), reporting.Check(...) and the like, or a dataclass replace."""
    if isinstance(call.func, ast.Name) and call.func.id == "replace":
        return True
    return "Check" in {n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(call.func) if isinstance(n, (ast.Name, ast.Attribute))}


def test_the_cli_builds_no_check_and_only_reporting_scales_by_two_to_the_200():
    src = Path(cli.__file__).parent
    tree = ast.parse((src / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _builds_a_check(node)] == []
    scaled = sorted(
        path.stem for path in src.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant) and node.left.value == 2
        and isinstance(node.right, ast.Constant) and node.right.value == 200
    )
    assert scaled == ["reporting"]
