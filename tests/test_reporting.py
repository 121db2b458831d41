"""Report emission helpers: JSON of numpy values, key/value rows, 3-sigma."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from demonlab import cli
from demonlab.errors import NumericError
from demonlab.reporting import binomial_3sigma, json_dumps, kv_rows


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
    monkeypatch.setitem(cli.RUNNERS, "szilard", lambda *_: ({"x": np.inf}, {}, None))
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


def test_binomial_3sigma():
    assert binomial_3sigma(0.5, 100) == pytest.approx(0.15)
    assert binomial_3sigma(0.125, 20_000) == 3.0 * math.sqrt(0.125 * 0.875 / 20_000)
    assert binomial_3sigma(1.0, 10) == 0.0
