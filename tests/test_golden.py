"""Golden reports: fixed CLI invocations whose output must not change.

Each case runs in-process through ``cli.main`` in a scratch directory. Its
stdout, with the ``"wall_time_s"`` line stripped, must equal
``golden/<case>.stdout`` byte for byte, and a CSV report written with
``--output`` must equal ``golden/<case>.csv``. A golden file changes only in
a change that says why in CHANGES.md. To re-record some or all cases:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from demonlab import cli

GOLDEN = Path(__file__).with_name("golden")

#: Relative paths keep the report's "config" block independent of the directory.
REPORT = "report.csv"
RATES = "rates.json"

CASES: dict[str, list[str]] = {
    "h-theorem": ["h-theorem"],
    "h-theorem-csv": ["h-theorem", "--states", "10", "--format", "csv", "--output", REPORT],
    "h-theorem-rates-file": ["h-theorem", "--rates-file", RATES],
    "fgr": ["fgr"],
    "fgr-csv": ["fgr", "--gamma", "2.5", "--format", "csv", "--output", REPORT],
    "qiur": ["qiur"],
    "qiur-box-csv": ["qiur", "--box-length", "2.0", "--format", "csv", "--output", REPORT],
    "szilard": ["szilard"],
    "szilard-si": ["szilard", "--si", "--cycles", "3"],
    "szilard-csv": ["szilard", "--cycles", "5", "--format", "csv", "--output", REPORT],
    "speed-demon": ["speed-demon"],
    "einstein": ["einstein"],
    "einstein-si": ["einstein", "--si", "--energy", "1e-18", "--frequency", "1e14"],
    "brownian": ["brownian"],
    "brownian-csv": ["brownian", "--step-law", "gaussian", "--sigma-step", "2.0",
                     "--format", "csv", "--output", REPORT],
}


def strip_wall_time(body: str) -> str:
    return re.sub(r'^\s*"wall_time_s":.*\n', "", body, flags=re.MULTILINE)


def run_case(name: str, workdir: Path) -> tuple[int, str, bytes | None]:
    """Run one case in workdir: exit code, stdout, CSV report or None."""
    shutil.copy(GOLDEN / RATES, workdir / RATES)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(CASES[name])
    finally:
        os.chdir(cwd)
    report = workdir / REPORT
    csv_bytes = report.read_bytes() if report.exists() else None
    return code, out.getvalue(), csv_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DEMONLAB_SEED", raising=False)
    code, stdout, csv_bytes = run_case(name, tmp_path)
    assert strip_wall_time(stdout).encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert code == (0 if all(json.loads(stdout)["verdicts"].values()) else 1)
    expected_csv = GOLDEN / f"{name}.csv"
    if csv_bytes is None:
        assert not expected_csv.exists()
    else:
        assert csv_bytes == expected_csv.read_bytes()


def record(names: list[str]) -> None:
    os.environ.pop("DEMONLAB_SEED", None)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            _code, stdout, csv_bytes = run_case(name, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_bytes(strip_wall_time(stdout).encode())
        if csv_bytes is not None:
            (GOLDEN / f"{name}.csv").write_bytes(csv_bytes)
        print(f"recorded {name}")


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(CASES))
