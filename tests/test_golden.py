"""Golden reports: fixed CLI invocations whose output must not change.

Each case runs in-process through ``cli.main`` in a scratch directory. Its
stdout, with the ``"wall_time_s"`` line stripped, must equal
``golden/<case>.stdout`` byte for byte, and a report written with
``--output`` must equal ``golden/<case>.csv`` or ``golden/<case>.json`` (a
JSON report with its ``"wall_time_s"`` line stripped too). A golden file
changes only in a change that says why in CHANGES.md. To re-record some or all cases:

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
JSON_REPORT = "report.json"
RATES = "rates.json"
WAVEFN = "wavefn.csv"

CASES: dict[str, list[str]] = {
    "h-theorem": ["h-theorem"],
    "h-theorem-csv": ["h-theorem", "--states", "10", "--format", "csv", "--output", REPORT],
    "h-theorem-rates-file": ["h-theorem", "--rates-file", RATES],
    "fgr": ["fgr"],
    "fgr-csv": ["fgr", "--gamma", "2.5", "--format", "csv", "--output", REPORT],
    "qiur": ["qiur"],
    "qiur-box-csv": ["qiur", "--box-length", "2.0", "--format", "csv", "--output", REPORT],
    "qiur-input-csv": ["qiur", "--input", WAVEFN, "--format", "csv", "--output", REPORT],
    "szilard": ["szilard"],
    "szilard-si": ["szilard", "--si", "--cycles", "3"],
    "szilard-csv": ["szilard", "--cycles", "5", "--format", "csv", "--output", REPORT],
    "szilard-json": ["szilard", "--cycles", "3", "--output", JSON_REPORT],
    "speed-demon": ["speed-demon"],
    "speed-demon-csv": ["speed-demon", "--format", "csv", "--output", REPORT],
    "einstein": ["einstein"],
    "einstein-si": ["einstein", "--si", "--energy", "1e-18", "--frequency", "1e14"],
    "einstein-brillouin-csv": ["einstein", "--brillouin-b", "10", "--info-fraction", "1e-6",
                               "--format", "csv", "--output", REPORT],
    "brownian": ["brownian"],
    "brownian-csv": ["brownian", "--step-law", "gaussian", "--sigma-step", "2.0",
                     "--format", "csv", "--output", REPORT],
    "brownian-long-csv": ["brownian", "--steps", "300", "--walkers", "20001",
                          "--format", "csv", "--output", REPORT],
}


def strip_wall_time(body: str) -> str:
    return re.sub(r'^\s*"wall_time_s":.*\n', "", body, flags=re.MULTILINE)


def run_case(name: str, workdir: Path) -> tuple[int, str, dict[str, bytes]]:
    """Run one case in workdir: exit code, stdout, report bytes by suffix."""
    for fixture in (RATES, WAVEFN):
        shutil.copy(GOLDEN / fixture, workdir / fixture)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(CASES[name])
    finally:
        os.chdir(cwd)
    reports = {}
    for path in (workdir / REPORT, workdir / JSON_REPORT):
        if path.exists():
            body = path.read_bytes()
            if path.suffix == ".json":
                body = strip_wall_time(body.decode()).encode()
            reports[path.suffix] = body
    return code, out.getvalue(), reports


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DEMONLAB_SEED", raising=False)
    code, stdout, reports = run_case(name, tmp_path)
    assert strip_wall_time(stdout).encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert code == (0 if all(json.loads(stdout)["verdicts"].values()) else 1)
    for suffix in (".csv", ".json"):
        expected = GOLDEN / f"{name}{suffix}"
        if suffix in reports:
            assert reports[suffix] == expected.read_bytes()
        else:
            assert not expected.exists()


def record(names: list[str]) -> None:
    os.environ.pop("DEMONLAB_SEED", None)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            _code, stdout, reports = run_case(name, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_bytes(strip_wall_time(stdout).encode())
        for suffix, body in reports.items():
            (GOLDEN / f"{name}{suffix}").write_bytes(body)
        print(f"recorded {name}")


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(CASES))
