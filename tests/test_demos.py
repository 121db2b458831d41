"""The demos are a public contract: each one runs clean with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import demonlab

DEMOS = sorted(Path(__file__).parents[1].joinpath("demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    src = str(Path(demonlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
