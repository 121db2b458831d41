"""The demos and the README example are a public contract: each runs clean with
warnings as errors, and each demo prints the bytes recorded in demo_output/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import demonlab

ROOT = Path(__file__).parents[1]
DEMOS = sorted(ROOT.joinpath("demos").glob("*.py"))
DEMO_OUTPUT = ROOT.joinpath("tests", "demo_output")
FLOAT = r"[-+]?\d+\.\d*(?:e[-+]?\d+)?"


def run_clean(*args: str) -> str:
    """Run python -W error with args on the package's source; return its stdout."""
    env = dict(os.environ)
    src = str(Path(demonlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return result.stdout


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    assert run_clean(str(demo)) == (DEMO_OUTPUT / f"{demo.stem}.stdout").read_text()


def test_readme_library_example_prints_what_it_says():
    (example,) = re.findall(r"```python\n(.*?)```", ROOT.joinpath("README.md").read_text(), re.S)
    (claim,) = re.findall(r"print\(p\.p\) +# (\[.*\])", example)
    printed = run_clean("-c", example).splitlines()[0]
    got = [float(x) for x in re.findall(FLOAT, printed)]
    want = [float(x) for x in re.findall(FLOAT, claim)]
    assert len(got) == len(want) == 2
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-5
