"""CLI contract: precedence, report schema, exit codes, reproducibility."""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys

import pytest

from demonlab import cli
from demonlab.cli import UsageError


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    import os

    env = dict(os.environ)
    env.pop("DEMONLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "demonlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def strip_wall_time(body: str) -> str:
    return re.sub(r'^\s*"wall_time_s":.*\n', "", body, flags=re.MULTILINE)


def _namespace(scenario: str, **kwargs) -> argparse.Namespace:
    table = cli._param_table(scenario)
    ns = argparse.Namespace(config=kwargs.pop("config", None))
    for key in table:
        setattr(ns, key, kwargs.get(key))
    return ns


class TestResolveConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        config = cli.resolve_config("szilard", _namespace("szilard"))
        assert config.params["cycles"] == 1
        assert config.params["seed"] == 0
        assert config.params["temperature"] == 1.0

    def test_flags_win(self, monkeypatch):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        ns = _namespace("szilard", cycles="10", seed="7")
        config = cli.resolve_config("szilard", ns)
        assert config.scenario == "szilard"
        assert config.params["cycles"] == 10
        assert config.params["seed"] == 7

    def test_config_file_between_flags_and_defaults(self, monkeypatch, tmp_path):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature = 300  # bath\ncycles = 4\n")
        ns = _namespace("szilard", config=str(cfg), temperature="150")
        config = cli.resolve_config("szilard", ns)
        assert config.params["temperature"] == 150.0  # flag beats file
        assert config.params["cycles"] == 4  # file beats default

    def test_env_seed_lowest_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEMONLAB_SEED", "99")
        config = cli.resolve_config("szilard", _namespace("szilard"))
        assert config.params["seed"] == 99
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 55\n")
        config = cli.resolve_config("szilard", _namespace("szilard", config=str(cfg)))
        assert config.params["seed"] == 55
        ns = _namespace("szilard", config=str(cfg), seed="7")
        assert cli.resolve_config("szilard", ns).params["seed"] == 7

    def test_unknown_config_key_is_hard_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cycels = 10\n")
        with pytest.raises(UsageError, match="unknown config key"):
            cli.resolve_config("szilard", _namespace("szilard", config=str(cfg)))

    def test_type_mismatch_is_hard_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cycles = soon\n")
        with pytest.raises(UsageError, match="expected int"):
            cli.resolve_config("szilard", _namespace("szilard", config=str(cfg)))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cycles 10\n")
        with pytest.raises(UsageError, match="key = value"):
            cli.parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cycles = 1\ncycles = 2\n")
        with pytest.raises(UsageError, match="duplicate"):
            cli.parse_config_file(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\n\nseed = 3 # trailing\n")
        assert cli.parse_config_file(cfg) == {"seed": "3"}


class TestScenarios:
    def test_szilard_report(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "szilard", "--cycles", "10", "--seed", "7", "--output", str(out)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["scenario"] == "szilard"
        assert report["config"]["cycles"] == 10
        assert report["config"]["seed"] == 7
        assert report["derived"]["insertion_dS"] == pytest.approx(0.693147, abs=1e-6)
        assert report["derived"]["net_dS"] == 0.0
        assert report["verdicts"]["prefix_nonnegative"] is True
        assert report["version"] == "0.1.0"

    def test_speed_demon_ratio_flag(self):
        result = run_cli("speed-demon", "--ratio", "100", "--attempts", "2000")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["derived"]["feasibility_ratio"] == pytest.approx(10.0, abs=1e-9)
        assert report["verdicts"]["sorting_infeasible"] is True

    def test_h_theorem_equilibrium_start(self):
        result = run_cli(
            "h-theorem", "--states", "4", "--p0", "0.25,0.25,0.25,0.25", "--t-max", "5"
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["verdicts"]["entropy_monotone"] is True
        assert abs(report["derived"]["S_final"] - report["derived"]["S_initial"]) < 1e-10

    def test_fgr_scenario(self):
        result = run_cli("fgr", "--gamma", "2.0", "--samples", "50000", "--seed", "3")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["verdicts"]["survival_within_3sigma"] is True
        assert report["derived"]["lifetime"] == 0.5

    def test_qiur_scenario(self):
        result = run_cli("qiur", "--sigma-x", "1.0")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["verdicts"]["bound_satisfied"] is True
        assert report["derived"]["joint"] == pytest.approx(0.306853, abs=1e-3)

    def test_einstein_scenario_with_brillouin(self):
        result = run_cli(
            "einstein",
            "--n-components", "3",
            "--volume-ratio", "0.5",
            "--trials", "20000",
            "--brillouin-b", "10",
            "--info-fraction", "1e-6",
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["derived"]["probability"] == 0.125
        assert report["verdicts"]["identity_ok"] is True
        assert report["verdicts"]["mc_within_3sigma"] is True
        assert report["verdicts"]["brillouin_net_positive"] is True

    def test_brownian_scenario(self):
        result = run_cli("brownian", "--steps", "100", "--walkers", "20000")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["verdicts"]["msd_within_3sigma"] is True
        assert report["verdicts"]["msd_fit_linear"] is True

    def test_csv_output(self, tmp_path):
        out = tmp_path / "ledger.csv"
        result = run_cli(
            "szilard", "--cycles", "2", "--output", str(out), "--format", "csv"
        )
        assert result.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cycle,step_label,dS,dW,cum_dS"
        assert len(lines) == 5


class TestExitContract:
    def test_usage_error_unknown_flag(self):
        result = run_cli("szilard", "--cycels", "10")
        assert result.returncode == 2

    def test_usage_error_missing_scenario(self):
        result = run_cli()
        assert result.returncode == 2

    def test_usage_error_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        result = run_cli("szilard", "--config", str(cfg))
        assert result.returncode == 2
        assert "unknown config key" in result.stderr

    def test_scenario_failure_asymmetric_rates(self, tmp_path):
        rates = tmp_path / "rates.txt"
        rates.write_text("0 1\n2 0\n")
        result = run_cli("h-theorem", "--rates-file", str(rates))
        assert result.returncode == 1
        assert "symmetric" in result.stderr

    def test_env_seed_respected_end_to_end(self, tmp_path):
        out = tmp_path / "r.json"
        result = run_cli(
            "szilard", "--cycles", "3", "--output", str(out),
            env_extra={"DEMONLAB_SEED": "31"},
        )
        assert result.returncode == 0
        assert json.loads(out.read_text())["seed"] == 31


#: Inputs whose derived quantities leave float64 range, and the names their
#: error line must carry, by test id.
NAMED_ERRORS = {
    "box-length-subnormal": (["qiur", "--box-length", "1e-320"], ["length"]),
    "box-length-overflow": (["qiur", "--box-length", "1e308"], ["length"]),
    "szilard-length-overflow": (["szilard", "--length", "1e308"], ["length_L"]),
    "szilard-length-subnormal": (["szilard", "--length", "1e-320"], ["length_L"]),
    "p-rms-overflow": (["speed-demon", "--mass", "1e300", "--temperature", "1e300"],
                       ["temperature_T", "mass_m", "UnitSystem"]),
}


class TestErrorsAtSource:
    @pytest.mark.parametrize(
        "argv, filename, content",
        [
            (["h-theorem", "--rates-file"], "rates.json", '{"rates": "abc"}'),
            (["h-theorem", "--rates-file"], "rates.json", '{"rates": [[0, 1], [1]]}'),
            (["h-theorem", "--states", "3", "--p0", "0.5,0.5"], None, None),
            (["qiur", "--input"], "psi.csv", "x,re,im\n0,1,0\n1,1\n2,1,0\n"),
            (["qiur", "--sigma-x", "1e-300"], None, None),
            (["h-theorem", "--rates-file"], "rates.txt", "0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n"),
            (["brownian", "--step-law", "gaussian", "--sigma-step", "1e200", "--steps", "2"],
             None, None),
            (["brownian", "--step-law", "gaussian", "--sigma-step", "1e-170"], None, None),
            (["fgr", "--gamma", "1e-320"], None, None),
            (["h-theorem", "--t-max", "1e300"], None, None),
            (["speed-demon", "--temperature", "1e-320"], None, None),
            (["speed-demon", "--h", "1e-300"], None, None),
            (["qiur", "--input"], "psi.csv", "x,re,im\n0,0,0\n1,0,0\n2,0,0\n"),
            (["qiur", "--input"], "psi.csv", "x,re,im\n0,1e200,0\n1,1e200,0\n"),
            *((argv, None, None) for argv, _names in NAMED_ERRORS.values()),
        ],
        ids=[
            "rates-not-numeric", "rates-ragged", "p0-wrong-length", "csv-short-row",
            "sigma-x-underflow", "rates-disconnected", "sigma-step-overflow",
            "sigma-step-underflow", "gamma-subnormal", "t-max-overflow", "temperature-subnormal",
            "h-underflow", "csv-zero", "csv-norm-overflow", *NAMED_ERRORS,
        ],
    )
    def test_one_error_line_and_exit_1(self, argv, filename, content, tmp_path, capsys):
        if filename:
            path = tmp_path / filename
            path.write_text(content)
            argv = [*argv, str(path)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"demonlab {argv[0]}: error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, names", NAMED_ERRORS.values(), ids=NAMED_ERRORS)
    def test_error_line_names_the_inputs(self, argv, names, capsys):
        assert cli.main(argv) == 1
        line = capsys.readouterr().err
        assert all(name in line for name in names), line


class TestCost:
    def test_no_scenario_imports_scipy(self, tmp_path):
        # The CLI imports a scenario's module, and numpy, only when it runs;
        # no scenario needs scipy (markov.evolve and the brownian histogram
        # import it on first use).
        rates = tmp_path / "rates.json"
        rates.write_text('{"rates": [[0, 1, 0], [1, 0, 2], [0, 2, 0]]}')
        scenarios = [
            ["szilard"], ["qiur", "--grid-n", "256"], ["fgr"], ["einstein"], ["speed-demon"],
            ["h-theorem"], ["h-theorem", "--rates-file", str(rates)], ["brownian"],
        ]
        code = (
            "import contextlib, io, sys, demonlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
            f"for argv in {scenarios!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert demonlab.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "[]"]

    def test_h_theorem_decomposes_once(self, monkeypatch):
        from demonlab import markov

        calls = []
        eigh = markov.eigh

        def counted_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(markov, "eigh", counted_eigh)
        args = cli.build_parser().parse_args(["h-theorem", "--states", "12"])
        report = cli.run(cli.resolve_config("h-theorem", args))
        assert all(report["verdicts"].values())
        assert calls == [(12, 12)]


class TestReproducibility:
    def test_byte_identical_reports_excluding_wall_time(self, tmp_path):
        # identical invocation twice, including the output path in the config
        out = tmp_path / "r.json"
        args = ["einstein", "--trials", "20000", "--seed", "5", "--output", str(out)]
        assert run_cli(*args).returncode == 0
        body_a = out.read_text()
        assert run_cli(*args).returncode == 0
        body_b = out.read_text()
        assert strip_wall_time(body_a).encode() == strip_wall_time(body_b).encode()
        assert body_a != ""

    def test_stable_key_ordering(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("szilard", "--output", str(out))
        keys = list(json.loads(out.read_text()))
        assert keys == sorted(keys)
