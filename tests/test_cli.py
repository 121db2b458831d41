"""CLI contract: precedence, report schema, exit codes, reproducibility."""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from demonlab import brownian, cli, fgr, fluctuations, markov, qiur, speed_demon, szilard
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
        assert config.values["cycles"] == 1
        assert config.values["seed"] == 0
        assert config.values["temperature"] == 1.0

    def test_flags_win(self, monkeypatch):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        ns = _namespace("szilard", cycles="10", seed="7")
        config = cli.resolve_config("szilard", ns)
        assert config.scenario == "szilard"
        assert config.values["cycles"] == 10
        assert config.values["seed"] == 7

    def test_config_file_between_flags_and_defaults(self, monkeypatch, tmp_path):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature = 300  # bath\ncycles = 4\n")
        ns = _namespace("szilard", config=str(cfg), temperature="150")
        config = cli.resolve_config("szilard", ns)
        assert config.values["temperature"] == 150.0  # flag beats file
        assert config.values["cycles"] == 4  # file beats default

    def test_env_seed_lowest_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEMONLAB_SEED", "99")
        config = cli.resolve_config("szilard", _namespace("szilard"))
        assert config.values["seed"] == 99
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 55\n")
        config = cli.resolve_config("szilard", _namespace("szilard", config=str(cfg)))
        assert config.values["seed"] == 55
        ns = _namespace("szilard", config=str(cfg), seed="7")
        assert cli.resolve_config("szilard", ns).values["seed"] == 7

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

    @pytest.mark.parametrize(
        "argv",
        [["h-theorem", "--t-max", "1e300"], ["h-theorem", "--states", "4", "--t-max", "1e20"]],
        ids=["t-max-1e300", "states-4-t-max-1e20"],
    )
    def test_h_theorem_long_horizon_ends_at_the_uniform_equilibrium(self, argv, capsys):
        # exp(w t) of an unsnapped zero eigenvalue once drained or overflowed these runs
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(report["verdicts"].values()), report["verdicts"]
        n = report["derived"]["n_states"]
        assert report["derived"]["S_final"] == pytest.approx(math.log(n), rel=0.0, abs=1e-12)
        assert report["derived"]["terminal_dist"] <= 1e-12

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
        usage, error = result.stderr.splitlines()  # argparse's own, with no traceback
        assert usage.startswith("usage: demonlab ")
        assert error == "demonlab: error: the following arguments are required: scenario"
        assert result.stdout == ""

    def test_missing_scenario_exits_as_every_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        assert "demonlab: error:" in capsys.readouterr().err

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


WAVEFN = str(Path(__file__).with_name("golden") / "wavefn.csv")
RATES = str(Path(__file__).with_name("golden") / "rates.json")

#: Inputs whose derived quantities leave float64 range, or that set a key away from
#: its default where the chosen branch never reads it, and the names their error
#: line must carry, by test id.
NAMED_ERRORS = {
    "box-length-subnormal": (["qiur", "--box-length", "1e-320"], ["length"]),
    "box-length-overflow": (["qiur", "--box-length", "1e308"], ["length"]),
    "box-entropy-overflow-small": (["qiur", "--box-length", "1e-305"], ["length"]),
    "box-entropy-overflow-large": (["qiur", "--box-length", "1e307"], ["length"]),
    "szilard-length-overflow": (["szilard", "--length", "1e308"], ["length_L"]),
    "szilard-length-subnormal": (["szilard", "--length", "1e-320"], ["length_L"]),
    "p-rms-overflow": (["speed-demon", "--mass", "1e300", "--temperature", "1e300"],
                       ["temperature_T", "mass_m", "UnitSystem"]),
    "cycles-huge": (["szilard", "--cycles", str(10**20)], ["n_cycles"]),
    "cycles-over-limit": (["szilard", "--cycles", str(szilard.MAX_CYCLES + 1)], ["n_cycles"]),
    "steps-huge": (["brownian", "--steps", str(10**11)], ["n_steps"]),
    "walkers-huge": (["brownian", "--steps", "1", "--walkers", str(10**11)], ["n_walkers"]),
    "info-fraction-unread": (["einstein", "--info-fraction", "5", "--trials", "0"],
                             ["info_fraction"]),
    "info-fraction-in-range-unread": (["einstein", "--info-fraction", "0.5"], ["info_fraction"]),
    "energy-without-frequency": (["einstein", "--energy", "5"], ["energy"]),
    "frequency-without-energy": (["einstein", "--frequency", "5"], ["frequency"]),
    "n-components-with-radiation": (["einstein", "--energy", "5", "--frequency", "1",
                                     "--n-components", "2"], ["n_components"]),
    "input-with-sigma-x-and-grid-n": (["qiur", "--input", WAVEFN, "--sigma-x", "3",
                                       "--grid-n", "128"], ["sigma_x", "grid_n"]),
    "input-with-box-length": (["qiur", "--input", WAVEFN, "--box-length", "2"], ["box_length"]),
    "box-length-with-sigma-x": (["qiur", "--box-length", "2", "--sigma-x", "3"], ["sigma_x"]),
    "states-with-rates-file": (["h-theorem", "--rates-file", RATES, "--states", "9"], ["states"]),
    "ratio-with-nu-low": (["speed-demon", "--nu-low", "0.01", "--ratio", "5", "--attempts",
                           "100"], ["ratio"]),
    "sigma-step-under-plus-minus-one": (["brownian", "--sigma-step", "3"], ["sigma_step"]),
    "k-under-si": (["szilard", "--si", "--k", "-1"], ["k set but not read with si"]),
    "h-nan-under-si": (["szilard", "--si", "--h", "nan"], ["h set but not read with si"]),
    "format-without-output": (["fgr", "--format", "csv", "--samples", "1000"],
                              ["format set but not read without output"]),
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
            (["speed-demon", "--temperature", "1e-320"], None, None),
            (["speed-demon", "--h", "1e-300"], None, None),
            (["qiur", "--input"], "psi.csv", "x,re,im\n0,0,0\n1,0,0\n2,0,0\n"),
            (["qiur", "--input"], "psi.csv", "x,re,im\n0,1e200,0\n1,1e200,0\n"),
            (["qiur", "--grid-n", "0"], None, None),
            (["qiur", "--box-length", "1", "--grid-n", "0"], None, None),
            (["qiur", "--box-length", "2", "--config"], "qiur.cfg", "sigma_x = 3\n"),
            (["h-theorem", "--rates-file"], "rates.json",
             '{"rates": [[0, 1e300, 1e-300], [1e300, 0, 0], [1e-300, 0, 0]]}'),
            (["qiur", "--input"], "psi.csv",
             "x,re,im\n" + "".join(f"{i * 5e-324!r},1,0\n" for i in range(64))),
            (["qiur", "--input"], "psi.csv",
             "x,re,im\n" + "".join(f"{i},1,{'inf' if i == 3 else 0}\n" for i in range(64))),
            *((argv, None, None) for argv, _names in NAMED_ERRORS.values()),
        ],
        ids=[
            "rates-not-numeric", "rates-ragged", "p0-wrong-length", "csv-short-row",
            "sigma-x-underflow", "rates-disconnected", "sigma-step-overflow",
            "sigma-step-underflow", "gamma-subnormal", "temperature-subnormal",
            "h-underflow", "csv-zero", "csv-norm-overflow", "grid-n-zero", "box-grid-n-zero",
            "config-key-unread", "rates-gap-rounded-to-zero", "csv-spacing-subnormal",
            "csv-im-infinite", *NAMED_ERRORS,
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

    @pytest.mark.parametrize(
        "argv, filename, content, code",
        [
            (["fgr", "--config"], "fgr.cfg", b"\xff\xfeseed = 1\n", 2),
            (["h-theorem", "--rates-file"], "rates.json", b'\xff\xfe{"rates": [[0, 1]]}', 1),
            (["h-theorem", "--rates-file"], "rates.json", b'{"rates": ' + b"[" * 10**5, 1),
            (["h-theorem", "--rates-file"], "rates.txt", b"", 1),
            (["qiur", "--input"], "psi.csv", b"x,re,im\n" + b"1" * 140_000 + b",0,0\n", 1),
        ],
        ids=["config-not-utf8", "json-not-utf8", "json-nested-1e5", "text-empty", "csv-long-field"],
    )
    def test_an_unreadable_file_ends_in_one_line_naming_it(
        self, argv, filename, content, code, tmp_path, capsys
    ):
        path = tmp_path / filename
        path.write_bytes(content)
        assert cli.main([*argv, str(path)]) == code  # pytest turns each warning into an error
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        prefix = "demonlab: error: " if code == 2 else f"demonlab {argv[0]}: error: "
        assert lines[0].startswith(prefix) and str(path) in lines[0], lines

    @pytest.mark.parametrize("argv, names", NAMED_ERRORS.values(), ids=NAMED_ERRORS)
    def test_error_line_names_the_inputs(self, argv, names, capsys):
        assert cli.main(argv) == 1
        line = capsys.readouterr().err
        assert all(name in line for name in names), line

    def test_the_seed_and_common_keys_at_their_defaults_are_read(self, capsys):
        # the report carries the seed, so a deterministic scenario still takes --seed
        for argv in (["qiur", "--seed", "3", "--grid-n", "64"],
                     ["fgr", "--format", "json", "--samples", "1000"],
                     ["szilard", "--si", "--k", "1", "--h", "1.0"]):
            assert cli.main(argv) == 0, capsys.readouterr().err

    def test_grid_size_is_checked_before_the_spacing(self, capsys):
        lines = []
        for argv in (["qiur", "--grid-n", "0"], ["qiur", "--box-length", "1", "--grid-n", "0"],
                     ["qiur", "--grid-n", "63"]):
            assert cli.main(argv) == 1
            lines.append(capsys.readouterr().err)
        assert lines == [
            f"demonlab qiur: error: grid points must be in [64, 4194304], got {n}\n"
            for n in (0, 0, 63)
        ]


class NumpyTripwire:
    """Stands in for a module's numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was reached")


#: Each scenario's count range: the module that checks it and whose numpy must
#: not run outside it, the argv without the count, the count's flag, the least and
#: the largest count, and the name the error line carries.
COUNT_LIMITS = {
    "qiur-packet": (qiur, ["qiur"], "--grid-n", qiur.MIN_GRID_POINTS, qiur.MAX_GRID_POINTS,
                    "grid"),
    "qiur-box": (qiur, ["qiur", "--box-length", "1"], "--grid-n", qiur.MIN_GRID_POINTS,
                 qiur.MAX_GRID_POINTS, "grid"),
    "fgr": (fgr, ["fgr"], "--samples", 1, fgr.MAX_SAMPLES, "n_samples"),
    "speed-demon": (speed_demon, ["speed-demon"], "--attempts", 1, speed_demon.MAX_ATTEMPTS,
                    "n_attempts"),
    "einstein": (fluctuations, ["einstein"], "--trials", fluctuations.MC_MIN_TRIALS,
                 fluctuations.MC_MAX_TRIALS, "trials"),
    "h-theorem": (markov, ["h-theorem"], "--states", 2, markov.MAX_STATES, "n_states"),
}


class TestCounts:
    @pytest.mark.parametrize("module, argv, flag, least, most, name", COUNT_LIMITS.values(),
                             ids=COUNT_LIMITS)
    def test_a_count_outside_the_range_ends_before_any_array(
        self, module, argv, flag, least, most, name, monkeypatch, capsys
    ):
        monkeypatch.setattr(module, "np", NumpyTripwire())
        for count, limit in ((least - 1, least), (most + 1, most)):
            assert cli.main([*argv, flag, str(count)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"demonlab {argv[0]}: error: ")
            assert name in lines[0] and str(limit) in lines[0], lines[0]

    @pytest.mark.parametrize("module, argv, flag, least, most, name", COUNT_LIMITS.values(),
                             ids=COUNT_LIMITS)
    def test_the_least_and_largest_counts_pass_the_check(
        self, module, argv, flag, least, most, name, monkeypatch
    ):
        # past the check the scenario's numpy runs, and the tripwire stops it there
        monkeypatch.setattr(module, "np", NumpyTripwire())
        for count in (least, most):
            with pytest.raises(AssertionError, match="numpy"):
                cli.main([*argv, flag, str(count)])

    def test_einstein_negative_trials_exit_1(self, capsys):
        assert cli.main(["einstein", "--trials", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "demonlab einstein: error: n_trials must be in [10000, 10000000], got -5\n"
        )

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_h_theorem_fewer_than_two_samples_exit_1(self, samples, capsys):
        assert cli.main(["h-theorem", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "demonlab h-theorem: error: "
            f"samples at 6 states must be in [2, 1666666], got {samples}\n"
        )

    @pytest.mark.parametrize("states, most", [(6, 1_666_666), (2000, 5000)])
    def test_h_theorem_samples_times_states_is_bounded(self, states, most, monkeypatch, capsys):
        assert markov.MAX_TRAJECTORY_SIZE == 10**7
        argv = ["h-theorem", "--states", str(states), "--t-max", "1", "--samples"]
        for samples in (most + 1, 10**11):
            assert cli.main([*argv, str(samples)]) == 1
            assert capsys.readouterr().err == (
                f"demonlab h-theorem: error: samples at {states} states must be in "
                f"[2, {most}], got {samples}\n"
            )

        def stop(rates, p0, grid, units):
            raise AssertionError(f"verify_h_theorem reached with {grid.size} samples")

        monkeypatch.setattr(markov, "verify_h_theorem", stop)
        with pytest.raises(AssertionError, match=f"with {most} samples"):
            cli.main([*argv, str(most)])

    def test_a_walk_of_too_many_draws_ends_before_any_array(self, monkeypatch, capsys):
        monkeypatch.setattr(brownian, "np", NumpyTripwire())
        assert cli.main(["brownian", "--steps", str(10**7), "--walkers", str(10**7)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "demonlab brownian: error: n_steps * n_walkers must be in [1, 1000000000], "
            "got 100000000000000\n"
        )

    def test_h_theorem_samples_every_requested_time(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        argv = ["h-theorem", "--samples", "2", "--format", "csv", "--output", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["samples"] == 2
        assert len(out.read_text().splitlines()) == 3


class TestCost:
    def test_no_scenario_imports_scipy(self, tmp_path):
        # The CLI imports a scenario's module, and numpy, only when it runs;
        # the library never needs scipy: not the scenarios, not markov.evolve,
        # not the brownian histogram, whose Gaussian CDF comes from math.erfc.
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
            "from demonlab import brownian, markov\n"
            "rates = markov.RateMatrix([[0, 1], [1, 0]])\n"
            "assert markov.evolve(markov.ProbDist([1.0, 0.0]), rates, 0.5).p[0] > 0.5\n"
            "spec = brownian.WalkSpec(n_steps=30, n_walkers=100_000, rng_seed=1)\n"
            "assert brownian.histogram_vs_gaussian(spec, 30).expected.sum() > 0\n"
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


def _main_outcome(argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout less wall_time_s, and stderr of one in-process main(argv)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, strip_wall_time(out), err


class TestParserReuse:
    BATCH = [
        ["h-theorem", "--states", "8"],
        ["szilard", "--no-such-flag"],
        ["--help"],
        ["h-theorem", "--help"],
        ["--version"],
        ["szilard", "--cycles", "3"],
        ["h-theorem", "--states", "8"],  # state left by the first call would show here
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_answers_as_a_fresh_one(self, monkeypatch, capsys):
        help_before = cli.build_parser().format_help()
        reused = [_main_outcome(argv, capsys) for argv in self.BATCH]
        assert cli.build_parser().format_help() == help_before
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_main_outcome(argv, capsys) for argv in self.BATCH]
        assert [code for code, _out, _err in reused] == [0, 2, 0, 0, 0, 0, 0]
        assert reused == fresh


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


#: Inputs whose momentum grid leaves float64 range; each error line names h (the
#: UnitSystem) and the position spacing.
MOMENTUM_GRID_ERRORS = {
    "box-si": ["qiur", "--box-length", "1e280", "--si"],
    "box-tiny-h": ["qiur", "--box-length", "1e20", "--h", "1e-300"],
    "small-box-huge-h": ["qiur", "--box-length", "1e-280", "--h", "1e300"],
    "csv-subnormal-h": ["qiur", "--input", WAVEFN, "--h", "1e-320"],
}

#: Escapes that a fuzzed argv once found: each now ends in one error line.
FUZZ_FINDINGS = {
    "einstein-n-overflow": ["einstein", "--energy", "1e20", "--frequency", "5e-324"],
    "einstein-h-nu-underflow": ["einstein", "--energy", "300", "--frequency", "1e-300",
                                "--h", "1e-30"],
    "h-theorem-huge-k": ["h-theorem", "--k", "1.7976931348623157e308"],
    "h-theorem-inf-t-max": ["h-theorem", "--t-max", "inf"],
    "qiur-subnormal-hbar": ["qiur", "--h", "5e-324"],
    "qiur-hbar-below-1-over-max": ["qiur", "--h", "2.2250738585072014e-308"],
    "qiur-half-span-overflow": ["qiur", "--sigma-x", "5e153"],
    "speed-demon-ratio-h-underflow": ["speed-demon", "--si", "--ratio", "1e-300"],
    "speed-demon-probe-spread-underflow": ["speed-demon", "--mass", "5e-324", "--nu-low", "1e-300"],
    "speed-demon-door-underflow": ["speed-demon", "--h", "2.2250738585072014e-308",
                                   "--temperature", "1e300", "--nu-low", "500", "--door", "1"],
    "szilard-net-work-overflow": ["szilard", "--cycles", "3", "--temperature", "1e308"],
    "einstein-brillouin-gas-overflow": ["einstein", "--brillouin-b", "1", "--info-fraction",
                                        "0.9999999999999999", "--k", "1e307", "--trials", "0"],
}

#: Zero-means-unset keys: the argv that reads each, and a value below zero. Such a value, or
#: NaN, once ran as if unset and exited 0; now its one error line names the key.
UNSET_SENTINELS = {
    "brillouin_b": (["einstein"], "-5"),
    "energy": (["einstein"], "-1"),
    "frequency": (["einstein"], "-1"),
    "door": (["speed-demon"], "-1"),
    "nu_low": (["speed-demon"], "-3"),
    "box_length": (["qiur"], "-1"),
    "t_max": (["h-theorem"], "-2"),
}


def setting(key: str, value: str) -> list[str]:
    """The argv of UNSET_SENTINELS that sets key to value."""
    return [*UNSET_SENTINELS[key][0], "--" + key.replace("_", "-"), value]


SENTINEL_FINDINGS = {
    f"{argv[0]}-{kind}-{key.replace('_', '-')}": (key, setting(key, value))
    for key, (argv, negative) in UNSET_SENTINELS.items()
    for kind, value in (("negative", negative), ("nan", "nan"))
}
FUZZ_FINDINGS.update({name: argv for name, (_key, argv) in SENTINEL_FINDINGS.items()})


class TestMomentumGridAndFuzzFindings:
    @pytest.mark.parametrize("argv", MOMENTUM_GRID_ERRORS.values(), ids=MOMENTUM_GRID_ERRORS)
    def test_momentum_grid_error_names_h_and_the_spacing(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("demonlab qiur: error: ")
        assert "UnitSystem(" in lines[0] and "h=" in lines[0], lines[0]
        assert "position spacing" in lines[0], lines[0]

    @pytest.mark.parametrize("name, argv", FUZZ_FINDINGS.items(), ids=FUZZ_FINDINGS)
    def test_fuzz_finding_ends_in_one_error_line(self, name, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"demonlab {argv[0]}: error: "), lines
        if name in SENTINEL_FINDINGS:
            assert f": error: {SENTINEL_FINDINGS[name][0]} must be " in lines[0], lines[0]

    @pytest.mark.parametrize("key", UNSET_SENTINELS)
    def test_zero_still_means_unset(self, key, capsys):
        results = []
        for argv in (UNSET_SENTINELS[key][0], setting(key, "0"), setting(key, "-0.0")):
            code = cli.main(argv)
            report = json.loads(capsys.readouterr().out)
            results.append((code, report["derived"], report["verdicts"]))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("argv", [["qiur", "--h", "1e308"],
                                      ["qiur", "--input", WAVEFN, "--h", "1e307"]],
                             ids=["huge-h", "csv-huge-h"])
    def test_huge_h_satisfies_the_bound(self, argv, capsys):
        # the report forms no origin phase, so nothing in it leaves float64 range
        assert cli.main(argv) == 0
        derived = json.loads(capsys.readouterr().out)["derived"]
        assert all(math.isfinite(derived[key]) for key in ("I_x", "I_p", "joint"))
        assert derived["joint"] >= derived["bound"] - 1e-3

    def test_box_length_1e307_is_still_refused(self, capsys):
        assert cli.main(["qiur", "--box-length", "1e307"]) == 1
        assert "length = 1e+307" in capsys.readouterr().err

    def test_box_guard_uses_the_real_h(self, capsys):
        # at h = 1 the momentum entropy sum of this box overflows; at h = 10 it is finite
        assert cli.main(["qiur", "--box-length", "1e305"]) == 1
        assert "h=1.0" in capsys.readouterr().err
        assert cli.main(["qiur", "--box-length", "1e305", "--h", "10"]) == 0
        derived = json.loads(capsys.readouterr().out)["derived"]
        assert all(math.isfinite(derived[key]) for key in ("I_x", "I_p", "joint", "bound"))


SEEDED_SCENARIOS = ["h-theorem", "fgr", "szilard", "speed-demon", "einstein", "brownian"]


class TestNegativeSeed:
    def _assert_usage_error(self, code, capsys, name):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("demonlab: error: "), lines
        assert name in lines[0]

    @pytest.mark.parametrize("scenario", SEEDED_SCENARIOS)
    def test_flag(self, scenario, monkeypatch, capsys):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        self._assert_usage_error(cli.main([scenario, "--seed", "-1"]), capsys, "seed")

    @pytest.mark.parametrize("scenario", SEEDED_SCENARIOS)
    def test_environment_variable(self, scenario, monkeypatch, capsys):
        monkeypatch.setenv("DEMONLAB_SEED", "-1")
        self._assert_usage_error(cli.main([scenario]), capsys, "seed")

    @pytest.mark.parametrize("scenario", SEEDED_SCENARIOS)
    def test_config_key(self, scenario, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("DEMONLAB_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        self._assert_usage_error(cli.main([scenario, "--config", str(cfg)]), capsys, "seed")

    def test_a_flag_overrides_a_negative_environment_seed(self, monkeypatch):
        monkeypatch.setenv("DEMONLAB_SEED", "-1")
        ns = _namespace("szilard", seed="3")
        assert cli.resolve_config("szilard", ns).values["seed"] == 3


def _unread_messages(path: Path) -> list[str]:
    """Where a module builds the `set but not read` message: each enclosing function, innermost."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "set but not read" in str(node.value):
            around = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            name = max(around, key=lambda f: f.lineno).name if around else "<module>"
            found.append(f"{path.stem}.{name}")
    return found


def test_only_cli_run_refuses_an_unread_key():
    src = Path(cli.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 11
    assert [where for path in modules for where in _unread_messages(path)] == ["cli.run"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--energy", "5"], "energy set but not read if energy or frequency is 0"),
        (["--frequency", "5", "--info-fraction", "0.5"],
         "frequency set but not read if energy or frequency is 0; "
         "info_fraction set but not read without brillouin_b"),
        (["--energy", "5", "--frequency", "1", "--n-components", "2"],
         "n_components set but not read with energy and frequency"),
    ],
    ids=["energy", "frequency-and-info-fraction", "n-components"],
)
def test_each_unread_einstein_key_names_the_one_decision_that_skipped_it(argv, line, capsys):
    assert cli.main(["einstein", *argv]) == 1
    assert capsys.readouterr() == ("", f"demonlab einstein: error: {line}\n")
