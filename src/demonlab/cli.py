"""demonlab command line: one subcommand per scenario, reproducible reports.

Precedence for every parameter is flags > config file > defaults, with the
environment variable DEMONLAB_SEED as the lowest-precedence seed source.
Config files are flat `key = value` text with `#` comments; unknown keys
are hard errors. Reports are JSON with stable key ordering, so two runs
with the same effective config and seed emit byte-identical bodies apart
from the wall_time_s field. Exit status: 0 when every scenario verdict
passes, 1 on scenario failure or error, 2 on usage errors.

The CLI parses, imports the scenario's module (and numpy) only when that
scenario runs, runs it and emits. SCENARIOS holds each scenario's runner and
keys, whose defaults give their types; resolve_config gives the Params that
run takes. A runner reads the keys its branch uses, yields {key: the decision
that skips it}, then works; in between, run alone refuses each key set away
from its default that went unread. The scenario's module builds each verdict
as a reporting.Check, and run writes its passed bool. A table report defines
its CSV columns (CSV_HEADER, to_rows); others write kv_rows of derived values.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator

from . import __version__
from .errors import DemonlabError, InvalidInputError, require_count, require_positive
from .reporting import KV_HEADER, Check, json_dumps, kv_rows, write_csv, write_json
from .units import UnitSystem


class UsageError(Exception):
    """Bad invocation: unknown key, type mismatch, malformed config."""


#: key -> default, whose type is the key's (so 1.0, not 1, for a float); shared by every scenario.
COMMON_PARAMS: dict[str, Any] = {
    "seed": 0,
    "k": 1.0,
    "h": 1.0,
    "si": False,
    "output": "",
    "format": "json",
}

_BOOL_STRINGS = {
    "true": True, "1": True, "yes": True,
    "false": False, "0": False, "no": False,
}


def _param_table(scenario: str) -> dict[str, Any]:
    return {**COMMON_PARAMS, **SCENARIOS[scenario][1]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared by every call: callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="demonlab",
        description="Desk-scale Second-Law experiments: relaxation, uncertainty, demons.",
    )
    parser.add_argument("--version", action="version", version=f"demonlab {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", default=None, help="flat key = value config file")
        for key, default in _param_table(name).items():
            flag = "--" + key.replace("_", "-")
            if type(default) is bool:
                sp.add_argument(flag, dest=key, action="store_const", const="true", default=None)
            else:
                sp.add_argument(flag, dest=key, type=str, default=None)
    return parser


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment; duplicates are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in out:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _coerce(key: str, raw: str, typ: type) -> Any:
    if typ is bool:
        low = raw.strip().lower()
        if low not in _BOOL_STRINGS:
            raise UsageError(f"key {key!r}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[low]
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"key {key!r}: expected {typ.__name__}, got {raw!r}") from exc


def resolve_config(scenario: str, args: argparse.Namespace) -> Params:
    """Apply the precedence flags > config file > DEMONLAB_SEED > defaults."""
    table = _param_table(scenario)
    params = dict(table)

    env_seed = os.environ.get("DEMONLAB_SEED")
    if env_seed is not None:
        params["seed"] = _coerce("DEMONLAB_SEED", env_seed, int)

    if args.config:
        cfg = parse_config_file(args.config)
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise UsageError(f"unknown config key(s) for {scenario}: {', '.join(unknown)}")
        for key, raw in cfg.items():
            params[key] = _coerce(key, raw, type(table[key]))

    for key, default in table.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = _coerce(key, flag_value, type(default))

    if params["format"] not in ("json", "csv"):
        raise UsageError(f"format must be json or csv, got {params['format']!r}")
    if params["seed"] < 0:  # numpy seeds take nonnegative integers only
        raise UsageError(f"seed must be >= 0, got {params['seed']}")
    return Params(scenario, params)


@dataclass
class Params:
    """A scenario's parameters, recording each key read by []; reading .values records none."""

    scenario: str
    values: dict[str, Any]
    read: set[str] = field(default_factory=set)

    def __getitem__(self, key: str) -> Any:
        self.read.add(key)
        return self.values[key]


#: Yields {key: the decision that skips it}, then returns (derived, checks, table or None).
Run = Generator[dict[str, str], None, tuple[dict[str, Any], dict[str, Check], Any]]


def _run_h_theorem(params: Params, units: UnitSystem, seed: int) -> Run:
    import numpy as np

    from . import markov

    rates_file, p0_text, samples = params["rates_file"], params["p0"], params["samples"]
    states, t_max = None if rates_file else params["states"], params["t_max"]
    yield {"states": "with rates_file"}
    rng = np.random.default_rng(seed)
    if rates_file.endswith(".json"):
        rates = markov.rate_matrix_from_json(rates_file)
    elif rates_file:
        rates = markov.rate_matrix_from_text(rates_file)
    else:
        rates = markov.random_symmetric_rates(states, rng)
    n = rates.n
    samples = require_count(f"samples at {n} states", samples, 2, markov.MAX_TRAJECTORY_SIZE // n)

    if p0_text:
        try:
            values = np.array([float(v) for v in p0_text.split(",")])
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse p0: {exc}") from exc
        p0 = markov.ProbDist(values)
    else:
        draw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(draw / draw.sum())

    t_max = require_positive("t_max", t_max, least=0.0) or 25.0 / markov.spectral_gap(rates)
    grid = np.linspace(0.0, require_positive("t_max", t_max), samples)
    report = markov.verify_h_theorem(rates, p0, grid, units)
    derived = {
        "n_states": n,
        "S_initial": report.entropy[0],
        "S_final": report.entropy[-1],
        "S_max": markov.max_entropy(n, units),
        "terminal_dist": report.terminal_dist,
        "min_production": report.min_production,
        "t_max": t_max,
    }
    return derived, report.verdicts(), report


def _run_fgr(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import fgr

    gamma, samples = params["gamma"], params["samples"]
    yield {}
    sample = fgr.simulate_decay(gamma, samples, seed)
    derived = {
        "gamma": sample.gamma,
        "lifetime": 1.0 / sample.gamma,
        "mean_waiting_time": sample.mean_waiting_time(),
        "checks": [{"t": t, "empirical": c.value, "analytic": c.expected, "tol_3sigma": c.tolerance}
                   for t, c in sample.survival_checks.items()],
    }
    return derived, sample.verdicts(), sample


def _run_qiur(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import qiur

    if path := params["input"]:
        yield dict.fromkeys(("sigma_x", "box_length", "grid_n"), "with input")
        psi = qiur.wavefunction_from_csv(path)
    elif (box_length := require_positive("box_length", params["box_length"], least=0.0)) > 0:
        n = params["grid_n"]
        yield {"sigma_x": "with box_length"}
        psi = qiur.box_ground_state(box_length, n=n, units=units)
    else:
        sigma_x, n = params["sigma_x"], params["grid_n"]
        yield {}
        psi = qiur.gaussian_packet(sigma_x, n=n)
    report = qiur.entropy_report(psi, units)
    return report, qiur.verdicts(report), None


def _run_szilard(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import szilard

    box = szilard.EngineBox(params["length"], params["temperature"], params["mass"])
    cycles, convention = params["cycles"], params["convention"]
    yield {}
    ledger = szilard.run_cycle(box, cycles, seed, units, convention=convention)
    derived = {
        "cycles": cycles,
        "insertion_dS": ledger.insertion_dS,
        "net_dS": ledger.net_entropy(),
        "net_work": ledger.net_work(),
        "work_per_cycle": ledger.net_work() / cycles,
        "sides": "".join(s[0] for s in ledger.sides),
    }
    return derived, ledger.verdicts(), ledger


def _run_speed_demon(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import speed_demon

    gas = speed_demon.GasSpec(temperature_T=params["temperature"], mass_m=params["mass"])
    if (nu_low := require_positive("nu_low", params["nu_low"], least=0.0)) > 0:
        probe = speed_demon.ProbeSpec(nu_low)
    else:
        probe = speed_demon.ProbeSpec.from_energy_ratio(gas, params["ratio"], units)
    door, attempts = require_positive("door", params["door"], least=0.0), params["attempts"]
    yield {"ratio": "with nu_low"}
    door = door or speed_demon.max_door_size(speed_demon.rms_momentum(gas, units), units)
    report = speed_demon.simulate_sorting(
        gas, probe, speed_demon.SortingGeometry(door), attempts, seed, units
    )
    return asdict(report), report.verdicts(), None


def _run_einstein(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import fluctuations as fluct

    ratio, trials = params["volume_ratio"], params["trials"]
    energy = require_positive("energy", params.values["energy"], least=0.0)
    frequency = require_positive("frequency", params.values["frequency"], least=0.0)
    if energy > 0 and frequency > 0:
        energy, frequency = params["energy"], params["frequency"]
        spec = fluct.FluctuationSpec.from_radiation(energy, frequency, ratio, units)
    else:
        spec = fluct.FluctuationSpec(params["n_components"], ratio)
    b = require_positive("brillouin_b", params["brillouin_b"], least=0.0)
    brillouin = fluct.BrillouinSpec(b, params["info_fraction"]) if b > 0 else None
    yield {"n_components": "with energy and frequency", "info_fraction": "without brillouin_b",
           **dict.fromkeys(("energy", "frequency"), "if energy or frequency is 0")}
    derived, verdicts = fluct.fluctuation_report(spec, trials, seed, brillouin, units)
    return derived, verdicts, None


def _run_brownian(params: Params, units: UnitSystem, seed: int) -> Run:
    from . import brownian

    law = params["step_law"]
    sigma = {} if law == brownian.STEP_PLUS_MINUS_ONE else {"sigma_step": params["sigma_step"]}
    spec = brownian.WalkSpec(params["steps"], params["walkers"], seed, law, **sigma)
    yield {"sigma_step": "under the +-1 step law"}
    report = brownian.simulate_walks(spec)
    derived = {
        "msd_final": report.msd[-1],
        "msd_expected": report.msd_expected,
        "mean_final": report.mean_displacement[-1],
        "fitted_D": report.fitted_D,
        "analytic_D": report.analytic_D,
        "r_squared": report.r_squared,
    }
    return derived, report.verdicts(), report


#: scenario -> (runner, {key: default}), beside COMMON_PARAMS.
SCENARIOS: dict[str, tuple[Callable[..., Run], dict[str, Any]]] = {
    "h-theorem": (_run_h_theorem, {
        "states": 6,
        "rates_file": "",
        "p0": "",
        "t_max": 0.0,
        "samples": 25,
    }),
    "fgr": (_run_fgr, {
        "gamma": 1.0,
        "samples": 100_000,
    }),
    "qiur": (_run_qiur, {
        "input": "",
        "sigma_x": 1.0,
        "box_length": 0.0,
        "grid_n": 4096,
    }),
    "szilard": (_run_szilard, {
        "cycles": 1,
        "length": 1.0,
        "temperature": 1.0,
        "mass": 1.0,
        "convention": "box-scale",
    }),
    "speed-demon": (_run_speed_demon, {
        "temperature": 1.0,
        "mass": 1.0,
        "nu_low": 0.0,
        "ratio": 100.0,
        "door": 0.0,
        "attempts": 10_000,
    }),
    "einstein": (_run_einstein, {
        "n_components": 3.0,
        "energy": 0.0,
        "frequency": 0.0,
        "volume_ratio": 0.5,
        "trials": 100_000,
        "brillouin_b": 0.0,
        "info_fraction": 0.0,
    }),
    "brownian": (_run_brownian, {
        "steps": 100,
        "walkers": 10_000,
        "step_law": "plus_minus_one",  # brownian.STEP_PLUS_MINUS_ONE
        "sigma_step": 1.0,
    }),
}


def run(params: Params) -> dict[str, Any]:
    """Execute the scenario, write its --output file, and return the report."""
    units = UnitSystem.si() if params["si"] else UnitSystem(k=params["k"], h=params["h"])
    seed, output = params["seed"], params["output"]
    csv = output and params["format"] == "csv"
    start = time.perf_counter()
    runner = SCENARIOS[params.scenario][0](params, units, seed)
    skipped_by = {"k": "with si", "h": "with si", "format": "without output"} | next(runner)
    unread: dict[str, list[str]] = {}
    for key, default in _param_table(params.scenario).items():
        if key not in params.read and params.values[key] != default:
            unread.setdefault(skipped_by.get(key, ""), []).append(key)
    if unread:
        raise InvalidInputError("; ".join(
            f"{', '.join(keys)} set but not read {why}".rstrip() for why, keys in unread.items()))
    try:
        next(runner)
    except StopIteration as done:
        derived, checks, table = done.value
    report = {
        "scenario": params.scenario,
        "config": dict(params.values),
        "derived": derived,
        "verdicts": {name: check.passed for name, check in checks.items()},
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    if csv:
        json_dumps(report)  # write no CSV of a report that cannot be emitted
    if output:
        try:
            if not csv:
                write_json(output, report)
            elif table is None:
                write_csv(output, KV_HEADER, kv_rows(derived))
            else:
                write_csv(output, table.CSV_HEADER, table.to_rows())
        except OSError as exc:
            raise UsageError(f"cannot write output {output}: {exc}") from exc
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(resolve_config(args.scenario, args))
        sys.stdout.write(json_dumps(report))
    except UsageError as exc:
        print(f"demonlab: error: {exc}", file=sys.stderr)
        return 2
    except DemonlabError as exc:
        print(f"demonlab {args.scenario}: error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(report["verdicts"].values()) else 1
