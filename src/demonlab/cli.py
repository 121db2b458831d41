"""demonlab command line: one subcommand per scenario, reproducible reports.

Precedence for every parameter is flags > config file > defaults, with the
environment variable DEMONLAB_SEED as the lowest-precedence seed source.
Config files are flat `key = value` text with `#` comments; unknown keys
are hard errors. Reports are JSON with stable key ordering, so two runs
with the same effective config and seed emit byte-identical bodies apart
from the wall_time_s field. Exit status: 0 when every scenario verdict
passes, 1 on scenario failure or error, 2 on usage errors.

The CLI parses, imports the scenario's module (and numpy) only when that
scenario runs, runs it and emits. Each report defines its own verdicts and
their tolerances, and a report with a table its CSV columns (CSV_HEADER,
to_rows); other scenarios write reporting.kv_rows of their derived values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .errors import DemonlabError, InvalidInputError, require_count, require_positive
from .reporting import KV_HEADER, json_dumps, kv_rows, write_csv, write_json
from .units import UnitSystem


class UsageError(Exception):
    """Bad invocation: unknown key, type mismatch, malformed config."""


#: key -> (python type, default); shared by every scenario.
COMMON_PARAMS: dict[str, tuple[type, Any]] = {
    "seed": (int, 0),
    "k": (float, 1.0),
    "h": (float, 1.0),
    "si": (bool, False),
    "output": (str, ""),
    "format": (str, "json"),
}

SCENARIO_PARAMS: dict[str, dict[str, tuple[type, Any]]] = {
    "h-theorem": {
        "states": (int, 6),
        "rates_file": (str, ""),
        "p0": (str, ""),
        "t_max": (float, 0.0),
        "samples": (int, 25),
    },
    "fgr": {
        "gamma": (float, 1.0),
        "samples": (int, 100_000),
    },
    "qiur": {
        "input": (str, ""),
        "sigma_x": (float, 1.0),
        "box_length": (float, 0.0),
        "grid_n": (int, 4096),
    },
    "szilard": {
        "cycles": (int, 1),
        "length": (float, 1.0),
        "temperature": (float, 1.0),
        "mass": (float, 1.0),
        "convention": (str, "box-scale"),
    },
    "speed-demon": {
        "temperature": (float, 1.0),
        "mass": (float, 1.0),
        "nu_low": (float, 0.0),
        "ratio": (float, 100.0),
        "door": (float, 0.0),
        "attempts": (int, 10_000),
    },
    "einstein": {
        "n_components": (float, 3.0),
        "energy": (float, 0.0),
        "frequency": (float, 0.0),
        "volume_ratio": (float, 0.5),
        "trials": (int, 100_000),
        "brillouin_b": (float, 0.0),
        "info_fraction": (float, 0.0),
    },
    "brownian": {
        "steps": (int, 100),
        "walkers": (int, 10_000),
        "step_law": (str, "plus_minus_one"),  # brownian.STEP_PLUS_MINUS_ONE
        "sigma_step": (float, 1.0),
    },
}

_BOOL_STRINGS = {
    "true": True, "1": True, "yes": True,
    "false": False, "0": False, "no": False,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved scenario invocation."""

    scenario: str
    params: dict[str, Any]

    @property
    def seed(self) -> int:
        return self.params["seed"]

    def units(self) -> UnitSystem:
        if self.params["si"]:
            return UnitSystem.si()
        return UnitSystem(k=self.params["k"], h=self.params["h"])


def _param_table(scenario: str) -> dict[str, tuple[type, Any]]:
    return {**COMMON_PARAMS, **SCENARIO_PARAMS[scenario]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demonlab",
        description="Desk-scale Second-Law experiments: relaxation, uncertainty, demons.",
    )
    parser.add_argument("--version", action="version", version=f"demonlab {__version__}")
    sub = parser.add_subparsers(dest="scenario", metavar="scenario")
    for name in SCENARIO_PARAMS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", default=None, help="flat key = value config file")
        for key, (typ, _default) in _param_table(name).items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                sp.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            else:
                sp.add_argument(flag, dest=key, type=str, default=None)
    return parser


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment; duplicates are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low not in _BOOL_STRINGS:
            raise UsageError(f"key {key!r}: expected a boolean, got {raw!r}")
        return _BOOL_STRINGS[low]
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"key {key!r}: expected {typ.__name__}, got {raw!r}") from exc


def resolve_config(scenario: str, args: argparse.Namespace) -> RunConfig:
    """Apply the precedence flags > config file > DEMONLAB_SEED > defaults."""
    table = _param_table(scenario)
    params = {key: default for key, (_t, default) in table.items()}

    env_seed = os.environ.get("DEMONLAB_SEED")
    if env_seed is not None:
        params["seed"] = _coerce("DEMONLAB_SEED", env_seed, int)

    if args.config:
        cfg = parse_config_file(args.config)
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise UsageError(f"unknown config key(s) for {scenario}: {', '.join(unknown)}")
        for key, raw in cfg.items():
            params[key] = _coerce(key, raw, table[key][0])

    for key, (typ, _default) in table.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            params[key] = _coerce(key, flag_value, typ)

    if params["format"] not in ("json", "csv"):
        raise UsageError(f"format must be json or csv, got {params['format']!r}")
    if params["seed"] < 0:  # numpy seeds take nonnegative integers only
        raise UsageError(f"seed must be >= 0, got {params['seed']}")
    return RunConfig(scenario=scenario, params=params)


#: (derived values, verdicts, the report that owns the CSV table or None).
RunnerResult = tuple[dict[str, Any], dict[str, bool], Any]


def _run_h_theorem(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    import numpy as np

    from . import markov

    rng = np.random.default_rng(seed)
    if params["rates_file"].endswith(".json"):
        rates = markov.rate_matrix_from_json(params["rates_file"])
    elif params["rates_file"]:
        rates = markov.rate_matrix_from_text(params["rates_file"])
    else:
        rates = markov.random_symmetric_rates(params["states"], rng)
    n = rates.n
    limit = markov.MAX_TRAJECTORY_SIZE // n
    samples = require_count(f"samples at {n} states", params["samples"], 2, limit)

    if params["p0"]:
        try:
            values = np.array([float(v) for v in params["p0"].split(",")])
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse p0: {exc}") from exc
        p0 = markov.ProbDist(values)
    else:
        draw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(draw / draw.sum())

    t_max = require_positive("t_max", params["t_max"], least=0.0)
    t_max = t_max or 25.0 / markov.spectral_gap(rates)
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


def _run_fgr(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import fgr

    sample = fgr.simulate_decay(params["gamma"], params["samples"], seed)
    derived = {
        "gamma": sample.gamma,
        "lifetime": 1.0 / sample.gamma,
        "mean_waiting_time": sample.mean_waiting_time(),
        "checks": sample.survival_checks,
    }
    return derived, sample.verdicts(), sample


def _run_qiur(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import qiur

    box_length = require_positive("box_length", params["box_length"], least=0.0)
    if params["input"]:
        psi = qiur.wavefunction_from_csv(params["input"])
    elif box_length > 0:
        psi = qiur.box_ground_state(box_length, n=params["grid_n"], units=units)
    else:
        psi = qiur.gaussian_packet(params["sigma_x"], n=params["grid_n"])
    report = qiur.entropy_report(psi, units)
    return report, {"bound_satisfied": report["satisfied"]}, None


def _run_szilard(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import szilard

    box = szilard.EngineBox(
        length_L=params["length"],
        temperature_T=params["temperature"],
        mass_m=params["mass"],
    )
    ledger = szilard.run_cycle(
        box, params["cycles"], seed, units, convention=params["convention"]
    )
    derived = {
        "cycles": params["cycles"],
        "insertion_dS": ledger.insertion_dS,
        "net_dS": ledger.net_entropy(),
        "net_work": ledger.net_work(),
        "work_per_cycle": ledger.net_work() / params["cycles"],
        "sides": "".join(s[0] for s in ledger.sides),
    }
    return derived, ledger.verdicts(), ledger


def _run_speed_demon(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import speed_demon

    gas = speed_demon.GasSpec(temperature_T=params["temperature"], mass_m=params["mass"])
    if require_positive("nu_low", params["nu_low"], least=0.0) > 0:
        probe = speed_demon.ProbeSpec(params["nu_low"])
    else:
        probe = speed_demon.ProbeSpec.from_energy_ratio(gas, params["ratio"], units)
    door = require_positive("door", params["door"], least=0.0) or speed_demon.max_door_size(
        speed_demon.rms_momentum(gas, units), units
    )
    report = speed_demon.simulate_sorting(
        gas, probe, speed_demon.SortingGeometry(door), params["attempts"], seed, units
    )
    return asdict(report), report.verdicts(), None


def _run_einstein(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import fluctuations as fluct

    ratio = params["volume_ratio"]
    energy = require_positive("energy", params["energy"], least=0.0)
    frequency = require_positive("frequency", params["frequency"], least=0.0)
    if energy > 0 and frequency > 0:
        spec = fluct.FluctuationSpec.from_radiation(energy, frequency, ratio, units)
    else:
        spec = fluct.FluctuationSpec(params["n_components"], ratio)
    b = require_positive("brillouin_b", params["brillouin_b"], least=0.0)
    brillouin = fluct.BrillouinSpec(b, params["info_fraction"]) if b > 0 else None
    derived, verdicts = fluct.fluctuation_report(spec, params["trials"], seed, brillouin, units)
    return derived, verdicts, None


def _run_brownian(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    from . import brownian

    spec = brownian.WalkSpec(
        n_steps=params["steps"],
        n_walkers=params["walkers"],
        rng_seed=seed,
        step_law=params["step_law"],
        sigma_step=params["sigma_step"],
    )
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


RUNNERS: dict[str, Callable[[dict, UnitSystem, int], RunnerResult]] = {
    "h-theorem": _run_h_theorem,
    "fgr": _run_fgr,
    "qiur": _run_qiur,
    "szilard": _run_szilard,
    "speed-demon": _run_speed_demon,
    "einstein": _run_einstein,
    "brownian": _run_brownian,
}


def run(config: RunConfig) -> dict[str, Any]:
    """Execute the scenario, write its --output file, and return the report."""
    start = time.perf_counter()
    derived, verdicts, table = RUNNERS[config.scenario](
        config.params, config.units(), config.seed
    )
    report = {
        "scenario": config.scenario,
        "config": dict(config.params),
        "derived": derived,
        "verdicts": verdicts,
        "seed": config.seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    output = config.params["output"]
    if output:
        if config.params["format"] == "csv":
            json_dumps(report)  # write no CSV of a report that cannot be emitted
        try:
            if config.params["format"] == "json":
                write_json(output, report)
            elif table is None:
                write_csv(output, KV_HEADER, kv_rows(derived))
            else:
                write_csv(output, table.CSV_HEADER, table.to_rows())
        except OSError as exc:
            raise UsageError(f"cannot write output {output}: {exc}") from exc
    return report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scenario is None:
        parser.print_usage(sys.stderr)
        print("demonlab: error: a scenario subcommand is required", file=sys.stderr)
        return 2
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


if __name__ == "__main__":
    sys.exit(main())
