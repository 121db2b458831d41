"""demonlab command line: one subcommand per scenario, reproducible reports.

Precedence for every parameter is flags > config file > defaults, with the
environment variable DEMONLAB_SEED as the lowest-precedence seed source.
Config files are flat `key = value` text with `#` comments; unknown keys
are hard errors. Reports are JSON with stable key ordering, so two runs
with the same effective config and seed emit byte-identical bodies apart
from the wall_time_s field. Exit status: 0 when every scenario verdict
passes, 1 on scenario failure or error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from . import brownian as brw
from . import fgr as fgrmod
from . import fluctuations as fluct
from . import markov, qiur, speed_demon, szilard
from .errors import DemonlabError, InvalidInputError
from .reporting import json_dumps, write_csv, write_json
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
        "step_law": (str, brw.STEP_PLUS_MINUS_ONE),
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
    for name, table in SCENARIO_PARAMS.items():
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", default=None, help="flat key = value config file")
        for key, (typ, _default) in {**COMMON_PARAMS, **table}.items():
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
    return RunConfig(scenario=scenario, params=params)


def _pyify(obj: Any) -> Any:
    """Convert numpy scalars/arrays so json can serialize deterministically."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


CsvPayload = tuple[tuple[str, ...], list[tuple]]
RunnerResult = tuple[dict[str, Any], dict[str, bool], CsvPayload]


def _kv_rows(derived: dict[str, Any]) -> CsvPayload:
    return ("key", "value"), [(k, v) for k, v in sorted(derived.items())]


def _binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _run_h_theorem(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    rng = np.random.default_rng(seed)
    if params["rates_file"]:
        path = params["rates_file"]
        if str(path).endswith(".json"):
            rates = markov.rate_matrix_from_json(path)
        else:
            rates = markov.rate_matrix_from_text(path)
    else:
        rates = markov.random_symmetric_rates(params["states"], rng)
    n = rates.n

    if params["p0"]:
        try:
            values = np.array([float(v) for v in params["p0"].split(",")])
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse p0: {exc}") from exc
        p0 = markov.ProbDist(values)
    else:
        draw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
        p0 = markov.ProbDist(draw / draw.sum())

    t_max = params["t_max"]
    if t_max <= 0:
        eigenvalues, _ = markov.build_master_operator(rates).spectrum
        t_max = 25.0 / -eigenvalues[-2]
    grid = np.linspace(0.0, t_max, max(params["samples"], 2))
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
    verdicts = {
        "entropy_monotone": report.monotone,
        "production_nonnegative": bool(report.min_production >= -1e-12),
    }
    return derived, verdicts, (("t", "S", "dSdt", "dist_to_eq"), report.to_rows())


def _run_fgr(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    gamma = params["gamma"]
    sample = fgrmod.simulate_decay(gamma, params["samples"], seed)
    check_ts = [math.log(2.0) / gamma, 1.0 / gamma, 2.0 / gamma]
    survival_ok = True
    checks = []
    for t in check_ts:
        emp = sample.survival(t)
        ana = math.exp(-gamma * t)
        tol = _binomial_3sigma(ana, sample.n_samples)
        survival_ok &= abs(emp - ana) <= tol
        checks.append({"t": t, "empirical": emp, "analytic": ana, "tol_3sigma": tol})
    mean = sample.mean_waiting_time()
    mean_tol = 3.0 / (gamma * math.sqrt(sample.n_samples))
    derived = {
        "gamma": gamma,
        "lifetime": 1.0 / gamma,
        "mean_waiting_time": mean,
        "checks": checks,
    }
    verdicts = {
        "survival_within_3sigma": bool(survival_ok),
        "mean_within_3sigma": bool(abs(mean - 1.0 / gamma) <= mean_tol),
    }
    ts, emp, ana = sample.curve(np.linspace(0.0, 5.0 / gamma, 51))
    rows = list(zip(ts.tolist(), emp.tolist(), ana.tolist()))
    return derived, verdicts, (("t", "empirical_survival", "analytic_survival"), rows)


def _run_qiur(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    if params["input"]:
        psi = qiur.wavefunction_from_csv(params["input"])
    elif params["box_length"] > 0:
        psi = qiur.box_ground_state(params["box_length"], n=params["grid_n"])
    else:
        psi = qiur.gaussian_packet(params["sigma_x"], units, n=params["grid_n"])
    report = qiur.entropy_report(psi, units)
    verdicts = {"bound_satisfied": report["satisfied"]}
    return dict(report), verdicts, _kv_rows(dict(report))


def _run_szilard(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    box = szilard.EngineBox(
        length_L=params["length"],
        temperature_T=params["temperature"],
        mass_m=params["mass"],
    )
    ledger = szilard.run_cycle(
        box, params["cycles"], seed, units, convention=params["convention"]
    )
    insertion = ledger.entries[0].delta_s
    derived = {
        "cycles": params["cycles"],
        "insertion_dS": insertion,
        "net_dS": ledger.net_entropy(),
        "net_work": ledger.net_work(),
        "work_per_cycle": ledger.net_work() / params["cycles"],
        "sides": "".join(s[0] for s in ledger.sides),
    }
    verdicts = {
        "prefix_nonnegative": ledger.prefix_nonnegative(),
        "net_entropy_zero": bool(abs(ledger.net_entropy()) <= 1e-12),
    }
    return derived, verdicts, (("cycle", "step_label", "dS", "dW", "cum_dS"), ledger.to_rows())


def _run_speed_demon(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    gas = speed_demon.GasSpec(temperature_T=params["temperature"], mass_m=params["mass"])
    if params["nu_low"] > 0:
        probe = speed_demon.ProbeSpec(params["nu_low"])
    else:
        probe = speed_demon.ProbeSpec.from_energy_ratio(gas, params["ratio"], units)
    if params["door"] > 0:
        door = params["door"]
    else:
        door = speed_demon.max_door_size(speed_demon.rms_momentum(gas, units), units)
    report = speed_demon.simulate_sorting(
        gas, probe, speed_demon.SortingGeometry(door), params["attempts"], seed, units
    )
    derived = report.to_dict()
    tol = _binomial_3sigma(report.analytic_passage, report.n_attempts)
    verdicts = {
        "sorting_infeasible": report.sorting_infeasible,
        "mc_within_3sigma": bool(
            abs(report.empirical_passage - report.analytic_passage) <= tol
        ),
    }
    return derived, verdicts, _kv_rows(derived)


def _run_einstein(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    if params["energy"] > 0 and params["frequency"] > 0:
        spec = fluct.FluctuationSpec.from_radiation(
            params["energy"], params["frequency"], params["volume_ratio"], 1.0, units
        )
    else:
        spec = fluct.FluctuationSpec(
            n_components=params["n_components"],
            volume_v=params["volume_ratio"],
            volume_v0=1.0,
        )
    ds = fluct.gas_entropy_change(spec, units)
    prob = fluct.fluctuation_probability(spec)
    identity_gap = abs(math.exp(ds / units.k) - prob)
    derived: dict[str, Any] = {
        "n_components": spec.n_components,
        "volume_ratio": spec.volume_ratio,
        "dS": ds,
        "probability": prob,
        "identity_gap": identity_gap,
    }
    verdicts: dict[str, bool] = {"identity_ok": bool(identity_gap <= 1e-12)}
    if params["trials"] > 0:
        emp = fluct.monte_carlo_fluctuation(spec, params["trials"], seed)
        tol = _binomial_3sigma(prob, params["trials"])
        derived["mc_probability"] = emp
        derived["mc_tol_3sigma"] = tol
        verdicts["mc_within_3sigma"] = bool(abs(emp - prob) <= tol)
    if params["brillouin_b"] > 0:
        bspec = fluct.BrillouinSpec(
            temperature_T=1.0,
            nu1=params["brillouin_b"] * units.k / units.h,
            p0_count=1.0,
            p_info=params["info_fraction"],
        )
        balance = fluct.brillouin_balance(bspec, units)
        derived["brillouin"] = balance
        verdicts["brillouin_net_positive"] = bool(balance["net"] > 0)
    flat = {k: v for k, v in derived.items() if not isinstance(v, dict)}
    return derived, verdicts, _kv_rows(flat)


def _run_brownian(params: dict, units: UnitSystem, seed: int) -> RunnerResult:
    spec = brw.WalkSpec(
        n_steps=params["steps"],
        n_walkers=params["walkers"],
        rng_seed=seed,
        step_law=params["step_law"],
        sigma_step=params["sigma_step"],
    )
    report = brw.simulate_walks(spec)
    n = spec.n_steps
    var_step = spec.step_variance
    msd_expected = n * var_step
    if spec.step_law == brw.STEP_PLUS_MINUS_ONE:
        msd_se = math.sqrt(2.0 * n * (n - 1) / spec.n_walkers)
    else:
        msd_se = math.sqrt(2.0) * msd_expected / math.sqrt(spec.n_walkers)
    mean_se = math.sqrt(msd_expected / spec.n_walkers)
    derived = {
        "msd_final": report.msd[-1],
        "msd_expected": msd_expected,
        "mean_final": report.mean_displacement[-1],
        "fitted_D": report.fitted_D,
        "analytic_D": report.analytic_D,
        "r_squared": report.r_squared,
    }
    verdicts = {
        "msd_within_3sigma": bool(abs(report.msd[-1] - msd_expected) <= 3.0 * msd_se),
        "mean_within_3sigma": bool(abs(report.mean_displacement[-1]) <= 3.0 * mean_se),
        "msd_fit_linear": bool(report.r_squared > 0.999),
    }
    rows = list(
        zip(
            report.times.tolist(),
            report.mean_displacement.tolist(),
            report.msd.tolist(),
        )
    )
    return derived, verdicts, (("t", "mean_displacement", "msd"), rows)


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
    """Execute the scenario and return the full report dictionary."""
    start = time.perf_counter()
    derived, verdicts, csv_payload = RUNNERS[config.scenario](
        config.params, config.units(), config.seed
    )
    report = {
        "scenario": config.scenario,
        "config": _pyify(dict(config.params)),
        "derived": _pyify(derived),
        "verdicts": _pyify(verdicts),
        "seed": config.seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
    }
    output = config.params["output"]
    if output:
        try:
            if config.params["format"] == "json":
                write_json(output, report)
            else:
                header, rows = csv_payload
                write_csv(output, header, _pyify(rows))
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
        config = resolve_config(args.scenario, args)
    except UsageError as exc:
        print(f"demonlab: error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except UsageError as exc:
        print(f"demonlab: error: {exc}", file=sys.stderr)
        return 2
    except DemonlabError as exc:
        print(f"demonlab {config.scenario}: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json_dumps(report))
    return 0 if all(report["verdicts"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
