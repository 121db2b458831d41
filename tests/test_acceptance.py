"""Acceptance suite: every headline result at its stated tolerance.

Each test evaluates one criterion end to end, records a PASS/FAIL line for
the terminal summary, and asserts. Criteria with runtime budgets measure
wall time and enforce it.
"""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
from conftest import record_acceptance
from wavefns import box_mode, random_mixture

from demonlab import brownian as br
from demonlab import fgr
from demonlab import fluctuations as fl
from demonlab import markov, qiur, szilard
from demonlab import speed_demon as sd
from demonlab.units import SI_UNITS, UnitSystem

LN2 = math.log(2.0)


def _check(number: int, description: str, ok: bool) -> None:
    record_acceptance(number, description, ok)
    assert ok, f"acceptance criterion {number} failed: {description}"


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def test_criterion_01_szilard_entropy_cost():
    start = time.perf_counter()
    ok = True
    for units in (UnitSystem(), SI_UNITS):
        for length in (0.1, 1.0, 10.0):
            for temperature in (1.0, 300.0):
                for convention in szilard.CONVENTIONS:
                    box = szilard.EngineBox(length, temperature, 1.0)
                    state = szilard.initial_state(box, units, convention)
                    _, ds = szilard.insert_partition(state, 0, units)
                    ok &= abs(ds - units.k * LN2) <= 1e-12 * units.k
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _check(1, f"Szilard insertion dS = k ln 2 to 1e-12 across sweep ({elapsed:.2f}s)", ok)


def test_criterion_02_qiur_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    bound = qiur.qiur_bound()
    ok = abs(bound - 0.3068528194400547) < 1e-12
    worst_margin = math.inf
    for i in range(200):
        psi = box_mode(rng) if i % 4 == 0 else random_mixture(rng)
        joint = qiur.entropy_report(psi)["joint"]
        worst_margin = min(worst_margin, joint - bound)
        ok &= joint >= bound - 1e-3
    # minimum-uncertainty Gaussians saturate the bound
    for sigma in (0.25, 1.0, 4.0):
        joint = qiur.entropy_report(qiur.gaussian_packet(sigma))["joint"]
        ok &= abs(joint - bound) <= 1e-3
    # the box ground state clears it by a definite margin
    box_joint = qiur.entropy_report(qiur.box_ground_state(1.0))["joint"]
    ok &= box_joint - bound > 1e-2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _check(
        2,
        f"QIUR bound: 200 wavefunctions (worst margin {worst_margin:+.2e}), "
        f"Gaussian saturation, box excess {box_joint - bound:.4f} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_03_h_theorem_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    delta = 1e-5
    ok = True
    fd_checks = 0
    for _ in range(100):
        n = int(rng.integers(3, 21))
        rates = markov.random_symmetric_rates(n, rng)
        gap = -np.sort(np.linalg.eigvalsh(rates.generator))[-2]
        t_term = 21.0 / gap
        grid = np.linspace(0.0, t_term, 12)
        for _ in range(10):
            raw = np.clip(rng.dirichlet(np.ones(n)), 1e-9, None)
            p0 = markov.ProbDist(raw / raw.sum())
            report = markov.verify_h_theorem(rates, p0, grid)
            ok &= report.monotone
            ok &= report.min_production >= -1e-12
            ok &= report.terminal_dist < 1e-8
            # finite-difference cross-check where the derivative carries signal
            for t, production in zip(report.times, report.production_rate):
                if t < delta or production < 1e-4:
                    continue
                before, after = markov.trajectory(p0, rates, [t - delta, t + delta])
                fd = (
                    markov.shannon_entropy(after) - markov.shannon_entropy(before)
                ) / (2.0 * delta)
                ok &= abs(production - fd) / max(abs(fd), 1e-12) < 1e-6
                fd_checks += 1
    ok &= fd_checks >= 1000
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _check(
        3,
        f"H-theorem sweep: 1000 trajectories monotone, {fd_checks} FD agreements, "
        f"terminal within 1e-8 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_04_two_state_closed_form():
    ok = True
    worst = 0.0
    for rate in (0.1, 1.0, 10.0):
        rm = markov.RateMatrix([[0.0, rate], [rate, 0.0]])
        for p_initial in (1.0, 0.73):
            p0 = markov.ProbDist([p_initial, 1.0 - p_initial])
            for t in np.linspace(0.0, 10.0, 101):
                got = markov.evolve(p0, rm, float(t)).p[0]
                want = 0.5 + (p_initial - 0.5) * math.exp(-2.0 * rate * t)
                worst = max(worst, abs(got - want))
    ok &= worst <= 1e-10
    _check(4, f"two-state closed form within 1e-10 (worst {worst:.2e})", ok)


def test_criterion_05_speed_demon_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for _ in range(1000):
        units = UnitSystem(k=10.0 ** rng.uniform(-2, 2), h=10.0 ** rng.uniform(-2, 2))
        gas = sd.GasSpec(
            temperature_T=10.0 ** rng.uniform(-2, 3), mass_m=10.0 ** rng.uniform(-3, 3)
        )
        probe = sd.ProbeSpec.from_energy_ratio(gas, 10.0 ** rng.uniform(0.01, 6), units)
        ratio = sd.sorting_feasibility(gas, probe, units)
        expected = math.sqrt(units.k * gas.temperature_T / (units.h * probe.nu_low))
        worst = max(worst, abs(ratio - expected))
        ok &= abs(ratio - expected) <= 1e-12
    # SI argon worked case against independently hand-computed values
    argon = sd.GasSpec(temperature_T=300.0, mass_m=6.64e-26)
    probe = sd.ProbeSpec.from_energy_ratio(argon, 100.0, SI_UNITS)
    door = sd.max_door_size(sd.rms_momentum(argon, SI_UNITS), SI_UNITS)
    spreads = sd.post_measurement_spreads(argon, probe, SI_UNITS)
    ok &= abs(door - 1.83568952483e-12) <= 0.01 * 1.83568952483e-12
    ok &= abs(spreads.sigma_x - 1.83568952483e-11) <= 0.01 * 1.83568952483e-11
    ok &= abs(sd.sorting_feasibility(argon, probe, SI_UNITS) - 10.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _check(
        5,
        f"speed-demon ratio identity to 1e-12 (worst {worst:.2e}) and SI argon "
        f"case within 1% ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_06_sorting_monte_carlo():
    start = time.perf_counter()
    gas = sd.GasSpec(temperature_T=1.0, mass_m=1.0)
    probe = sd.ProbeSpec.from_energy_ratio(gas, 100.0)
    door = sd.SortingGeometry(sd.max_door_size(sd.rms_momentum(gas)))
    report = sd.simulate_sorting(gas, probe, door, 1_000_000, rng_seed=6)
    tol = binomial_3sigma(report.analytic_passage, report.n_attempts)
    gap = abs(report.empirical_passage - report.analytic_passage)
    elapsed = time.perf_counter() - start
    ok = gap <= tol and elapsed < 10.0
    _check(
        6,
        f"sorting MC passage {report.empirical_passage:.6f} vs erf "
        f"{report.analytic_passage:.6f} within 3-sigma {tol:.2e} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_einstein_fluctuation():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    # exact identity exp(dS/k) == W
    for _ in range(200):
        spec = fl.FluctuationSpec(
            float(rng.uniform(1.0, 40.0)), float(rng.uniform(0.02, 1.0))
        )
        ok &= abs(
            math.exp(fl.gas_entropy_change(spec)) - fl.fluctuation_probability(spec)
        ) <= 1e-12
    # Monte-Carlo frequencies across the stated grid
    for seed_offset, n in enumerate((1, 3, 5, 10)):
        for ratio in (0.3, 0.5):
            spec = fl.FluctuationSpec(n, ratio)
            expected = fl.fluctuation_probability(spec)
            emp = fl.monte_carlo_fluctuation(spec, 1_000_000, rng_seed=70 + seed_offset)
            ok &= abs(emp - expected) <= binomial_3sigma(expected, 1_000_000)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _check(
        7,
        f"fluctuation identity to 1e-12 and MC matches (V/V0)^N at 3-sigma ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_08_fgr_decay():
    start = time.perf_counter()
    ok = True
    for gamma, seed in ((1.0, 8), (2.5, 9)):
        sample = fgr.simulate_decay(gamma, 1_000_000, rng_seed=seed)
        for t_scaled in (LN2, 1.0, 2.0):
            t = t_scaled / gamma
            analytic = math.exp(-gamma * t)
            ok &= abs(sample.survival(t) - analytic) <= binomial_3sigma(
                analytic, sample.n_samples
            )
        mean_tol = 3.0 / (gamma * math.sqrt(sample.n_samples))
        ok &= abs(sample.mean_waiting_time() - 1.0 / gamma) <= mean_tol
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _check(
        8,
        f"decay survival matches e^(-gamma t) and mean waiting time 1/gamma "
        f"at 3-sigma, 1e6 samples ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_09_brownian_msd():
    start = time.perf_counter()
    spec = br.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=90)
    report = br.simulate_walks(spec)
    msd_tol = 3.0 * math.sqrt(2.0 * 100 * 99 / 100_000)
    mean_tol = 3.0 * math.sqrt(100.0 / 100_000)
    ok = abs(report.msd[-1] - 100.0) <= msd_tol
    ok &= report.r_squared > 0.999
    ok &= abs(report.mean_displacement[-1]) <= mean_tol
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _check(
        9,
        f"MSD(100) = {report.msd[-1]:.3f} within {msd_tol:.2f}, R^2 = "
        f"{report.r_squared:.5f}, mean {report.mean_displacement[-1]:+.4f} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_ledger_nonnegativity():
    ledger = szilard.run_cycle(szilard.EngineBox(1.0, 1.0, 1.0), 100, rng_seed=10)
    cum = ledger.cumulative_entropy()
    ok = bool(cum.min() >= -1e-12)
    ok &= abs(ledger.net_entropy()) <= 1e-12
    _check(
        10,
        f"100-cycle ledger: min prefix {cum.min():+.1e}, net {ledger.net_entropy():+.1e}",
        ok,
    )


def test_criterion_11_brillouin_balance():
    ok = True
    worst_rel = 0.0
    for b in np.geomspace(1.0, 1e3, 25):
        for frac in (0.0, 1e-6, 1e-5, 1e-4, 1e-3):
            spec = fl.BrillouinSpec(b=float(b), info_fraction=frac)
            balance = fl.brillouin_balance(spec)
            ok &= balance["net"] > 0.0
            if frac > 0.0:
                rel = abs(
                    balance["dS_gas_exact"] - balance["dS_gas_approx"]
                ) / abs(balance["dS_gas_approx"])
                worst_rel = max(worst_rel, rel / frac)
                ok &= rel <= frac
    _check(
        11,
        f"Brillouin net dS > 0 across sweep; exact-vs-approx rel error <= p/P0 "
        f"(worst ratio {worst_rel:.2f})",
        ok,
    )


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("DEMONLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "demonlab", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_criterion_12_cli_reproducibility(tmp_path):
    out = tmp_path / "report.json"
    args = ["szilard", "--cycles", "5", "--seed", "11", "--output", str(out)]
    first = _run_cli(*args)
    body_a = out.read_text()
    second = _run_cli(*args)
    body_b = out.read_text()
    strip = lambda s: re.sub(r'^\s*"wall_time_s":.*\n', "", s, flags=re.MULTILINE)
    ok = first.returncode == 0 and second.returncode == 0
    ok &= strip(body_a).encode() == strip(body_b).encode()
    report = json.loads(body_a)
    ok &= all(report["verdicts"].values())
    # deliberately failing scenario: asymmetric rates must exit 1
    rates = tmp_path / "asym.txt"
    rates.write_text("0 1\n2 0\n")
    failing = _run_cli("h-theorem", "--rates-file", str(rates))
    ok &= failing.returncode == 1
    # usage error must exit 2
    usage = _run_cli("szilard", "--no-such-flag")
    ok &= usage.returncode == 2
    _check(
        12,
        "CLI byte-identical reports (excl. wall time); exit codes 0/1/2 honored",
        ok,
    )
