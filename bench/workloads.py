"""Workload inputs, the ops that use them, and the timed loop.

Runs inside the worker process that ``run.py`` starts. Every input is made
here from the workload seed with the benchmark's own generator, so changes
to demonlab's generators do not change what the program is given. Each op
is timed alone; its output is checked after the pass, outside the timing.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Iterator

import numpy as np
from scipy.linalg import expm

from demonlab import brownian, cli, fgr, markov

from spans import Recorder, instrument, layer_metrics
from stats import op_p50, op_tail, pass_wall

OK, VERDICT, MISMATCH, ERROR = "ok", "verdict", "mismatch", "error"

#: A CLI child process that runs longer than this is killed and counted as an error.
CHILD_TIMEOUT_S = 120.0

#: evolve must agree with expm(L t) @ p0 to this max-abs difference.
EVOLVE_TOL = 1e-10

#: evolve horizon times the largest escape rate: about 30 ms of ODE steps
#: at n = 100, so the ODE path shows without swamping the h-theorem ops.
EVOLVE_HORIZON = 1_000


def connected_rates(rng: np.random.Generator, n: int, stiff: bool, extra_edge_prob: float) -> np.ndarray:
    """Symmetric rates on a random spanning tree plus random extra edges.

    Mild rates are uniform on [0.5, 2]; stiff rates are log-uniform on
    [1e-3, 1e3], so the generator's eigenvalues span about six decades.
    """
    order = rng.permutation(n)
    parents = order[(rng.random(n - 1) * np.arange(1, n)).astype(int)]
    mask = np.zeros((n, n), dtype=bool)
    mask[order[1:], parents] = True
    mask |= rng.random((n, n)) < extra_edge_prob
    mask = np.triu(mask | mask.T, 1)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, (n, n)) if stiff else rng.uniform(0.5, 2.0, (n, n))
    upper = np.where(mask, weights, 0.0)
    return upper + upper.T


def interior_p0(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random distribution with every entry well above the probability floor."""
    draw = np.clip(rng.dirichlet(np.ones(n)), 1e-6, None)
    return draw / draw.sum()


def _op_seeds(rng: np.random.Generator) -> Iterator[int]:
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def _write_rates_file(path: Path, rng: np.random.Generator, n: int) -> str:
    """Write a generated JSON rates file; return a generated ``--p0`` for it."""
    path.write_text(json.dumps({"rates": connected_rates(rng, n, False, 0.3).tolist()}))
    return ",".join(repr(float(v)) for v in interior_p0(rng, n))


def _verdicts(report: Any) -> str:
    verdicts = report.get("verdicts") if isinstance(report, dict) else None
    if not isinstance(verdicts, dict) or not verdicts:
        return ERROR
    return OK if all(v is True for v in verdicts.values()) else VERDICT


def _check_output(path: Path, report: dict) -> bool:
    """The report file exists and matches the report; it is removed afterwards."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return False
    path.unlink()
    if path.suffix == ".json":
        try:
            return json.loads(text).get("verdicts") == report["verdicts"]
        except ValueError:
            return False
    header = text.split("\n", 1)[0]
    return "," in header and text.count("\n") >= 2


# Every op takes a pass number in prepare(), outside the timing, and gives
# each pass new inputs of the same size: seeds step by one and states are
# permuted. Repeated passes therefore share no result a cache could reuse.


def _argv(argv: list[str], seed: int | None, k: int, output: Path | None) -> list[str]:
    out = list(argv)
    if seed is not None:
        out += ["--seed", str(seed + k)]
    if output is not None:
        out += ["--output", str(output), "--format", output.suffix[1:]]
    return out


class CliOp:
    """In-process invocation: parse argv, resolve the config and call cli.run."""

    def __init__(self, label: str, argv: list[str], seed: int | None, output: Path | None = None):
        self.label, self.scenario = label, argv[0]
        self.template, self.seed, self.output = argv, seed, output

    def prepare(self, k: int) -> None:
        self.argv = _argv(self.template, self.seed, k, self.output)

    def run(self) -> dict:
        args = cli.build_parser().parse_args(self.argv)
        return cli.run(cli.resolve_config(args.scenario, args))

    def check(self, report: dict) -> str:
        if self.output and not _check_output(self.output, report):
            return ERROR
        return _verdicts(report)


class EvolveOp:
    """Build the operator from generated rates and propagate p0 to one time."""

    scenario = "evolve"

    def __init__(self, label: str, rates: np.ndarray, p0: np.ndarray, t: float, seed: int):
        self.label = label
        self.base_rates, self.base_p0, self.t, self.seed = rates, p0, t, seed
        self.base_reference: np.ndarray | None = None

    def prepare(self, k: int) -> None:
        self.perm = np.random.default_rng([self.seed, k]).permutation(self.base_p0.size)
        self.rates = self.base_rates[np.ix_(self.perm, self.perm)]
        self.p0 = self.base_p0[self.perm]

    def run(self) -> markov.ProbDist:
        op = markov.build_master_operator(markov.RateMatrix(self.rates))
        return markov.evolve(markov.ProbDist(self.p0), op, self.t)

    def check(self, dist: markov.ProbDist) -> str:
        if self.base_reference is None:
            generator = self.base_rates - np.diag(self.base_rates.sum(axis=0))
            self.base_reference = expm(generator * self.t) @ self.base_p0
        # Permuting the states permutes exp(L t) p0 the same way.
        reference = self.base_reference[self.perm]
        return OK if np.max(np.abs(dist.p - reference)) <= EVOLVE_TOL else MISMATCH


class HistogramOp:
    """brownian.histogram_vs_gaussian at the last step of a 100-step walk."""

    label, scenario = "histogram", "brownian"

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, k: int) -> None:
        self.spec = brownian.WalkSpec(n_steps=100, n_walkers=100_000, rng_seed=self.seed + k)

    def run(self) -> brownian.HistogramReport:
        return brownian.histogram_vs_gaussian(self.spec, 100)

    def check(self, report: brownian.HistogramReport) -> str:
        return OK if report.passes else VERDICT


class CurveOp:
    """DecaySample.curve over 5001 points of generated waiting times.

    The points shift by a fraction of their spacing from pass to pass.
    """

    label, scenario = "curve-5001", "fgr"

    def __init__(self, gamma: float, seed: int, waiting_times: np.ndarray):
        self.gamma, self.seed = gamma, seed
        self.waiting_times = waiting_times

    def prepare(self, k: int) -> None:
        self.ts = np.linspace(0.0, 5.0 / self.gamma, 5001) + 1e-5 * (k % 97) / self.gamma

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return fgr.DecaySample(self.gamma, self.seed, self.waiting_times).curve(self.ts)

    def check(self, result: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
        ts, emp, ana = result
        n = self.waiting_times.size
        expected = (n - np.searchsorted(self.waiting_times, self.ts, side="left")) / n
        ok = (
            np.array_equal(ts, self.ts)
            and np.max(np.abs(emp - expected)) <= 1e-12
            and np.max(np.abs(ana - np.exp(-self.gamma * self.ts))) <= 1e-12
        )
        return OK if ok else MISMATCH


class ColdCliOp:
    """One ``python -m demonlab`` process, checked against the exit contract.

    ``kind`` is what the entry expects: "version", "usage" (exit 2),
    "error" (exit 1 with a one-line error) or "scenario" (a JSON report;
    exit 0, or exit 1 when a verdict is false, which is a verdict failure).
    With a recorder set, the process runs through cli_child.py and its
    spans are added to the recorder.
    """

    def __init__(self, label: str, argv: list[str], kind: str, workdir: Path,
                 seed: int | None = None, output: Path | None = None):
        self.label, self.template, self.kind = label, argv, kind
        self.scenario = argv[0] if kind == "scenario" else kind
        self.seed, self.output = seed, output
        self.stdout_path = workdir / f"{label}.stdout"
        self.stderr_path = workdir / f"{label}.stderr"
        self.spans_path = workdir / f"{label}.spans.json"
        self.recorder: Recorder | None = None
        self.max_rss_kb = 0

    def prepare(self, k: int) -> None:
        # The output path is part of the corpus entry itself.
        self.argv = _argv(self.template, self.seed, k, None)

    def run(self) -> int:
        if self.recorder is None:
            cmd = [sys.executable, "-m", "demonlab", *self.argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(self.spans_path), *self.argv]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.recorder is not None:
            doc = json.loads(self.spans_path.read_text())
            self.recorder.extend(doc["spans"], doc["counts"])
        return proc.returncode

    def check(self, code: int) -> str:
        stdout = self.stdout_path.read_text(encoding="utf-8")
        stderr = self.stderr_path.read_text(encoding="utf-8")
        if "Traceback" in stderr or code not in (0, 1, 2):
            return ERROR
        if self.kind == "version":
            return OK if code == 0 and stdout.startswith("demonlab ") else ERROR
        if self.kind in ("usage", "error"):
            expected = 2 if self.kind == "usage" else 1
            return OK if code == expected and "error:" in stderr and not stdout else ERROR
        try:
            report = json.loads(stdout)
        except ValueError:
            return ERROR
        outcome = _verdicts(report)
        if (code, outcome) not in ((0, OK), (1, VERDICT)):
            return ERROR
        if self.output and not _check_output(self.output, report):
            return ERROR
        return outcome


def _cold_cli(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    seeds = _op_seeds(rng)
    rates_path = workdir / "rates.json"
    p0 = _write_rates_file(rates_path, rng, 64)
    csv_path = workdir / "cold-qiur.csv"
    # (label, argv, expected kind, seeded)
    entries = [
        ("version", ["--version"], "version", False),
        ("usage-error", ["szilard", "--cycles", "many"], "usage", False),
        ("library-error", ["fgr", "--gamma", "0"], "error", False),
        ("szilard", ["szilard", "--cycles", "10"], "scenario", True),
        ("speed-demon", ["speed-demon", "--ratio", "100"], "scenario", True),
        ("h-theorem", ["h-theorem", "--states", "8"], "scenario", True),
        ("qiur", ["qiur", "--box-length", "1.0"], "scenario", True),
        ("einstein", ["einstein", "--n-components", "3", "--volume-ratio", "0.5",
                      "--trials", "1000000"], "scenario", True),
        ("fgr", ["fgr", "--gamma", "2.0", "--samples", "1000000"], "scenario", True),
        ("brownian", ["brownian", "--steps", "100", "--walkers", "100000"], "scenario", True),
        ("szilard-si", ["szilard", "--si"], "scenario", True),
        ("qiur-csv", ["qiur", "--format", "csv", "--output", str(csv_path)], "scenario", False),
        ("h-theorem-file", ["h-theorem", "--rates-file", str(rates_path), "--p0", p0],
         "scenario", True),
    ]
    return [
        ColdCliOp(label, argv, kind, workdir, next(seeds) if seeded else None,
                  csv_path if label == "qiur-csv" else None)
        for label, argv, kind, seeded in entries
    ]


def _relax(seed: int, workdir: Path) -> list:
    """h-theorem runs (many times per operator) and single-time evolve ops.

    The evolve ops take the expm path at n <= 64 and the ODE path above. A
    horizon is given in units of the largest escape rate max_i sum_j r_ij,
    which sets the step count of an explicit integrator, so a seed does not
    change the cost.
    """
    rng = np.random.default_rng(seed)
    seeds = _op_seeds(rng)
    ops: list = [
        CliOp(f"h-theorem-n{n}-s{samples}",
              ["h-theorem", "--states", str(n), "--samples", str(samples)], next(seeds))
        for n in (8, 64, 300)
        for samples in (25, 200)
    ]
    json_path, text_path = workdir / "rates.json", workdir / "rates.txt"
    p0 = _write_rates_file(json_path, rng, 64)
    ops.append(CliOp("h-theorem-json-n64",
                     ["h-theorem", "--rates-file", str(json_path), "--p0", p0], next(seeds)))
    np.savetxt(text_path, connected_rates(rng, 64, False, 0.3))
    ops.append(CliOp("h-theorem-text-n64",
                     ["h-theorem", "--rates-file", str(text_path)], next(seeds)))
    plan = [(n, stiff, 0.3) for n in (8, 64, 65, 100) for stiff in (False, True)]
    plan.append((100, True, 0.0))  # stiff spanning tree: sparse and badly conditioned
    for n, stiff, density in plan:
        rates = connected_rates(rng, n, stiff, density)
        p0 = rng.dirichlet(np.ones(n))
        kind = ("stiff" if stiff else "mild") + ("-tree" if density == 0.0 else "")
        t = EVOLVE_HORIZON / rates.sum(axis=0).max()
        ops.append(EvolveOp(f"evolve-n{n}-{kind}", rates, p0, t, next(seeds)))
    return ops


def _sample(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    seeds = _op_seeds(rng)
    runs = [
        ("fgr", ["fgr", "--samples", "1000000"]),
        ("einstein", ["einstein", "--trials", "1000000"]),
        ("speed-demon", ["speed-demon", "--attempts", "1000000"]),
        ("brownian-100", ["brownian", "--steps", "100", "--walkers", "100000"]),
        ("brownian-1000", ["brownian", "--steps", "1000", "--walkers", "100000"]),
        ("brownian-1000", ["brownian", "--steps", "1000", "--walkers", "100000"]),
        ("qiur-65536", ["qiur", "--grid-n", "65536"]),
        ("qiur-1048576", ["qiur", "--grid-n", str(2**20)]),
        ("szilard", ["szilard", "--cycles", "10000"]),
    ]
    ops: list = []
    for i, (name, argv) in enumerate(runs):
        fmt = "json" if i % 2 == 0 else "csv"
        ops.append(CliOp(f"{name}-{fmt}", argv, next(seeds), workdir / f"{name}-{fmt}.{fmt}"))
    ops.append(HistogramOp(next(seeds)))
    gamma = 1.0
    waiting = np.sort(rng.exponential(1.0 / gamma, 1_000_000))
    waiting.setflags(write=False)
    ops.append(CurveOp(gamma, next(seeds), waiting))
    return ops


#: Fewest timed passes per run: enough that the slowest op appears more than
#: ten times, so op_tail_s falls within one op's times. A cold-cli pass takes
#: about 17 s, so its runs go on op by op after the first pass.
MIN_PASSES = {"cold-cli": 1, "relax": 11, "sample": 6}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's inputs and return its fixed op list."""
    if workload == "cold-cli":
        return _cold_cli(seed, workdir)
    if workload == "relax":
        return _relax(seed, workdir)
    if workload == "sample":
        return _sample(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _outcome(op, result: Any, reported: set) -> str:
    if isinstance(result, Exception):
        if op.label not in reported:
            reported.add(op.label)
            traceback.print_exception(result, file=sys.stderr)
        return ERROR
    try:
        return op.check(result)
    except Exception:  # a check that cannot read the output fails the op
        if op.label not in reported:
            reported.add(op.label)
            traceback.print_exc(file=sys.stderr)
        return ERROR


class Measurement:
    """Op times, pass walls, outcomes and (when traced) per-pass layer metrics."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.pass_walls: list[float] = []
        self.outcomes: Counter[str] = Counter()
        self.layers: list[dict[str, float]] = []


def measure(ops: list, passes: Iterator[int], seconds: float, min_passes: int,
            rec: Recorder | None = None, whole_passes: bool = True) -> Measurement:
    """Run timed passes over the op list, closed loop, until the time is used.

    ``passes`` numbers the passes of the whole run. Once ``min_passes`` are
    done, a new pass starts only if a median pass still fits in ``seconds``.
    Without ``whole_passes`` the run instead goes on op by op, and the last
    pass stops where a median op no longer fits; ops that take seconds each
    then fill the time rather than leave most of it unused.
    """
    m = Measurement()
    reported: set[str] = set()
    h_theorem_ops = {i for i, op in enumerate(ops) if op.scenario == "h-theorem"}
    start = time.perf_counter()
    while True:
        k = next(passes)
        for op in ops:
            op.prepare(k)
        gc.collect()
        if rec is not None:
            rec.clear()
        results = []
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if (not whole_passes and len(m.pass_walls) >= min_passes
                    and time.perf_counter() - start + statistics.median(m.op_times) > seconds):
                break
            if rec is not None:
                rec.op = i
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # the op failed; it is counted and the run goes on
                result = exc
            results.append((time.perf_counter() - t0, result))
        complete = len(results) == len(ops)
        if complete:
            m.pass_walls.append(time.perf_counter() - pass_start)
            if rec is not None:
                m.layers.append(layer_metrics(rec, h_theorem_ops))
        for op, (elapsed, result) in zip(ops, results):
            m.op_times.append(elapsed)
            m.by_label[op.label].append(elapsed)
            m.outcomes[_outcome(op, result, reported)] += 1
        if not complete:
            return m
        used = time.perf_counter() - start
        next_pass = statistics.median(m.pass_walls) if whole_passes else 0.0
        if len(m.pass_walls) >= min_passes and used + next_pass > seconds:
            return m


def worker(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
           setup_only: bool) -> dict | None:
    """Set up, say READY, then measure; returns the worker's result."""
    ops = build(workload, seed, workdir)
    passes = itertools.count()
    print("READY", flush=True)
    if setup_only:
        return None
    in_process = workload != "cold-cli"
    if in_process:
        measure(ops, passes, 0.0, 1)  # warm-up: lazy set-up in numpy and scipy
    # Traced passes stay whole, since the layer metrics are per pass.
    plain = measure(ops, passes, seconds / 2 if trace else seconds, MIN_PASSES[workload],
                    whole_passes=in_process or trace)
    attempted = len(plain.op_times)
    outcomes = Counter(plain.outcomes)
    result: dict[str, Any] = {}
    if trace:
        rec = Recorder()
        if in_process:
            undo = instrument(rec)
        else:
            for op in ops:
                op.recorder = rec
        try:
            traced = measure(ops, passes, seconds / 2, MIN_PASSES[workload], rec)
        finally:
            if in_process:
                undo()
        attempted += len(traced.op_times)
        outcomes.update(traced.outcomes)
        result["layers"] = {
            key: statistics.median(layer[key] for layer in traced.layers)
            for key in traced.layers[0]
        }
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced.pass_walls) / statistics.median(plain.pass_walls)
        )
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(op.max_rss_kb for op in ops)
    tail, tail_pct = op_tail(plain.op_times)
    op_medians = {label: statistics.median(ts) for label, ts in plain.by_label.items()}
    result.update({
        "attempted": attempted,
        "errors": outcomes[ERROR],
        "verdict_fails": outcomes[VERDICT],
        "mismatches": outcomes[MISMATCH],
        "pass_walls_s": plain.pass_walls,
        "wall_s": pass_wall(op_medians.values()),
        "op_p50_s": op_p50(op_medians.values()),
        "op_tail_s": tail,
        "op_tail_percentile": tail_pct,
        "peak_rss_mb": rss_kb / 1024.0,
        "op_medians_s": op_medians,
    })
    return result
