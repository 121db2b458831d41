#!/usr/bin/env python3
"""demonlab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload relax --seed 1 --seconds 30 --trace 0

Run from any directory of a checkout that has ``src/demonlab``; nothing is
installed. Workloads (all closed loop, one client, one process):

- ``cold-cli``: ``python -m demonlab`` processes over a fixed corpus;
- ``relax``: in-process h-theorem runs at 8, 64 and 300 states, and
  operator construction plus one ``markov.evolve`` at 8 to 100 states;
- ``sample``: in-process Monte-Carlo, FFT and ledger scenarios.

Set-up is timed in fresh processes: interpreter start, ``import
demonlab.cli`` and input generation, up to the point where the first op
could run. The middle one of those processes goes on to measure. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics
from a separate traced run, with the import profile from ``-X importtime``.
Standard output ends with a record line (environment, per-op medians,
error and verdict fractions) and then the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cold-cli", "relax", "sample")

#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 5
#: ``-X importtime`` runs in a traced run; the import metrics are medians.
IMPORT_PROBES = 3
#: The whole run is stopped after this long (the limit for a run is 180 s).
RUN_TIMEOUT_S = 170.0

#: BLAS and OpenMP threads per process. More than one slows the small dense
#: kernels here (n <= 300) and lets a busy neighbouring CPU stall every op.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update((var, str(BLAS_THREADS)) for var in THREAD_VARS)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env.pop("DEMONLAB_SEED", None)  # inputs come only from --seed
    return env


def environment(env: dict[str, str]) -> dict:
    """Where the run ran: source version, CPUs, library versions, threads."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            sha = proc.stdout.strip() or None
        except OSError:  # no git: the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "demonlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_vars": {var: env.get(var) for var in THREAD_VARS},
    }


def run_worker(args: argparse.Namespace, workdir: Path, env: dict, setup_only: bool,
               procs: list[subprocess.Popen]) -> tuple[float, str]:
    """Run a fresh worker to its end; return its set-up time and its output.

    Set-up time runs from the start of the process until it says READY.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # A session of its own, so that a stuck worker is stopped with its children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    procs.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        raise BenchError(f"worker set-up failed (exit {proc.wait()})")
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return setup, out


def import_profile(env: dict) -> dict[str, float]:
    """Import metrics of ``import demonlab.cli`` in a fresh interpreter."""
    code = "import sys; n = len(sys.modules); import demonlab.cli; print(len(sys.modules) - n)"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    cumulative_us: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative_us.setdefault(fields[2].strip(), int(fields[1]))
    return {
        "import.cli_s": cumulative_us["demonlab.cli"] / 1e6,
        "import.modules_loaded": float(proc.stdout.strip()),
        "import.scipy_stats_s": cumulative_us.get("scipy.stats", 0) / 1e6,
    }


def _kill_all(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def orchestrate(args: argparse.Namespace, workdir: Path, env: dict) -> dict:
    procs: list[subprocess.Popen] = []
    watchdog = threading.Timer(RUN_TIMEOUT_S, _kill_all, (procs,))
    watchdog.start()
    try:
        # Set-up probes run before and after the measuring worker, so that
        # setup_s samples the machine across the whole run.
        probes = 0 if args.trace else SETUP_PROBES - 1
        setup_times = [run_worker(args, workdir, env, True, procs)[0] for _ in range(probes // 2)]
        setup, out = run_worker(args, workdir, env, False, procs)
        setup_times.append(setup)
        setup_times += [run_worker(args, workdir, env, True, procs)[0]
                        for _ in range(probes - probes // 2)]
        worker = json.loads(out.strip().splitlines()[-1])
        imports = [import_profile(env) for _ in range(IMPORT_PROBES)] if args.trace else []
    finally:
        watchdog.cancel()
        _kill_all(procs)
        for proc in procs:
            proc.wait()
            proc.stdout.close()
    worker["setup_s"] = statistics.median(setup_times)
    worker["setup_samples_s"] = setup_times
    worker["error_frac"] = worker["errors"] / worker["attempted"]
    worker["verdict_fail_frac"] = (worker["verdict_fails"] + worker["mismatches"]) / worker["attempted"]
    if imports:
        worker["layers"].update({key: statistics.median(p[key] for p in imports) for key in imports[0]})
    return worker


def result_line(worker: dict, trace: bool) -> dict:
    """The result object, with the metrics and units that BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = worker["errors"] + worker["mismatches"]
    if trace:
        values = dict(worker["layers"], **{
            "run.error_frac": worker["error_frac"],
            "run.verdict_fail_frac": worker["verdict_fail_frac"],
        })
    else:
        values = worker
    return {
        "correct": failed == 0,
        "attempted": worker["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "demonlab" / "__init__.py").is_file():
        print(f"bench: no demonlab source under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        from workloads import worker

        result = worker(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.workdir, args.setup_only)
        if result is not None:
            print(json.dumps(result))
        return 0
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(workdir)
    try:
        worker = orchestrate(args, workdir, env)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {key: worker[key] for key in worker if key != "layers"}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(env))
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(worker, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
