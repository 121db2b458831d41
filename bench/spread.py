#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload sample --runs 10 [--first-seed 1] [--save runs.jsonl]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the median,
beside the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged. Runs go one after another, never in parallel.
``--save`` appends each run's record and result lines to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if args.save:
                with args.save.open("a") as fh:
                    fh.write("\n".join(lines[-2:]) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:13s} {name:12s} median {med:.4g}  spread {spread:.3f}"
                  f"  bound {bounds[name]}{flag}")
            summary[workload][name] = {"median": med, "spread": spread, "values": vals}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
