"""Run every workload once and print all their metrics in one table.

Usage, from the repository root::

    python3 perfbench/summary.py [--seed N] [--seconds S]

Prints the 15 end-to-end metrics (five per workload) with their units.
Each workload's line also gives its ops attempted and failed, whether
its outputs checked out, and its output digest.  ``--seconds``
defaults to ``run_seconds`` from ``BENCHMARK.json``.  Exits 1 when any
workload fails or reports incorrect outputs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    status = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exited {completed.returncode}\n{completed.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        digest = next(line for line in lines if line.startswith("digest "))
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {digest}")
        for name, metric in result["metrics"].items():
            print(f"  {workload:9s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
