"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {sweep,churn,failover} --seed N \\
        --seconds S --trace {0,1}

Builds nothing: the program is the pure-Python package under ``src/``.
Prints the output digest and the host record, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Each run also leaves a record under ``perfbench/runs/``.
Exits 2 without a result when ``src/repro`` is missing.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any import.

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep", "churn", "failover")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # The checkout root (for this package) and src/ (for the program)
    # replace the script directory, whose module names are generic.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import execute

    import_s = time.perf_counter() - _T0
    result, record = execute(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s
    )
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"ops={record['ops']} trace={args.trace}")
    for problem in record["problems"]:
        print(f"perfbench: failed {problem}")
    print(f"digest sha256:{record['digest']}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
