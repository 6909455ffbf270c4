"""Microbenchmark for the compiled routing substrate (PR: CSR kernels).

Times the dict-based reference Dijkstra (the pre-CSR implementation,
retained in ``tests/routing/spf_reference.py``) against the CSR kernels
behind the public API, exercises the failure-aware route cache over a
worst-case-failure workload to record its hit/reuse/miss split, and wraps
up with the end-to-end ``figures --quick`` wall clock.

Standalone by design (no pytest): run it directly.

    PYTHONPATH=src python benchmarks/bench_routing.py --quick

Writes ``BENCH_routing.json`` (see ``--out``); CI's ``bench-smoke`` job
runs the ``--quick`` variant and uploads the artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.core.protocol import SMRPConfig, SMRPProtocol  # noqa: E402
from repro.graph.waxman import WaxmanConfig, waxman_topology  # noqa: E402
from repro.metrics.recovery_metrics import worst_case_recovery  # noqa: E402
from repro.multicast.spf_protocol import SPFMulticastProtocol  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.routing.batch import dijkstra_multi  # noqa: E402
from repro.routing.route_cache import RouteCache  # noqa: E402
from repro.routing.spf import dijkstra, dijkstra_with_barriers  # noqa: E402
from tests.routing.spf_reference import (  # noqa: E402
    dijkstra_reference,
    dijkstra_with_barriers_reference,
)


def bench(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_workload(n: int, topologies: int):
    """(topology, sources, barrier set) triples over a Waxman ensemble."""
    workload = []
    for seed in range(topologies):
        topo = waxman_topology(
            WaxmanConfig(n=n, alpha=0.5, beta=0.4, seed=seed)
        ).topology
        nodes = topo.nodes()
        sources = nodes[:: max(1, len(nodes) // 8)]
        barriers = {node for node in nodes if node % 3 == 0}
        workload.append((topo, sources, barriers))
    return workload


def bench_kernels(n: int, topologies: int, repeats: int) -> dict:
    workload = make_workload(n, topologies)

    def run_reference():
        for topo, sources, _ in workload:
            for s in sources:
                dijkstra_reference(topo, s)

    def run_csr():
        for topo, sources, _ in workload:
            for s in sources:
                dijkstra(topo, s)

    def run_reference_barriers():
        for topo, sources, barriers in workload:
            for s in sources:
                dijkstra_with_barriers_reference(topo, s, barriers=barriers)

    def run_csr_barriers():
        for topo, sources, barriers in workload:
            for s in sources:
                dijkstra_with_barriers(topo, s, barriers=barriers)

    # Warm the topology-level CSR/adjacency caches so both sides time the
    # search itself, not one-off compilation.
    run_csr()
    run_reference()
    searches = sum(len(sources) for _, sources, _ in workload)
    ref = bench(run_reference, repeats)
    csr = bench(run_csr, repeats)
    ref_b = bench(run_reference_barriers, repeats)
    csr_b = bench(run_csr_barriers, repeats)
    return {
        "workload": {"n": n, "topologies": topologies, "searches": searches},
        "dijkstra": {
            "reference_s": round(ref, 4),
            "csr_s": round(csr, 4),
            "speedup": round(ref / csr, 2),
        },
        "dijkstra_with_barriers": {
            "reference_s": round(ref_b, 4),
            "csr_s": round(csr_b, 4),
            "speedup": round(ref_b / csr_b, 2),
        },
    }


def bench_failure_cache(n: int, topologies: int) -> dict:
    """The §4.3.1 worst-case-failure sweep through the failure-aware cache.

    Every member is measured under all four strategy/tree pairings — the
    experiment runner's exact access pattern — once with the cache and
    once without, so the counter split shows where the savings come from.
    """
    obs = Observability()
    cache = RouteCache()
    scenarios = 0
    uncached_s = 0.0
    cached_s = 0.0
    for seed in range(topologies):
        topo = waxman_topology(
            WaxmanConfig(n=n, alpha=0.5, beta=0.4, seed=seed)
        ).topology
        members = topo.nodes()[1 :: max(1, n // 12)]
        spf_tree = SPFMulticastProtocol(topo, 0, self_check=False).build(members)
        smrp = SMRPProtocol(topo, 0, config=SMRPConfig(self_check=False))
        smrp_tree = smrp.build(members)
        for member in members:
            for tree in (spf_tree, smrp_tree):
                for strategy in ("local", "global"):
                    scenarios += 1
                    start = time.perf_counter()
                    worst_case_recovery(topo, tree, member, strategy)
                    uncached_s += time.perf_counter() - start
                    start = time.perf_counter()
                    worst_case_recovery(
                        topo, tree, member, strategy,
                        route_cache=cache, route_obs=obs,
                    )
                    cached_s += time.perf_counter() - start
    counters = obs.metrics.snapshot()["counters"]
    return {
        "workload": {
            "n": n,
            "topologies": topologies,
            "recovery_measurements": scenarios,
        },
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(uncached_s / cached_s, 2) if cached_s else None,
        "counters": {
            "hits": counters.get("cache.routes.hits", 0),
            "misses": counters.get("cache.routes.misses", 0),
            "reuse_proofs": counters.get("cache.routes.reuse_proofs", 0),
        },
        "stats": cache.stats,
    }


def bench_batch(quick: bool) -> dict:
    """The multi-root kernel vs looped scalar runs.

    One :func:`dijkstra_multi` call for every sampled root vs one
    :func:`dijkstra` call per root, on sparse Waxman graphs at controller
    scale.  Both sides produce bit-identical results (property-tested),
    so this is a pure kernel-scheduling comparison.
    """
    sizes = [100, 300] if quick else [100, 300, 1000]
    repeats = 3
    multi_root = []
    for n in sizes:
        topo = waxman_topology(
            WaxmanConfig(n=n, alpha=0.2, beta=0.25, seed=0)
        ).topology
        roots = topo.nodes()[:: max(1, n // 64)]
        dijkstra(topo, roots[0])  # warm the CSR compile
        dijkstra_multi(topo, roots[:1])  # warm the batch plan

        def run_looped():
            for root in roots:
                dijkstra(topo, root)

        def run_batched():
            dijkstra_multi(topo, roots)

        looped = bench(run_looped, repeats)
        batched = bench(run_batched, repeats)
        multi_root.append(
            {
                "n": n,
                "roots": len(roots),
                "looped_s": round(looped, 4),
                "batched_s": round(batched, 4),
                "speedup": round(looped / batched, 2),
            }
        )

    return {"multi_root_spf": multi_root}


def bench_figures_quick(repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "figures", "--quick"],
            check=True,
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
        )
        runs.append(round(time.perf_counter() - start, 2))
    return {
        "command": "python -m repro figures --quick",
        "runs_s": runs,
        "best_s": min(runs),
        "pre_csr_baseline_s": 15.39,  # BENCH_exec.json serial best
        "speedup_vs_baseline": round(15.39 / min(runs), 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller ensemble, single figures run (CI smoke setting)",
    )
    parser.add_argument(
        "--skip-figures",
        action="store_true",
        help="kernel and cache sections only",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_routing.json",
        help="output path (default: BENCH_routing.json at the repo root)",
    )
    args = parser.parse_args()

    if args.quick:
        n, topologies, repeats, fig_repeats = 40, 3, 3, 1
    else:
        n, topologies, repeats, fig_repeats = 80, 5, 5, 2

    # The end-to-end figures run is timed *first*: on burst-quota cgroups
    # the sustained micro-bench load above would otherwise exhaust the CPU
    # budget and inflate the subprocess wall clock by ~40%.
    figures = None if args.skip_figures else bench_figures_quick(fig_repeats)
    report = {
        "benchmark": "routing substrate (CSR kernels + failure-aware cache)",
        "command": "python benchmarks/bench_routing.py"
        + (" --quick" if args.quick else ""),
        "date": date.today().isoformat(),
        "kernels": bench_kernels(n, topologies, repeats),
        "batch": bench_batch(args.quick),
        "failure_cache": bench_failure_cache(n, topologies),
    }
    if figures is not None:
        report["figures_quick"] = figures

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
