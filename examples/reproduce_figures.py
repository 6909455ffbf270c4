#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation as a text table.

Runs the drivers for Figures 7-10 (§4.3) and prints the same series the
paper plots, annotated with the paper's claims.  The ``--quick`` flag uses
a reduced scenario grid; the default matches the paper's 100 scenarios
per configuration point (takes a few minutes).

Usage:
    python examples/reproduce_figures.py [--quick] [--figure 7|8|9|10]
"""

import argparse
import time

from repro.experiments.fig7 import run_figure7
from repro.experiments.figsweep import FIGURE_8, FIGURE_9, FIGURE_10


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid (4x2 instead of 10x10 scenarios)")
    parser.add_argument("--figure", type=int, choices=[7, 8, 9, 10],
                        help="regenerate a single figure only")
    args = parser.parse_args()

    topologies, member_sets = (4, 2) if args.quick else (10, 10)

    def banner(figure: int, title: str) -> None:
        print()
        print("=" * 72)
        print(f"Figure {figure}: {title}")
        print("=" * 72)

    figures = {
        7: lambda: run_figure7(topologies=5),
        8: lambda: FIGURE_8.run(topologies=topologies, member_sets=member_sets),
        9: lambda: FIGURE_9.run(topologies=topologies, member_sets=member_sets),
        10: lambda: FIGURE_10.run(topologies=topologies, member_sets=member_sets),
    }
    titles = {
        7: "local detour vs. global detour (N=100, N_G=30, α=0.2, D_thresh=0.3)",
        8: "the effect of D_thresh",
        9: "the effect of the average node degree (α)",
        10: "the effect of the group size N_G",
    }

    selected = [args.figure] if args.figure else [7, 8, 9, 10]
    for figure in selected:
        banner(figure, titles[figure])
        start = time.time()
        result = figures[figure]()
        if figure == 7:
            # The scatter is large; print the summary plus a sample.
            sample = result.points[:15]
            for p in sample:
                marker = "v" if p.below_diagonal else " "
                print(f"  topo {p.topology_seed}  member {p.member:3}  "
                      f"RD global {p.rd_global:7.2f}  RD local "
                      f"{p.rd_local:7.2f}  {marker}")
            print(f"  ... ({len(result.points)} points total)")
            print(f"\n  below y=x: {100 * result.fraction_below_diagonal:.0f}% "
                  f"of points; average reduction "
                  f"{100 * result.reduction.mean:.0f}% (paper: ~33%)")
        else:
            print(result.render())
        print(f"\n  [{time.time() - start:.1f}s]")


if __name__ == "__main__":
    main()
