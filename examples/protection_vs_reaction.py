#!/usr/bin/env python3
"""The fault-tolerance spectrum: reactive, survivable-reactive, proactive.

The paper's related work (§2) frames three design points for surviving
persistent failures:

1. **reactive** — today's PIM/OSPF: rebuild after re-convergence
   (cheapest standing state, slowest recovery),
2. **SMRP** — survivable trees + local detours (small standing premium,
   short recovery),
3. **proactive protection** — Han & Shin's dependable connections /
   Medard's redundant trees: pre-installed backups (largest standing
   cost, instant switchover).  Here it is the backup-tree engine: for
   each of the ``F`` most-loaded tree links, the complete tree the
   session would rebuild if that link failed is installed ahead of time.

This example builds all three on the same network and group, applies the
same worst-case failure to each member, and prints the cost/recovery
frontier, which members each protected link covers, the members no
backup can reach (the link is a bridge for them), and one switchover.

Usage: python examples/protection_vs_reaction.py [seed]
"""

import sys

import numpy as np

from repro import SMRPConfig, SMRPProtocol, SPFMulticastProtocol, WaxmanConfig, waxman_topology
from repro.metrics.recovery_metrics import worst_case_recovery
from repro.multicast.backup_trees import DEFAULT_BUDGET, BackupTreeProtocol
from repro.routing.failure_view import FailureSet


def main(seed: int = 5) -> None:
    print(f"=== protection vs. reaction (seed {seed}) ===\n")
    network = waxman_topology(
        WaxmanConfig(n=100, alpha=0.25, beta=0.25, seed=seed)
    ).topology
    rng = np.random.default_rng(seed + 1)
    members = sorted(int(m) for m in rng.choice(range(1, 100), 25, replace=False))

    spf = SPFMulticastProtocol(network, 0).build(members)
    smrp = SMRPProtocol(network, 0, config=SMRPConfig(d_thresh=0.3)).build(members)
    protection = BackupTreeProtocol(network, 0, mode="protection")
    protection.build(members)
    working = protection.tree.tree_cost()
    reserved = protection.standing_cost()

    def mean_rd(tree, strategy):
        values = []
        for m in members:
            result = worst_case_recovery(network, tree, m, strategy)
            if result.recovered:
                values.append(result.recovery_distance)
        return sum(values) / len(values) if values else float("nan")

    print(f"{'design point':<26} {'standing cost':>14} {'worst-case RD':>14}")
    print("-" * 56)
    print(f"{'PIM/OSPF (reactive)':<26} {spf.tree_cost():>14.0f} "
          f"{mean_rd(spf, 'global'):>14.1f}")
    print(f"{'SMRP (survivable)':<26} {smrp.tree_cost():>14.0f} "
          f"{mean_rd(smrp, 'local'):>14.1f}")
    print(f"{'protection (proactive)':<26} {working + reserved:>14.0f} "
          f"{'0.0 (switch)':>14}")
    print(f"\nprotection premium: the backup trees reserve "
          f"{len(protection.standing_links())} links beyond the SPF tree, "
          f"+{100 * reserved / working:.0f}% standing cost")

    tree = protection.tree
    links = protection.backups.links(tree)
    print(f"\nprotected links (budget F = {DEFAULT_BUDGET}, most-loaded first) "
          f"and the members each one covers:")
    covered, unprotectable = set(), set()
    for link in links:
        failure = FailureSet.links(link)
        backup = protection.backups.lookup(tree, failure)
        cut = sorted(tree.disconnected_members(failure))
        reached = [m for m in cut if m not in backup.unprotectable]
        covered.update(reached)
        unprotectable.update(backup.unprotectable)
        print(f"  {link[0]:>3}-{link[1]:<3} {len(reached):>2} members: "
              f"{' '.join(map(str, reached))}")
    print(f"{len(covered)}/{len(members)} members are covered; a failure "
          f"of any other link falls back to the global rejoin")
    print(f"members no backup can reach (a protected link is a bridge for "
          f"them): {' '.join(map(str, sorted(unprotectable))) or 'none'}")

    # Show one concrete switchover.
    failure = FailureSet.links(links[0])
    report = protection.plan_repair(failure)
    recovery = report.recoveries[0]
    m = recovery.member
    before = tree.path_from_source(m)
    after = report.repaired_tree.path_from_source(m)
    print(f"\nexample switchover for member {m}:")
    print(f"  working: {' -> '.join(map(str, before))}")
    print(f"  failure: {failure.describe()}")
    print(f"  backup:  {' -> '.join(map(str, after))} "
          f"(recovery distance {recovery.recovery_distance:.1f}, delay penalty "
          f"{recovery.new_end_to_end_delay - network.path_delay(before):+.1f})")

    print("\n=> SMRP buys most of protection's recovery speed at a fraction "
          "of its standing cost, and its local detours serve a failure on "
          "any link, not only on the few links protection pays to back up")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
