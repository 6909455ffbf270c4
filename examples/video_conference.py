#!/usr/bin/env python3
"""A QoS-sensitive video conference under membership churn.

The paper motivates SMRP with "video conferencing, remote monitoring...
applications characterized by stringent QoS requirements" (§3.1), and its
tree-reshaping mechanism with dynamic joins/leaves (§3.2.3).  This example
runs a conference session over a 100-node ISP-like topology:

1. participants join and leave as a Poisson churn process,
2. the protocol reshapes the tree as the group evolves (Conditions I/II),
3. midway, a backbone link suffers a persistent failure and the affected
   participants recover through local detours,
4. final report: tree quality, reshaping activity, worst-case recovery
   exposure of every active participant.

Usage: python examples/video_conference.py [seed]
"""

import sys

import numpy as np

from repro import SMRPConfig, SMRPProtocol, WaxmanConfig, waxman_topology
from repro.core.recovery import repair_tree, worst_case_failure
from repro.errors import UnrecoverableFailureError
from repro.metrics.recovery_metrics import worst_case_recovery
from repro.multicast.group import GroupAction, GroupWorkload
from repro.routing.spf import dijkstra


def main(seed: int = 11) -> None:
    print(f"=== video conference under churn (seed {seed}) ===\n")
    network = waxman_topology(
        WaxmanConfig(n=100, alpha=0.25, beta=0.25, seed=seed)
    ).topology
    rng = np.random.default_rng(seed + 1)
    source = 0  # the conference speaker / mixer

    workload = GroupWorkload.churn(
        network,
        source,
        rng,
        duration=600.0,
        mean_holding_time=240.0,
        mean_interarrival=6.0,
    )
    print(f"churn workload: {len(workload)} membership events over 600s "
          f"(Poisson arrivals, exponential holding times)\n")

    proto = SMRPProtocol(
        network,
        source,
        config=SMRPConfig(d_thresh=0.3, reshape_shr_threshold=2),
    )

    failure_time = 300.0
    failed = False
    for event in workload:
        if not failed and event.time >= failure_time and proto.tree.members:
            failed = True
            victim = sorted(proto.tree.members)[0]
            failure = worst_case_failure(proto.tree, victim)
            affected = proto.tree.disconnected_members(failure)
            print(f"t={failure_time:.0f}s  PERSISTENT FAILURE "
                  f"({failure.describe()}): {len(affected)} participants cut off")
            report = repair_tree(network, proto.tree, failure, strategy="local")
            proto.tree = report.repaired_tree
            proto.state.rebind(report.repaired_tree)
            print(f"          local recovery re-attached "
                  f"{len(report.recoveries)} participants "
                  f"(total new-path distance "
                  f"{report.total_recovery_distance:.1f}); "
                  f"{len(report.unrecoverable)} unrecoverable\n")
        if event.action is GroupAction.JOIN and not proto.tree.is_member(event.node):
            proto.join(event.node)
        elif event.action is GroupAction.LEAVE and proto.tree.is_member(event.node):
            proto.leave(event.node)

    members = sorted(proto.tree.members)
    print(f"t=600s  conference ends with {len(members)} active participants")
    print(f"  joins processed:   {proto.stats.joins}")
    print(f"  leaves processed:  {proto.stats.leaves}")
    print(f"  reshapes performed: {proto.stats.reshapes_performed} "
          f"(of {proto.stats.reshape_evaluations} evaluations)\n")

    spf = dijkstra(network, source)
    stretches = [
        proto.tree.delay_from_source(m) / spf.dist[m] for m in members
    ]
    print(f"per-participant delay stretch vs. unicast optimum: "
          f"mean {np.mean(stretches):.3f}, worst {max(stretches):.3f}")
    print("  (joins are bounded by 1 + D_thresh = 1.30; emergency recovery "
          "paths trade that bound away for restoration speed, §3.1)\n")

    print("worst-case recovery exposure of the final tree:")
    distances = []
    for m in members[:10]:
        measurement = worst_case_recovery(network, proto.tree, m, "local")
        if measurement.recovered:
            distances.append(measurement.recovery_distance)
            print(f"  participant {m:3}: recovery distance "
                  f"{measurement.recovery_distance:7.1f} via node "
                  f"{measurement.result.attach_node}")
        else:
            print(f"  participant {m:3}: no detour exists (bridge failure)")
    if distances:
        print(f"\n=> mean local recovery distance {np.mean(distances):.1f} "
              f"over the sampled participants")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
