#!/usr/bin/env python3
"""The paper's worked examples, reproduced step by step.

Walks through Figures 1, 4, and 5 of Wu & Shin (DSN 2005) on the exact
topologies reconstructed in ``repro.graph.generators``, printing each
decision the paper narrates:

- Figure 1: why the local detour D→C beats the SPF re-join D→B→S;
- Figure 4: the joins of E, G and F under the path-selection criterion
  with D_thresh = 0.3;
- Figure 5: F's join raising SHR_{S,D} from 2 to 4 and triggering E's
  reshape onto E→C→A→S.

Usage: python examples/paper_walkthrough.py
"""

from repro import figure1_topology, figure4_topology
from repro.core.candidates import enumerate_candidates
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import global_detour_recovery, local_detour_recovery
from repro.graph.generators import FIGURE_NODES, node_id
from repro.multicast.tree import MulticastTree
from repro.routing.failure_view import FailureSet

NAME = {v: k for k, v in FIGURE_NODES.items()}


def fmt_path(path) -> str:
    return " -> ".join(NAME[n] for n in path)


def figure1() -> None:
    print("=" * 64)
    print("Figure 1: local detour vs. global detour")
    print("=" * 64)
    topo = figure1_topology()
    S = node_id("S")

    tree = MulticastTree(topo, S)
    tree.graft([S, node_id("A"), node_id("C")])
    tree.graft([node_id("A"), node_id("D")])
    print(f"SPF tree (Fig 1a): links "
          f"{sorted((NAME[u], NAME[v]) for u, v in tree.tree_links())}")

    failure = FailureSet.links((node_id("A"), node_id("D")))
    print(f"\nlink L_AD fails; member D is disconnected")

    global_ = global_detour_recovery(topo, tree, node_id("D"), failure)
    local = local_detour_recovery(topo, tree, node_id("D"), failure)
    print(f"  global detour (what PIM does): {fmt_path(global_.restoration_path)}"
          f"  RD = {global_.recovery_distance:.0f}, new delay "
          f"{global_.new_end_to_end_delay:.0f}")
    print(f"  local detour (SMRP's choice): {fmt_path(local.restoration_path)}"
          f"  RD = {local.recovery_distance:.0f}, new delay "
          f"{local.new_end_to_end_delay:.0f}")
    print(f"\n=> the paper's RD_D = 2: only link C-D must be brought into the "
          f"tree, at the cost of a larger end-to-end delay\n")


def figures4_and_5() -> None:
    print("=" * 64)
    print("Figures 4 & 5: tree construction and reshaping (D_thresh = 0.3)")
    print("=" * 64)
    topo = figure4_topology()
    proto = SMRPProtocol(
        topo,
        node_id("S"),
        config=SMRPConfig(d_thresh=0.3, reshape_shr_threshold=2),
    )

    for label in ("E", "G", "F"):
        member = node_id(label)
        before = proto.stats.reshapes_performed
        # The paper lists every option; the join itself enumerates only
        # those inside the delay bound, so ask for the full list here,
        # before the join changes the tree.
        options = []
        for option in enumerate_candidates(
            topo, proto.tree, member, proto.shr_values()
        ):
            merge = option.merge_node
            path = (list(reversed(option.graft_path))
                    + list(reversed(proto.tree.path_from_source(merge)))[1:])
            options.append(f"    {fmt_path(path)} (merge at {NAME[merge]}, "
                           f"SHR {option.shr}, delay {option.total_delay:.2f})")
        selection = proto.join(member)
        print(f"\n{label} joins:")
        print(f"  the paper's options (unbounded enumeration):")
        print("\n".join(options))
        print(f"  within the delay bound {selection.bound:.2f} = 1.3 x "
              f"{selection.spf_delay:.2f}: {selection.num_feasible} "
              f"(the join enumerates only these)")
        print(f"  selected path: {fmt_path(reversed(selection.candidate.graft_path))}"
              f" (merge at {NAME[selection.candidate.merge_node]}, "
              f"SHR {selection.candidate.shr}, delay "
              f"{selection.candidate.total_delay:.2f})")
        shr = proto.shr_values()
        print(f"  SHR values now: "
              + ", ".join(f"{NAME[n]}={v}" for n, v in sorted(shr.items())))
        if proto.stats.reshapes_performed > before:
            print(f"  *** Condition I fired: the join raised an upstream SHR "
                  f"past the threshold and a reshape was performed (Fig 5)")

    tree = proto.tree
    print(f"\nfinal tree links: "
          f"{sorted((NAME[u], NAME[v]) for u, v in tree.tree_links())}")
    print(f"E's path: {fmt_path(tree.path_from_source(node_id('E')))} "
          f"(reshaped onto the A-C branch, exactly as Figure 5d)")


if __name__ == "__main__":
    figure1()
    figures4_and_5()
