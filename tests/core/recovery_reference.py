"""Whole-graph and whole-tree reference implementations of restoration.

The library answers its post-failure questions with searches that stop
at their answer, keeps one surviving set per (tree shape, failure), and
copies a partition in one pass.  The functions here are the direct
specifications those optimisations must match: a full post-failure
:func:`~repro.routing.spf.dijkstra` per question, a fresh tree walk per
query, and a partition rebuilt by grafting every surviving link one at a
time.  Tests compare the two, answer for answer.
"""

from __future__ import annotations

from repro.core.recovery import (
    RecoveryResult,
    TreeRepairReport,
    _already_connected,
    _truncate_at_first_contact,
)
from repro.graph.topology import edge_key
from repro.multicast.tree import MulticastTree
from repro.routing.failure_view import FailureSet
from repro.routing.spf import dijkstra


def surviving_component(tree: MulticastTree, failures: FailureSet) -> set:
    """The surviving component by a fresh walk from the source."""
    if failures.node_failed(tree.source):
        return set()
    component = {tree.source}
    stack = [tree.source]
    while stack:
        node = stack.pop()
        for child in tree.children(node):
            if failures.node_failed(child) or not failures.link_usable(node, child):
                continue
            component.add(child)
            stack.append(child)
    return component


def affected_by(tree: MulticastTree, failures: FailureSet) -> bool:
    """Whether any on-tree node or tree link is failed, by a whole-tree scan."""
    if any(failures.node_failed(node) for node in tree.on_tree_nodes()):
        return True
    return any(not failures.link_usable(u, v) for u, v in tree.tree_links())


def surviving_subtree(tree: MulticastTree, failures: FailureSet) -> MulticastTree:
    """The partition copy, grafting each surviving link breadth-first."""
    surviving = surviving_component(tree, failures)
    rebuilt = MulticastTree(tree.topology, tree.source)
    frontier = [tree.source]
    while frontier:
        node = frontier.pop(0)
        for child in tree.children(node):
            if child not in surviving:
                continue
            rebuilt.graft([node, child], member=False)
            frontier.append(child)
    for member in tree.members:
        if member in surviving:
            rebuilt.add_member(member)
    rebuilt.trim_dead_branches()
    return rebuilt


def detour(topology, tree, member, failures, strategy) -> RecoveryResult | None:
    """One member's detour from a full post-failure SPF; ``None`` when the
    strategy cannot reach the surviving tree (or the source)."""
    surviving = surviving_component(tree, failures)
    if not surviving:
        return None
    if member in surviving:
        return _already_connected(tree, member, strategy)
    paths = dijkstra(topology, member, weight="delay", failures=failures)
    if strategy == "local":
        reachable = [node for node in surviving if node in paths.dist]
        if not reachable:
            return None
        target = min(reachable, key=lambda node: (paths.dist[node], node))
    else:
        if tree.source not in paths.dist:
            return None
        target = tree.source
    path = _truncate_at_first_contact(paths.path_to(target), surviving)
    attach = path[-1]
    return RecoveryResult(
        member=member,
        strategy=strategy,
        attach_node=attach,
        restoration_path=tuple(path),
        recovery_distance=topology.path_delay(path),
        recovery_hops=len(path) - 1,
        new_end_to_end_delay=tree.delay_from_source(attach)
        + topology.path_delay(path),
    )


def repair(topology, tree, failures, strategy="local") -> TreeRepairReport:
    """``repair_tree`` with a fresh full SPF for every pending member,
    every round, and a fresh surviving walk per member."""
    repaired = surviving_subtree(tree, failures)
    report = TreeRepairReport(repaired_tree=repaired, strategy=strategy)
    cut = sorted(
        m for m in tree.members if m not in surviving_component(tree, failures)
    )
    pending = [m for m in cut if not failures.node_failed(m)]
    report.unrecoverable.extend(m for m in cut if failures.node_failed(m))
    while pending:
        options = []
        for member in pending:
            result = detour(topology, repaired, member, failures, strategy)
            if result is not None:
                options.append((result.recovery_distance, member, result))
        if not options:
            report.unrecoverable.extend(sorted(pending))
            break
        if strategy == "local":
            options.sort(key=lambda item: (item[0], item[1]))
        _, chosen_member, chosen = options[0]
        graft = list(reversed(chosen.restoration_path))
        repaired.graft(graft)
        report.recoveries.append(chosen)
        report.new_links.update(edge_key(u, v) for u, v in zip(graft, graft[1:]))
        pending.remove(chosen_member)
    return report


def convergence_times(model, topology, failures) -> dict:
    """Every router's convergence time from one full SPF per LSA origin
    and a parent-chain walk per router."""
    origins = model._advertising_routers(topology, failures)
    survivors = [node for node in topology.nodes() if not failures.node_failed(node)]
    if not origins:
        return {node: 0.0 for node in survivors}
    arrival: dict = {}
    for origin in origins:
        paths = dijkstra(topology, origin, weight="delay", failures=failures)
        for node in survivors:
            if node not in paths.dist:
                continue
            hops = len(paths.path_to(node)) - 1
            lsa_time = (
                model.detection_delay
                + model.flooding_delay_factor * paths.dist[node]
                + model.per_hop_processing * hops
            )
            arrival[node] = max(arrival.get(node, 0.0), lsa_time)
    return {
        node: arrival[node] + model.spf_compute_time
        if node in arrival
        else model.detection_delay
        for node in survivors
    }


def tree_state(tree: MulticastTree) -> tuple:
    """Every maintained structure of a tree, dict insertion order included."""
    return (
        list(tree._parent.items()),  # noqa: SLF001 - the layout is the point
        list(tree._children.items()),  # noqa: SLF001
        list(tree._count.items()),  # noqa: SLF001
        list(tree._size.items()),  # noqa: SLF001
        list(tree._members),  # noqa: SLF001
    )


def report_digest(report: TreeRepairReport) -> tuple:
    return (
        report.strategy,
        report.recoveries,
        sorted(report.unrecoverable),
        sorted(report.new_links),
        tree_state(report.repaired_tree),
    )
