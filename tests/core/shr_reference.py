"""Whole-tree walk oracles for the SMRP state kept incrementally in ``src/``.

:class:`~repro.multicast.tree.MulticastTree` maintains ``N_R`` and sorted
child tuples as it mutates; :mod:`repro.core.shr` and
:class:`~repro.core.state.StateManager` read that maintained state.
These are the straight-from-the-definition computations they replaced,
kept with the tests as the executable specification:

- the tree is read only through ``on_tree_nodes``/``parent``/``is_member``
  — never through the maintained counts or child tuples under test;
- ``N_R`` is a bottom-up count over the subtree (§3.2.1), SHR is
  Eq. (1) summed along each node's path, and the adjusted SHR of
  reshaping (§3.2.3) is the per-node overlap form;
- :class:`ReferenceState` is the Condition-I baseline rule as a full
  rebuild after every change: a node that is new, or whose upstream
  differs from the last rebuild, starts from its upstream's SHR;
- :class:`FullScanState` is the state manager under the rules that
  branch scoping replaced: every change drops the whole SHR table, and
  Condition I checks every member.
"""

from __future__ import annotations

from repro.core.state import StateManager
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree


def children_reference(tree: MulticastTree) -> dict[NodeId, list[NodeId]]:
    """Each node's children, derived from the parent relation, sorted."""
    kids: dict[NodeId, list[NodeId]] = {node: [] for node in tree.on_tree_nodes()}
    for node in tree.on_tree_nodes():
        parent = tree.parent(node)
        if parent is not None:
            kids[parent].append(node)
    return kids


def member_counts_reference(tree: MulticastTree) -> dict[NodeId, int]:
    """``N_R`` for every on-tree node by one bottom-up walk."""
    kids = children_reference(tree)
    order = [tree.source]
    for node in order:
        order.extend(kids[node])
    counts: dict[NodeId, int] = {}
    for node in reversed(order):
        counts[node] = int(tree.is_member(node)) + sum(
            counts[child] for child in kids[node]
        )
    return counts


def _path(tree: MulticastTree, node: NodeId) -> list[NodeId]:
    path = [node]
    while (parent := tree.parent(path[-1])) is not None:
        path.append(parent)
    path.reverse()
    return path


def shr_table_reference(tree: MulticastTree) -> dict[NodeId, int]:
    """``SHR_{S,R}`` for every node via Eq. (1): ``N_L`` summed along the path."""
    counts = member_counts_reference(tree)
    return {
        node: sum(counts[hop] for hop in _path(tree, node)[1:])
        for node in tree.on_tree_nodes()
    }


def link_utilisation_reference(tree: MulticastTree) -> dict[tuple[NodeId, NodeId], int]:
    """``N_L`` per tree link: the members below its child-side end."""
    counts = member_counts_reference(tree)
    utilisation = {}
    for node in tree.on_tree_nodes():
        parent = tree.parent(node)
        if parent is not None:
            utilisation[(min(node, parent), max(node, parent))] = counts[node]
    return utilisation


def adjusted_shr_table_reference(
    tree: MulticastTree, mover: NodeId
) -> dict[NodeId, int]:
    """SHR of every node as if ``mover``'s subtree had left (§3.2.3).

    Each member below ``mover`` is subtracted once for every link the
    candidate's on-tree path shares with the mover's.
    """
    counts = member_counts_reference(tree)
    shr = shr_table_reference(tree)
    mover_links = set(_path(tree, mover)[1:])
    return {
        node: shr[node]
        - counts[mover] * sum(1 for hop in _path(tree, node)[1:] if hop in mover_links)
        for node in tree.on_tree_nodes()
    }


class ReferenceState:
    """Condition-I baselines rebuilt from scratch after every change."""

    def __init__(self, tree: MulticastTree) -> None:
        self.tree = tree
        self.baseline: dict[NodeId, tuple[NodeId, int]] = {}
        self.rebuild()

    def rebuild(self) -> None:
        """Re-derive SHR, keeping each baseline whose upstream still holds."""
        self.shr = shr_table_reference(self.tree)
        fresh = {}
        for node in self.tree.on_tree_nodes():
            upstream = self.tree.parent(node)
            if upstream is None:
                continue
            kept = self.baseline.get(node)
            if kept is not None and kept[0] == upstream:
                fresh[node] = kept
            else:
                fresh[node] = (upstream, self.shr[upstream])
        self.baseline = fresh

    def rebind(self, tree: MulticastTree) -> None:
        self.tree = tree
        self.rebuild()

    def record(self, node: NodeId) -> None:
        upstream = self.tree.parent(node)
        if upstream is not None:
            self.baseline[node] = (upstream, self.shr[upstream])

    def condition_i_delta(self, node: NodeId) -> int:
        upstream = self.tree.parent(node)
        if upstream is None:
            return 0
        return self.shr[upstream] - self.baseline[node][1]


class FullScanState(StateManager):
    """A :class:`~repro.core.state.StateManager` that re-derives the whole
    SHR table after every change and checks every member for Condition I.

    A session run on it must build the same trees, with the same
    protocol statistics and message counters (deferred pulls included),
    as one run on the branch-scoped manager.
    """

    def _after_change(self, attached, branch, grown):
        self._shr = None
        super()._after_change(attached, branch, grown)

    def condition_i_triggered(self, threshold: int) -> list[NodeId]:
        return [
            node
            for node in sorted(self.tree.members)
            if self.condition_i_delta(node) >= threshold
        ]
