"""The multicast tree data structure.

A :class:`MulticastTree` is a source-rooted tree embedded in a
:class:`~repro.graph.topology.Topology`.  It distinguishes *on-tree nodes*
(every router the tree passes through) from *members* (the receivers of
§3.2 that issue joins/leaves); an on-tree node may be a pure relay.

The structure supports the operations every protocol in this library is
built from:

- ``graft(path)`` — splice a new branch onto the tree (a member join),
- ``prune(member)`` — remove a member and any branch that only served it
  (a member leave, §3.2.2),
- ``move_subtree(node, path)`` — re-hang a node (with its entire subtree)
  onto a new attachment path (tree reshaping, §3.2.3, and failure
  recovery, §4.3.1),
- ``trim_dead_branches()`` — drop every relay left serving no member,
- ``surviving_subtree(failures)`` — the partition copy restoration
  starts from, built in one pass,
- queries used by the SHR metric and the evaluation metrics: on-tree
  paths, subtree member counts, link/cost/delay aggregates, and the
  partition induced by a failure (computed once per tree shape and
  failure set).

Every mutator keeps three derived structures current as it goes:
``N_R``, the member count of each node's subtree (§3.2.1); the node
count of each subtree; and each node's children as a sorted tuple.  A
change touches the counts only along the path it alters — one walk
toward the source, the hops a ``Join_Req`` or ``Leave_Req`` travels — so
the SHR metric (:mod:`repro.core.shr`) and the state manager's message
accounting read counts instead of re-deriving them with a tree walk.
Once a candidate search has asked for them (:meth:`on_tree_flags`), the
mutators also keep one on-tree flag per node of the topology's compiled
graph, the barrier set of every join search.

All mutators validate their inputs against the topology and the current
tree, and the structure can always be re-checked with
:func:`repro.multicast.validation.check_tree_invariants`, which also
compares the maintained counts and child order against a fresh walk.
"""

from __future__ import annotations

from bisect import bisect_left
from types import MappingProxyType
from typing import Mapping

from repro.errors import MulticastError, NotOnTreeError, TopologyError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.routing.failure_view import NO_FAILURES, FailureSet

#: Failure sets whose surviving component a tree keeps per structure.  A
#: sweep asks one per top-level branch (the §4.3.1 worst case fails the
#: source-incident link); a restoration asks one.
_SURVIVING_MEMO = 16


class MulticastTree:
    """A source-rooted multicast distribution tree.

    Parameters
    ----------
    topology:
        The network the tree is embedded in.
    source:
        The multicast source ``S`` (the tree root; the paper folds the
        rendezvous-point case into this one, footnote 2).
    """

    def __init__(self, topology: Topology, source: NodeId) -> None:
        if not topology.has_node(source):
            raise TopologyError(f"source {source} is not in the topology")
        self.topology = topology
        self.source = source
        self._parent: dict[NodeId, NodeId | None] = {source: None}
        # Children sorted ascending; N_R per node (members in its subtree);
        # on-tree nodes per subtree, the node itself included.
        self._children: dict[NodeId, tuple[NodeId, ...]] = {source: ()}
        self._count: dict[NodeId, int] = {source: 0}
        self._size: dict[NodeId, int] = {source: 1}
        self._members: set[NodeId] = set()
        # surviving_component answers for the current structure, per
        # failure set; every structural change (_attach/_unlink) clears it.
        self._surviving: dict[FailureSet, set[NodeId]] = {}
        # On-tree flags indexed like _flags_csr, the compiled graph they
        # were built for; None until a search asks (on_tree_flags).
        self._flags: bytearray | None = None
        self._flags_csr = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[NodeId]:
        """The current receiver set."""
        return frozenset(self._members)

    def on_tree_nodes(self) -> list[NodeId]:
        """Every node the tree passes through, sorted."""
        return sorted(self._parent)

    def is_on_tree(self, node: NodeId) -> bool:
        return node in self._parent

    def on_tree_flags(self, csr) -> bytearray:
        """One byte per node of ``csr`` (the topology's compiled graph),
        1 where the node is on the tree: the barrier set of a candidate
        search.

        Built on the first call for ``csr`` and kept current by every
        mutator after that, so a search reads it instead of rebuilding
        it; a call with another compiled graph (the topology changed)
        builds it afresh.  Callers must not write to it.
        """
        if self._flags_csr is not csr:
            flags = bytearray(csr.num_nodes)
            index_of = csr.index_of
            for node in self._parent:
                flags[index_of[node]] = 1
            self._flags = flags
            self._flags_csr = csr
        return self._flags

    def is_member(self, node: NodeId) -> bool:
        return node in self._members

    def parent(self, node: NodeId) -> NodeId | None:
        """Upstream node ``R_u`` of ``node`` (None for the source)."""
        try:
            return self._parent[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Downstream neighbors of ``node``, sorted."""
        try:
            return self._children[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def children_map(self) -> Mapping[NodeId, tuple[NodeId, ...]]:
        """Every on-tree node's sorted children, as a read-only live view.

        For whole-tree passes (the SHR tables of :mod:`repro.core.shr`),
        which would otherwise pay a :meth:`children` call per node.
        """
        return MappingProxyType(self._children)

    def tree_links(self) -> set[Edge]:
        """All links of the tree, as canonical edges."""
        return {
            edge_key(node, parent)
            for node, parent in self._parent.items()
            if parent is not None
        }

    def path_from_source(self, node: NodeId) -> list[NodeId]:
        """The on-tree path ``P_T(S, node)`` as ``[S, …, node]``."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        path: list[NodeId] = []
        cursor: NodeId | None = node
        while cursor is not None:
            path.append(cursor)
            cursor = self._parent[cursor]
        path.reverse()
        if path[0] != self.source:
            raise MulticastError(
                f"corrupt tree: path from {node} terminates at {path[0]}"
            )
        return path

    def delay_from_source(self, node: NodeId) -> float:
        """End-to-end delay ``D_{S,node}`` along the tree."""
        return self.topology.path_delay(self.path_from_source(node))

    def tree_cost(self) -> float:
        """Total cost of the tree (the paper's ``Cost_T``)."""
        return sum(self.topology.cost(u, v) for u, v in self.tree_links())

    def total_delay(self) -> float:
        """Sum of link delays over the tree (an auxiliary size measure)."""
        return sum(self.topology.delay(u, v) for u, v in self.tree_links())

    def subtree_nodes(self, node: NodeId) -> set[NodeId]:
        """All on-tree nodes in the subtree rooted at ``node`` (inclusive)."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        result: set[NodeId] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self._children[current])
        return result

    def subtree_member_count(self, node: NodeId) -> int:
        """``N_R``: members in the subtree rooted at ``node`` (paper §3.2.1)."""
        try:
            return self._count[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def subtree_size(self, node: NodeId) -> int:
        """On-tree nodes in the subtree rooted at ``node`` (inclusive):
        ``len(subtree_nodes(node))`` without the walk."""
        try:
            return self._size[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def member_counts(self) -> dict[NodeId, int]:
        """``N_R`` for every on-tree node (a copy of the maintained counts)."""
        return dict(self._count)

    def downstream_interface_counts(self, node: NodeId) -> dict[NodeId, int]:
        """``N_R^i`` per downstream interface ``i`` (keyed by child node)."""
        return {child: self._count[child] for child in self.children(node)}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_member(self, node: NodeId) -> None:
        """Mark an already-on-tree node as a receiver."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        if node not in self._members:
            self._members.add(node)
            self._shift(self._count, node, 1)

    def graft(self, path: list[NodeId], member: bool = True) -> None:
        """Splice a branch onto the tree.

        ``path[0]`` must already be on the tree (the merge node ``R``);
        every subsequent node must be new.  The final node becomes a member
        unless ``member`` is False (used when relaying for a sub-domain).
        """
        if len(path) < 1:
            raise MulticastError("graft path is empty")
        merge = path[0]
        if merge not in self._parent:
            raise NotOnTreeError(merge)
        for node in path[1:]:
            if node in self._parent:
                raise MulticastError(
                    f"graft path revisits on-tree node {node}; it must merge "
                    f"exactly once (at {merge})"
                )
            if not self.topology.has_node(node):
                raise TopologyError(f"graft path uses unknown node {node}")
        for u, v in zip(path, path[1:]):
            if not self.topology.has_link(u, v):
                raise TopologyError(f"graft path uses missing link {edge_key(u, v)}")
        added = len(path) - 1
        for below, (u, v) in enumerate(zip(path, path[1:])):
            self._children[v] = ()
            self._count[v] = 0
            self._size[v] = added - below
            self._attach(u, v)
        self._shift(self._size, merge, added)
        if member:
            self.add_member(path[-1])

    def prune(self, member: NodeId) -> list[NodeId]:
        """Remove a member; trim any branch that served only this member.

        Mirrors the paper's ``Leave_Req`` walk: remove membership, then
        walk toward the source deleting relay nodes that now have no
        children and are not members themselves.  Returns the list of
        nodes removed from the tree (possibly empty when the member is an
        interior node that must keep relaying).
        """
        if member not in self._members:
            raise MulticastError(f"node {member} is not a member")
        self._members.discard(member)
        self._shift(self._count, member, -1)
        return self._release_dead_branch(member)

    def move_subtree(self, node: NodeId, new_path: list[NodeId]) -> None:
        """Re-hang ``node`` (and its whole subtree) via ``new_path``.

        ``new_path`` runs from an on-tree merge node to ``node``:
        ``new_path[0]`` is on the tree (and outside ``node``'s subtree),
        ``new_path[-1] == node``, and interior nodes are fresh.  This is
        the path-switching step of tree reshaping (§3.2.3) and of local
        recovery: the old upstream branch is released afterwards exactly
        like a member departure.
        """
        if node not in self._parent:
            raise NotOnTreeError(node)
        if node == self.source:
            raise MulticastError("cannot move the source")
        if not new_path or new_path[-1] != node:
            raise MulticastError(f"new path must end at {node}, got {new_path}")
        merge = new_path[0]
        if merge not in self._parent:
            raise NotOnTreeError(merge)
        cursor: NodeId | None = merge
        while cursor is not None:
            if cursor == node:
                raise MulticastError(
                    f"merge node {merge} lies inside the subtree of {node}; "
                    "moving there would create a cycle"
                )
            cursor = self._parent[cursor]
        for middle in new_path[1:-1]:
            if middle in self._parent:
                raise MulticastError(
                    f"new path interior node {middle} is already on the tree"
                )
            if not self.topology.has_node(middle):
                raise TopologyError(f"new path uses unknown node {middle}")
        for u, v in zip(new_path, new_path[1:]):
            if not self.topology.has_link(u, v):
                raise TopologyError(f"new path uses missing link {edge_key(u, v)}")

        # Make before break (§3.2.3): detach from the old parent, attach
        # along the new path, and only then release the dead upstream
        # branch — the merge node may itself sit on the old branch (e.g.
        # re-attaching under the same parent), so pruning must come last.
        moving = self._count[node]
        moving_size = self._size[node]
        old_parent = self._unlink(node)
        self._shift(self._count, old_parent, -moving)
        self._shift(self._size, old_parent, -moving_size)
        fresh = len(new_path) - 2
        for below, (u, v) in enumerate(zip(new_path, new_path[1:])):
            if v != node:
                self._children[v] = ()
                self._count[v] = 0
                self._size[v] = moving_size + fresh - below
            self._attach(u, v)
        self._shift(self._count, new_path[-2], moving)
        self._shift(self._size, merge, moving_size + fresh)
        self._release_dead_branch(old_parent)

    def trim_dead_branches(self) -> None:
        """Remove every relay whose subtree serves no member.

        The fixpoint of repeatedly deleting non-member leaves: exactly the
        non-source nodes with ``N_R = 0``.  Restoration applies it to the
        partition copy of a failed tree, where whole branches lost their
        members at once.
        """
        dead = [
            node
            for node, count in self._count.items()
            if count == 0 and node != self.source
        ]
        for node in dead:
            parent = self._parent[node]
            if parent == self.source or self._count[parent] != 0:
                self._unlink(node)  # the topmost dead node of its branch
                self._shift(self._size, parent, -self._size[node])
        for node in dead:
            del self._parent[node]
            del self._children[node]
            del self._count[node]
            del self._size[node]
            self._flag(node, 0)

    def _attach(self, parent: NodeId, child: NodeId) -> None:
        self._surviving.clear()
        kids = self._children[parent]
        at = bisect_left(kids, child)
        self._children[parent] = kids[:at] + (child,) + kids[at:]
        self._parent[child] = parent
        self._flag(child, 1)

    def _flag(self, node: NodeId, on_tree: int) -> None:
        """Keep the on-tree flags, once built, current at ``node``."""
        if self._flags is not None:
            index = self._flags_csr.index_of.get(node)
            if index is None:  # the topology grew since: rebuild on demand
                self._flags = self._flags_csr = None
            else:
                self._flags[index] = on_tree

    def _unlink(self, node: NodeId) -> NodeId:
        """Drop ``node`` from its parent's children; returns the parent."""
        self._surviving.clear()
        parent = self._parent[node]
        assert parent is not None
        kids = self._children[parent]
        at = kids.index(node)
        self._children[parent] = kids[:at] + kids[at + 1 :]
        return parent

    def _shift(self, table: dict[NodeId, int], node: NodeId, delta: int) -> None:
        """Add ``delta`` to ``table`` (``_count`` or ``_size``) at ``node``
        and at every node above it."""
        parent = self._parent
        cursor: NodeId | None = node
        while cursor is not None:
            table[cursor] += delta
            cursor = parent[cursor]

    def _release_dead_branch(self, cursor: NodeId) -> list[NodeId]:
        """Delete relays from ``cursor`` upward that serve nobody any more."""
        removed: list[NodeId] = []
        while (
            cursor != self.source
            and not self._children[cursor]
            and cursor not in self._members
        ):
            parent = self._unlink(cursor)
            del self._parent[cursor]
            del self._children[cursor]
            del self._count[cursor]
            del self._size[cursor]
            self._flag(cursor, 0)
            removed.append(cursor)
            cursor = parent
        if removed:
            self._shift(self._size, cursor, -len(removed))
        return removed

    # ------------------------------------------------------------------
    # Failure analysis
    # ------------------------------------------------------------------
    def affected_by(self, failures: FailureSet) -> bool:
        """True when any tree component is failed.

        Looks only at the failed components: a failed node is on the tree
        when the parent map holds it, a failed link when one end is the
        other's parent.  (A tree link with a failed endpoint is caught by
        the node test.)
        """
        parent = self._parent
        for node in failures.failed_nodes:
            if node in parent:
                return True
        for u, v in failures.failed_links:
            if (u in parent and parent[u] == v) or (v in parent and parent[v] == u):
                return True
        return False

    def surviving_component(self, failures: FailureSet = NO_FAILURES) -> set[NodeId]:
        """On-tree nodes still connected to the source after ``failures``.

        Walks the tree from the source, stopping at failed links/nodes.
        The source itself is excluded if it failed (session unrecoverable).
        Computed once per (tree structure, failure set): the answer is
        kept until the tree next changes shape, so callers must treat the
        returned set as read-only.
        """
        memo = self._surviving
        component = memo.get(failures)
        if component is not None:
            return component
        component = set()
        if not failures.node_failed(self.source):
            component.add(self.source)
            stack = [self.source]
            while stack:
                node = stack.pop()
                for child in self._children[node]:
                    if failures.node_failed(child):
                        continue
                    if not failures.link_usable(node, child):
                        continue
                    component.add(child)
                    stack.append(child)
        if len(memo) >= _SURVIVING_MEMO:
            memo.clear()
        memo[failures] = component
        return component

    def surviving_subtree(self, failures: FailureSet = NO_FAILURES) -> "MulticastTree":
        """Copy of the tree restricted to the component still fed by the
        source, with the relays left serving no member trimmed — the
        partition copy restoration starts from.

        One breadth-first pass over the surviving component copies its
        links (children in sorted order, so the copy's structures are
        laid out exactly as grafting those links one at a time would lay
        them out), one pass in reverse recounts ``N_R`` and subtree sizes,
        and :meth:`trim_dead_branches` drops the dead relays.
        """
        surviving = self.surviving_component(failures)
        clone = MulticastTree(self.topology, self.source)
        if not surviving:
            return clone
        parent = clone._parent
        children = clone._children
        order = [self.source]
        for node in order:  # grows as it goes: breadth-first
            kept = tuple(c for c in self._children[node] if c in surviving)
            children[node] = kept
            for child in kept:
                parent[child] = node
            order.extend(kept)
        members = clone._members
        for member in self.members:
            if member in surviving:
                members.add(member)
        count = dict.fromkeys(order, 0)
        size = dict.fromkeys(order, 1)
        for node in reversed(order):
            if node in members:
                count[node] += 1
            up = parent[node]
            if up is not None:
                count[up] += count[node]
                size[up] += size[node]
        clone._count = count
        clone._size = size
        clone.trim_dead_branches()
        return clone

    def disconnected_members(self, failures: FailureSet) -> list[NodeId]:
        """Members cut off from the source by ``failures``, sorted."""
        surviving = self.surviving_component(failures)
        return sorted(m for m in self._members if m not in surviving)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "MulticastTree":
        """Independent copy sharing the same (immutable-by-convention)
        topology; it builds its own on-tree flags when a search asks."""
        clone = MulticastTree(self.topology, self.source)
        clone._parent = dict(self._parent)
        clone._children = dict(self._children)  # the tuples are immutable
        clone._count = dict(self._count)
        clone._size = dict(self._size)
        clone._members = set(self._members)
        return clone

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        """Number of on-tree nodes (always ≥ 1: the source)."""
        return len(self._parent)

    def __repr__(self) -> str:
        return (
            f"MulticastTree(source={self.source}, members={len(self._members)}, "
            f"on_tree={len(self._parent)}, cost={self.tree_cost():.2f})"
        )
