"""Distributed per-node SMRP state (paper §3.2.1 and §3.3.2).

Each on-tree node ``R`` maintains:

- ``N_R`` — members in the subtree rooted at ``R``,
- ``N_R^i`` — members reachable through each downstream interface,
- ``SHR_{S,R}`` — learned incrementally from the upstream node via Eq. (2),
- ``SHR^{old}_{S,R_u}`` — the upstream SHR recorded at the last reshape,
  used by reshaping Condition I.

``N_R`` (and with it every ``N_R^i``) lives on the tree:
:class:`~repro.multicast.tree.MulticastTree` updates it along the path
each mutation changes — the hops a ``Join_Req`` or ``Leave_Req`` update
travels.  The :class:`StateManager` keeps the rest:

- one SHR table.  ``SHR_{S,R}`` sums ``N`` along ``P_T(S, R)``, the
  source excluded, so a graft or a prune moves SHR only inside the
  top-level branch whose counts it changed: a top-down Eq. (2) pass over
  that branch alone (:func:`~repro.core.shr.shr_refresh`) keeps the
  table current.  A move or a rebind re-derives the whole table;
- one Condition-I baseline map.  It is written for the nodes a change
  created or re-parented, which start from their new upstream's SHR (the
  value the ``Join_Ack`` carries down the new branch), and for nodes that
  ran a reshape.  A node's entry leaves with the node;
- the top-level branches whose SHR grew since the last Condition-I scan
  (:meth:`StateManager.condition_i_triggered`): only their members can
  have crossed the threshold since.

:meth:`StateManager.state_of` assembles one node's
:class:`SmrpNodeState` from these on demand.

The manager also *accounts for the control messages* the distributed
protocol would spend keeping the state consistent.  Two maintenance modes
implement the design choice discussed in §3.3.2:

``eager``
    Every membership change immediately propagates: ``N`` updates travel
    up the path to the source, then refreshed ``SHR`` values travel down
    into every subtree whose value changed ("a new tree-wide update
    process").

``deferred``
    ``SHR`` recalculation is postponed until a query from a joining member
    actually needs the value; the cost is then one message per hop up the
    path from the queried node to the source ("the maintenance overhead is
    amortized into each member's join process").

The two modes differ only in this accounting.  Both answer every query
with values consistent with the current tree and record the same
baselines, so the trees they build and the reshapes they run are
identical — a regression test runs one workload in both modes and compares
them.  The overhead ablation bench compares the two counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NotOnTreeError, ConfigurationError
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS, Observability
from repro.core.shr import shr_incremental, shr_refresh


@dataclass
class SmrpNodeState:
    """The state block one on-tree node keeps (Figure 3 in the paper)."""

    node: NodeId
    upstream: NodeId | None
    n_r: int = 0
    n_per_interface: dict[NodeId, int] = field(default_factory=dict)
    shr: int = 0
    shr_old_upstream: int = 0

    def consistent(self) -> bool:
        """``N_R`` must equal the sum of interface counts plus self-membership.

        The self-membership term is folded into ``n_r`` by the tree, so
        here we only check it is never below the interface sum.
        """
        return self.n_r >= sum(self.n_per_interface.values())


@dataclass
class MessageCounters:
    """Control-message accounting for state maintenance."""

    n_updates: int = 0  # hop-by-hop N_R updates toward the source
    shr_pushes: int = 0  # downward SHR refresh messages (eager mode)
    shr_pulls: int = 0  # on-demand recomputation messages (deferred mode)

    @property
    def total(self) -> int:
        return self.n_updates + self.shr_pushes + self.shr_pulls


class StateManager:
    """Maintains per-node SMRP state consistently with a multicast tree.

    Parameters
    ----------
    tree:
        The tree whose state is being maintained.  The manager reads the
        tree but never mutates it; callers mutate it and then notify the
        manager (``notify_graft``/``notify_prune``/``notify_move``).
    mode:
        ``"eager"`` or ``"deferred"`` (see module docstring).
    """

    def __init__(
        self,
        tree: MulticastTree,
        mode: str = "eager",
        obs: Observability | None = None,
    ) -> None:
        if mode not in ("eager", "deferred"):
            raise ConfigurationError(f"unknown state mode {mode!r}")
        self.mode = mode
        self.counters = MessageCounters()
        obs = obs if obs is not None else NULL_OBS
        self._c_n_updates = obs.counter("smrp.state.n_updates")
        self._c_shr_pushes = obs.counter("smrp.state.shr_pushes")
        self._c_shr_pulls = obs.counter("smrp.state.shr_pulls")
        # SHR of every on-tree node; None once a move or rebind made it
        # stale.
        self._shr: dict[NodeId, int] | None = None
        # node -> (upstream when recorded, SHR^old_{S,R_u}).
        self._baseline: dict[NodeId, tuple[NodeId, int]] = {}
        # Deferred mode only: a change happened, the next query pulls.
        self._shr_dirty = False
        # Top-level branches whose SHR may have grown since the last
        # Condition-I scan; None: every branch.
        self._grown: set[NodeId] | None = None
        self.rebind(tree)

    def rebind(self, tree: MulticastTree) -> None:
        """Re-anchor the manager to a replacement tree (session repair).

        Cumulative message counters carry over, and so does the
        Condition-I baseline of every node that kept its upstream; other
        nodes start from their new upstream's SHR.  The rebind itself
        carries no message charge — restoration signaling is accounted by
        the recovery path that produced the replacement tree.
        """
        self.tree = tree
        self._shr = None
        self._shr_dirty = False
        self._grown = None
        shr = self._table()
        baseline = self._baseline
        for node in shr:
            upstream = tree.parent(node)
            if upstream is None:
                continue
            entry = baseline.get(node)
            if entry is None or entry[0] != upstream:
                baseline[node] = (upstream, shr[upstream])
        self._forget_departed()

    # ------------------------------------------------------------------
    # Event notifications (message accounting)
    # ------------------------------------------------------------------
    def notify_graft(self, graft_path: list[NodeId]) -> None:
        """Account for a join along ``graft_path`` (merge node first).

        The ``Join_Req`` travels the graft path anyway (not charged here);
        the state cost is: ``N`` increments hop-by-hop from the merge node
        to the source, plus — in eager mode — SHR refresh pushed into every
        subtree whose SHR changed (every node below any ancestor of the
        merge node).
        """
        branch = self._charge(graft_path[0], 1)
        if branch is None and len(graft_path) > 1:
            branch = graft_path[1]  # a new branch off the source
        self._after_change(graft_path[-1], branch, grown=True)

    def notify_prune(self, pruned_from: NodeId) -> None:
        """Account for a leave whose ``Leave_Req`` stopped at ``pruned_from``."""
        self._after_change(None, self._charge(pruned_from, 1), grown=False)

    def notify_move(self, mover: NodeId) -> None:
        """Account for a reshape/recovery path switch at ``mover``.

        Charged as a prune at the old attachment plus a graft at the new
        one; both attachments are read from the *current* (post-move) tree,
        so callers invoke this after mutating the tree.
        """
        parent = self.tree.parent(mover)
        branch = self._charge(parent if parent is not None else mover, 2)
        # The moved subtree takes its members' counts off one path and
        # onto another: re-derive the whole table.
        self._shr = None
        self._after_change(mover, mover if branch is None else branch, grown=True)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, node: NodeId) -> SmrpNodeState:
        """``node``'s state block, assembled on demand.

        An introspection view: it charges no messages, and writing to it
        changes nothing (use :meth:`record_reshape_baseline`).
        """
        tree = self.tree
        if node not in tree:
            raise NotOnTreeError(node)
        entry = self._baseline.get(node)
        return SmrpNodeState(
            node=node,
            upstream=tree.parent(node),
            n_r=tree.subtree_member_count(node),
            n_per_interface=tree.downstream_interface_counts(node),
            shr=self._table()[node],
            shr_old_upstream=entry[1] if entry is not None else 0,
        )

    def shr(self, node: NodeId) -> int:
        """``SHR_{S,node}``; in deferred mode the first query after a
        change pays for the recomputation.

        That recomputation walks the path from the source to the node,
        one pull message per hop (§3.3.2).
        """
        table = self._table()
        if node not in table:
            raise NotOnTreeError(node)
        if self._shr_dirty:
            self._pull(len(self.tree.path_from_source(node)) - 1)
        return table[node]

    def shr_snapshot(self) -> dict[NodeId, int]:
        """All SHR values (forces a refresh in deferred mode).

        Charged as one pull per on-tree link: a full tree walk answers
        every node at once.
        """
        if self._shr_dirty:
            self._pull(max(len(self.tree) - 1, 0))
        return dict(self._table())

    def record_reshape_baseline(self, node: NodeId) -> None:
        """Store ``SHR^{old}_{S,R_u}`` at ``node`` after a reshape decision."""
        upstream = self.tree.parent(node)
        if upstream is not None:
            self._baseline[node] = (upstream, self.shr(upstream))

    def condition_i_delta(self, node: NodeId) -> int:
        """``SHR_{S,R_u} − SHR^{old}_{S,R_u}`` as seen by ``node``."""
        upstream = self.tree.parent(node)
        if upstream is None:
            return 0
        return self.shr(upstream) - self._baseline[node][1]

    def condition_i_triggered(self, threshold: int) -> list[NodeId]:
        """The members whose Condition-I delta is at least ``threshold``,
        in id order.

        A delta rises only where SHR grew: in the top-level branch of a
        graft, of a relay turned member, or of a move's new attachment (a
        prune only lowers SHR).  So a scan checks only the members of the
        branches grown since the previous scan.  Every other member keeps
        the delta it had then, below the threshold once the reshapes that
        scan triggered ran their course: each re-selecting member starts
        again from zero, and each move marks the branch it grew.  The
        scan checks every member after a rebind or :meth:`rescan_all`,
        and for a threshold below 1, which a member that just re-ran
        selection still meets.

        In deferred mode the first SHR query after a change pays the
        pull; the scan charges the one a scan of every member would have
        asked first, for the upstream of the smallest member that has one.
        """
        tree = self.tree
        grown, self._grown = self._grown, set()
        if self._shr_dirty:
            first = min((m for m in tree.members if m != tree.source), default=None)
            if first is not None:
                self.shr(tree.parent(first))
        if grown is None or threshold < 1:
            scope = tree.members
        else:
            scope = self._members_below(grown)
        return [
            node
            for node in sorted(scope)
            if self.condition_i_delta(node) >= threshold
        ]

    def rescan_all(self) -> None:
        """Make the next :meth:`condition_i_triggered` check every member."""
        self._grown = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _table(self) -> dict[NodeId, int]:
        if self._shr is None:
            self._shr = shr_incremental(self.tree)
        return self._shr

    def _pull(self, pulled: int) -> None:
        self.counters.shr_pulls += pulled
        self._c_shr_pulls.inc(pulled)
        self._shr_dirty = False

    def _charge(self, anchor: NodeId, passes: int) -> NodeId | None:
        """Charge ``N`` updates from ``anchor`` to the source (``passes``
        times), plus the eager mode's push into every node whose SHR
        changed: the subtree of the first node below S on that path.

        Returns that first node, the top of the branch whose counts
        changed (None when ``anchor`` is the source).
        """
        path = self.tree.path_from_source(anchor)
        depth = len(path) - 1
        self.counters.n_updates += passes * depth
        self._c_n_updates.inc(passes * depth)
        if self.mode == "eager":
            pushed = self.tree.subtree_size(path[1]) if depth else 0
            self.counters.shr_pushes += pushed
            self._c_shr_pushes.inc(pushed)
        else:
            self._shr_dirty = True
        return path[1] if depth else None

    def _after_change(
        self, attached: NodeId | None, branch: NodeId | None, grown: bool
    ) -> None:
        """Catch up with a tree change inside the top-level ``branch``
        (None when the change released a whole branch); ``attached`` is
        the lowest node a graft or move hung onto the tree (None for a
        prune), and ``grown`` says the branch's counts rose.

        Eq. (2) is refreshed over ``branch`` alone.  The walk from
        ``attached`` toward the source resets the baseline of each node
        the change created or re-parented, and stops at the first node
        whose recorded upstream still holds.
        """
        if branch is not None:
            if self._shr is not None:
                shr_refresh(self.tree, self._shr, branch)
            if grown and self._grown is not None:
                self._grown.add(branch)
        tree = self.tree
        baseline = self._baseline
        node = attached
        while node is not None:
            upstream = tree.parent(node)
            if upstream is None:
                break
            entry = baseline.get(node)
            if entry is not None and entry[0] == upstream:
                break
            baseline[node] = (upstream, self._table()[upstream])
            node = upstream
        self._forget_departed()

    def _members_below(self, tops) -> set[NodeId]:
        """The members in the subtrees of the on-tree nodes of ``tops``."""
        tree = self.tree
        children = tree.children_map()
        found = set()
        stack = [top for top in tops if top in children]
        while stack:
            node = stack.pop()
            if tree.is_member(node):
                found.add(node)
            stack.extend(children[node])
        return found

    def _forget_departed(self) -> None:
        """Drop the baselines and SHR entries of nodes that left the tree."""
        baseline = self._baseline
        on_tree = self.tree.children_map()
        if len(baseline) >= len(on_tree):  # the source never has one
            table = self._shr if self._shr is not None else {}
            for node in [n for n in baseline if n not in on_tree]:
                del baseline[node]
                table.pop(node, None)
