"""Member departure (paper §3.2.2).

A leaving member sends ``Leave_Req`` toward the source along its on-tree
path.  Each traversed node clears the session's soft state and releases
the branch until a node with remaining downstream members (or the source)
is reached.  The tree mutation itself lives in
:meth:`repro.multicast.tree.MulticastTree.prune`; this module wraps it
with the protocol-visible outcome (how far the request travelled, which
resources were released) used for message accounting and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NotMemberError
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree


@dataclass(frozen=True)
class LeaveOutcome:
    """Result of processing one ``Leave_Req``."""

    member: NodeId
    released_nodes: tuple[NodeId, ...]
    stopped_at: NodeId
    hops_travelled: int


def process_leave(tree: MulticastTree, member: NodeId) -> LeaveOutcome:
    """Apply a member departure and report the walk of the ``Leave_Req``.

    ``hops_travelled`` counts the links the request crossed: one per
    released node, plus the final hop that reached the node where pruning
    stopped (which keeps serving other members).
    """
    if not tree.is_member(member):
        raise NotMemberError(member)
    # The released nodes are the lower end of the member's own path, so
    # pruning stops at the node just above them (the member itself when
    # nothing is released: an interior member keeps relaying).
    path = tree.path_from_source(member)
    released = tree.prune(member)
    return LeaveOutcome(
        member=member,
        released_nodes=tuple(released),
        stopped_at=path[-len(released) - 1],
        hops_travelled=len(released),
    )
