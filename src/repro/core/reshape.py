"""Tree reshaping (paper §3.2.3).

After churn, a tree that was survivable when each member joined can grow
skewed: merge points that once had the minimum SHR accumulate members, and
nodes elsewhere free up.  Reshaping lets an on-tree node re-run path
selection and switch its whole subtree to a better attachment.

Triggers:

- **Condition I** — a node ``R`` watches ``SHR_{S,R_u}`` of its upstream
  node; when it exceeds the value recorded at the last reshape
  (``SHR^{old}``) by more than a threshold, joins into sibling subtrees
  have degraded ``R``'s path and ``R`` re-selects.
- **Condition II** — a periodic timer; every node occasionally re-selects
  to exploit departures elsewhere.

The re-selection itself is the §3.2.2 procedure with two adjustments the
paper spells out:

- the moving node's own subtree is excluded (merging there would loop),
- SHR values are *adjusted* before comparison, because the current path
  still exists while the new one is evaluated: the mover's subtree members
  are subtracted from every candidate's SHR where the candidate's on-tree
  path overlaps the mover's current path
  (:func:`repro.core.shr.shr_excluding_subtree`).

The move is performed only when the new merge point's adjusted SHR is
*strictly* smaller than the current attachment's — equal-SHR moves are
refused to prevent oscillation under Condition II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MulticastError, NoPathError, NotOnTreeError
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.core.candidates import enumerate_candidates
from repro.core.join import delay_bound, select_path, unicast_delay
from repro.core.shr import adjusted_shr_table
from repro.routing.failure_view import NO_FAILURES, FailureSet


@dataclass(frozen=True)
class ReshapeDecision:
    """Outcome of one reshape evaluation at a node."""

    node: NodeId
    performed: bool
    reason: str
    current_upstream: NodeId | None = None
    current_shr_adjusted: int | None = None
    new_merge_node: NodeId | None = None
    new_shr_adjusted: int | None = None
    new_path: tuple[NodeId, ...] = ()


def evaluate_reshape(
    topology: Topology,
    tree: MulticastTree,
    node: NodeId,
    d_thresh: float,
    failures: FailureSet = NO_FAILURES,
    route_cache=None,
    obs=None,
) -> ReshapeDecision:
    """Run path re-selection for ``node`` without mutating the tree.

    Returns a :class:`ReshapeDecision`; ``performed`` is True when a
    strictly better attachment exists within the delay bound (the caller
    then applies it with :func:`apply_reshape`).

    ``route_cache`` (optional failure-aware
    :class:`~repro.routing.route_cache.RouteCache`) memoises the delay-
    bound SPF under failures (:func:`~repro.core.join.unicast_delay`);
    ``obs`` attributes its cache traffic.  When ``obs`` has a
    restoration tracer with an episode open (a reshape pass running while
    a DES recovery is in flight), the evaluation is recorded inside that
    episode as an instant span.
    """
    decision = _evaluate_reshape(
        topology, tree, node, d_thresh, failures, route_cache, obs
    )
    tracer = getattr(obs, "tracer", None)
    if tracer is not None:
        tracer.ambient_instant(
            "reshape.evaluate", node,
            payload={"performed": decision.performed, "reason": decision.reason},
        )
    return decision


def _evaluate_reshape(
    topology: Topology,
    tree: MulticastTree,
    node: NodeId,
    d_thresh: float,
    failures: FailureSet = NO_FAILURES,
    route_cache=None,
    obs=None,
) -> ReshapeDecision:
    if not tree.is_on_tree(node):
        raise NotOnTreeError(node)
    if node == tree.source:
        raise MulticastError("the source never reshapes")

    upstream = tree.parent(node)
    assert upstream is not None
    # One linear pass yields every candidate's adjusted SHR (and the
    # current attachment's) instead of a quadratic per-merge-point walk.
    table = adjusted_shr_table(tree, node)
    current_adjusted = table[upstream]

    try:
        spf_delay = unicast_delay(
            topology, node, tree.source, failures, route_cache, obs
        )
    except NoPathError:
        return ReshapeDecision(
            node=node,
            performed=False,
            reason="source unreachable",
            current_upstream=upstream,
            current_shr_adjusted=current_adjusted,
        )
    # The mover's subtree is excluded from the merge points, so the table
    # serves as the SHR view as it stands.
    candidates = enumerate_candidates(
        topology,
        tree,
        joiner=node,
        shr_values=table,
        failures=failures,
        excluded_nodes=frozenset(tree.subtree_nodes(node) - {node}),
        mover=node,
        obs=obs,
        delay_bound=delay_bound(spf_delay, d_thresh),
    )
    # Discard the degenerate candidate that re-selects the current
    # attachment through the same upstream link.
    candidates = [
        c
        for c in candidates
        if not (len(c.graft_path) == 2 and c.merge_node == upstream)
    ]
    if not candidates:
        return ReshapeDecision(
            node=node,
            performed=False,
            reason="no alternative attachment within the delay bound",
            current_upstream=upstream,
            current_shr_adjusted=current_adjusted,
        )

    # Every candidate left is inside the bound, so this never rejects.
    selection = select_path(candidates, spf_delay, d_thresh, allow_fallback=False)
    chosen = selection.candidate
    if chosen.shr >= current_adjusted:
        return ReshapeDecision(
            node=node,
            performed=False,
            reason=(
                f"best alternative SHR {chosen.shr} does not improve on "
                f"current {current_adjusted}"
            ),
            current_upstream=upstream,
            current_shr_adjusted=current_adjusted,
            new_merge_node=chosen.merge_node,
            new_shr_adjusted=chosen.shr,
        )
    return ReshapeDecision(
        node=node,
        performed=True,
        reason="strictly smaller adjusted SHR within delay bound",
        current_upstream=upstream,
        current_shr_adjusted=current_adjusted,
        new_merge_node=chosen.merge_node,
        new_shr_adjusted=chosen.shr,
        new_path=chosen.graft_path,
    )


def apply_reshape(tree: MulticastTree, decision: ReshapeDecision) -> None:
    """Apply a positive :class:`ReshapeDecision`: the path-switching step.

    The node grafts the new path first and releases the old branch after —
    the make-before-break order of §3.2.3 — which
    :meth:`~repro.multicast.tree.MulticastTree.move_subtree` performs
    atomically at this abstraction level.
    """
    if not decision.performed:
        raise MulticastError(
            f"decision for node {decision.node} did not approve a reshape"
        )
    tree.move_subtree(decision.node, list(decision.new_path))
