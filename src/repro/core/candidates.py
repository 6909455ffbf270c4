"""Candidate-path enumeration for SMRP joins and reshapes (paper §3.2.2).

A joining member ``NR`` considers, for every on-tree node ``R_i``, the path
that reaches the tree at ``R_i``: the shortest path ``NR → R_i`` (footnote
4: only the shortest connection to each merge point is considered)
concatenated with ``R_i``'s on-tree path to the source.

Two refinements the paper leaves implicit:

- **First-contact semantics.**  A join request travelling toward ``R_i``
  merges at the *first* on-tree node it reaches, so the connection to
  ``R_i`` must not cross the tree earlier.  Candidates are therefore
  computed with a barrier-aware shortest-path search
  (:func:`repro.routing.spf.dijkstra_with_barriers`): on-tree nodes are
  valid endpoints but cannot be traversed.  (The paper's Figure 4 depends
  on this: G's option ``G→B→S`` is *not* G's globally shortest route to
  S — that one runs through on-tree node D — yet it is a legitimate
  merge-at-S candidate.)
- **Exclusions.**  Reshaping reuses the same enumeration but must not
  merge inside the moving node's own subtree (that would create a cycle),
  so callers can exclude node sets from both the merge-point set and the
  connecting paths.

The barriers are the tree's own on-tree flags
(:meth:`~repro.multicast.tree.MulticastTree.on_tree_flags`), which the
tree keeps current as it mutates, so a search pays nothing per on-tree
node before it starts.  Excluded nodes are barriers too, never merge
points: a barrier, like a failed node, relaxes no arc, so every other
node is priced exactly as if the excluded ones had failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.routing.csr import INF, NO_PARENT
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import barrier_search_arrays


@dataclass(frozen=True)
class Candidate:
    """One join option ``P_T^{R_i}(S, NR)``.

    Attributes
    ----------
    merge_node:
        The on-tree node ``R_i`` where the new path merges.
    graft_path:
        The new branch, from ``merge_node`` to the joining node.
    new_delay:
        Delay of the new branch only (the links brought into the tree —
        also the candidate's recovery-distance contribution).
    total_delay:
        End-to-end delay ``D^{R_i}_{S,NR}``: on-tree delay to the merge
        node plus the new branch.
    shr:
        ``SHR_{S,R_i}`` of the merge node at enumeration time.
    """

    merge_node: NodeId
    graft_path: tuple[NodeId, ...]
    new_delay: float
    total_delay: float
    shr: int

    @property
    def joiner(self) -> NodeId:
        return self.graft_path[-1]


def enumerate_candidates(
    topology: Topology,
    tree: MulticastTree,
    joiner: NodeId,
    shr_values: dict[NodeId, int],
    failures: FailureSet = NO_FAILURES,
    excluded_nodes: frozenset[NodeId] = frozenset(),
    allowed_merge_nodes: frozenset[NodeId] | None = None,
    mover: NodeId | None = None,
    obs=None,
    delay_bound: float = INF,
) -> list[Candidate]:
    """The valid join options for ``joiner`` within ``delay_bound``,
    sorted by (shr, delay, id).

    Parameters
    ----------
    shr_values:
        ``SHR_{S,R}`` per on-tree node, supplied by the caller (full
        knowledge via :func:`repro.core.shr.shr_table`, or the restricted
        view produced by the query scheme).
    failures:
        Components to route around (used by recovery-time joins).
    excluded_nodes:
        Nodes the connecting path must avoid and that cannot serve as
        merge points (a reshaping node's own subtree).
    allowed_merge_nodes:
        When given, only these on-tree nodes are eligible merge points
        (used by the hierarchical protocol to keep joins inside a domain,
        and by the query scheme which only learns some SHR values).
    mover:
        When enumerating for a *reshape*, the node being moved, which is
        the joiner itself: it is on the tree but never a merge point (the
        search always crosses its own start, so it is no tree contact
        along the candidate paths either).
    obs:
        Optional :class:`~repro.obs.Observability`; accounts each batched
        enumeration (``routing.candidates.batched_searches``) and every
        merge point priced within the bound
        (``routing.candidates.evaluated``).
    delay_bound:
        Return exactly the candidates with ``total_delay <= delay_bound +
        1e-12``, the feasibility rule of
        :func:`repro.core.join.select_path`; the default ``INF`` returns
        every option.

    One barrier-aware kernel pass prices the connection to every merge
    point it reaches.  With a finite bound the pass is goal-directed
    toward the source: for a candidate merging at ``R`` and any node
    ``u`` on its connection, ``dist(u) + D(S, u) <= total_delay(R)``,
    because the tree path ``S → R`` followed by the connection back to
    ``u`` is a walk from ``S`` to ``u``.  Dropping relaxations that
    exceed the bound by that measure therefore keeps every candidate
    inside it exactly as the full search prices it.  On-tree delays are
    summed from the source per reached merge point, in the tree's
    top-down order, so the floats equal the per-node path walk.
    """
    csr = topology.csr()
    flags = tree.on_tree_flags(csr)
    index_of = csr.index_of
    off_tree = [
        index_of[node]
        for node in excluded_nodes
        if node in index_of and not flags[index_of[node]]
    ]
    if off_tree:
        flags = bytearray(flags)  # the tree's own flags stay as they are
        for i in off_tree:
            flags[i] = 1
    dist = None
    if joiner not in excluded_nodes:  # it would reach nothing, like a failed node
        csr, dist, parent, order = barrier_search_arrays(
            topology,
            joiner,
            flags,
            weight="delay",
            failures=failures,
            obs=obs,
            goal=tree.source,
            bound=delay_bound,
        )
    candidates = []
    if dist is not None:
        ids = csr.node_ids
        limit = delay_bound + 1e-12
        adjacency = topology.adjacency()
        tree_delays = {tree.source: 0.0}
        for i in order:
            if not flags[i]:
                continue
            merge = ids[i]
            if (
                merge in excluded_nodes
                or merge == mover
                or merge not in shr_values
            ):
                continue
            if allowed_merge_nodes is not None and merge not in allowed_merge_nodes:
                continue
            new_delay = dist[i]
            total = _tree_delay(tree, adjacency, merge, tree_delays) + new_delay
            if total > limit:
                continue
            graft = [merge]
            p = parent[i]
            while p != NO_PARENT:
                graft.append(ids[p])
                p = parent[p]
            candidates.append(
                Candidate(
                    merge_node=merge,
                    graft_path=tuple(graft),
                    new_delay=new_delay,
                    total_delay=total,
                    shr=shr_values[merge],
                )
            )
    candidates.sort(key=lambda c: (c.shr, c.total_delay, c.merge_node))
    if obs is not None:
        obs.counter("routing.candidates.batched_searches").inc()
        obs.counter("routing.candidates.evaluated").inc(len(candidates))
        tracer = getattr(obs, "tracer", None)
        if tracer is not None:
            # When a restoration episode is open (DES recovery/reshape in
            # flight), the candidate search shows up inside it as an
            # instant span; otherwise this is a no-op.
            tracer.ambient_instant(
                "search.candidates", joiner,
                payload={"evaluated": len(candidates)},
            )
    return candidates


def _tree_delay(
    tree: MulticastTree, adjacency, node: NodeId, memo: dict[NodeId, float]
) -> float:
    """``D_{S,node}`` along the tree, memoised per call in ``memo``.

    Sums top-down from the nearest memoised ancestor (``delay(child) =
    delay(parent) + link``), the left-to-right order of
    :meth:`~repro.multicast.tree.MulticastTree.delay_from_source`, so the
    float is the same.
    """
    chain = []
    while node not in memo:
        chain.append(node)
        node = tree.parent(node)
    delay = memo[node]
    for child in reversed(chain):
        delay += adjacency[node][child]
        memo[child] = delay
        node = child
    return delay
