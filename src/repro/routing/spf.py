"""Shortest-path-first (Dijkstra) routing with deterministic tie-breaking.

This is the library's single source of truth for unicast shortest paths.
It is written from scratch (rather than deferring to networkx) because the
reproduction needs explicit, testable semantics:

- **Failure masking.**  Every computation takes a
  :class:`~repro.routing.failure_view.FailureSet`; failed links and nodes
  are invisible, exactly as a re-converged link-state protocol would see
  the network.

- **Deterministic ties.**  When two paths have equal length, the one whose
  predecessor node id is smaller wins.  The paper's experiments average
  over randomized topologies, but determinism makes every individual
  scenario reproducible and lets tests pin exact trees.

- **Weight selection.**  Paths can be computed over ``delay`` (the paper's
  default — its SPF baseline and D_thresh bound are delay-based) or
  ``cost``.

Since the CSR rewrite the actual searches run as array kernels over the
topology's compiled :class:`~repro.routing.csr.CsrGraph`
(:meth:`~repro.graph.topology.Topology.csr` — built once per topology
state): dense indices, pre-sorted neighbour slices, flat weight arrays,
and failure bitsets replace the dict-of-dict walk.  The public functions
here keep the original :class:`ShortestPaths` contract bit-for-bit —
including dict insertion order and the predecessor-id tie-break — which
the property suite checks against the dict-based specification kept
with the tests (``tests/routing/spf_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NoPathError, RoutingError, TopologyError
from repro.graph.topology import NodeId, Topology
from repro.routing.csr import (
    INF,
    NO_PARENT,
    CsrGraph,
    CsrSearch,
    compile_failures,
    csr_dijkstra,
    csr_dijkstra_barriers,
)
from repro.routing.failure_view import NO_FAILURES, FailureSet

#: Relative and absolute slack on a goal-directed search's bound, far
#: above the float error of summing a path's delays, so rounding never
#: drops a relaxation on (or tied with) a path inside the bound.
BOUND_SLACK = 1e-9


@dataclass
class ShortestPaths:
    """Single-source shortest-path result.

    Attributes
    ----------
    source:
        The root of this SPF computation.
    dist:
        Map of reachable node → distance from ``source``.
    parent:
        Map of reachable node → predecessor on its shortest path
        (``source`` maps to ``None``).
    """

    source: NodeId
    dist: dict[NodeId, float] = field(default_factory=dict)
    parent: dict[NodeId, NodeId | None] = field(default_factory=dict)

    def reachable(self, node: NodeId) -> bool:
        return node in self.dist

    def distance(self, node: NodeId) -> float:
        """Distance from the source; raises :class:`NoPathError` if unreachable."""
        try:
            return self.dist[node]
        except KeyError:
            raise NoPathError(self.source, node) from None

    def path_to(self, node: NodeId) -> list[NodeId]:
        """The shortest path ``source → … → node`` as a node list."""
        if node not in self.dist:
            raise NoPathError(self.source, node)
        path: list[NodeId] = []
        cursor: NodeId | None = node
        while cursor is not None:
            path.append(cursor)
            cursor = self.parent[cursor]
        path.reverse()
        if path[0] != self.source:
            raise RoutingError(
                f"corrupt SPF state: path to {node} starts at {path[0]}, "
                f"not source {self.source}"
            )
        return path

    def next_hop(self, node: NodeId) -> NodeId:
        """First hop from the source toward ``node``."""
        path = self.path_to(node)
        if len(path) < 2:
            raise RoutingError(f"{node} is the source itself; no next hop")
        return path[1]

    def nearest(self, nodes) -> NodeId | None:
        """The reachable node of ``nodes`` at minimum ``(distance, id)``;
        ``None`` when none is reachable."""
        dist = self.dist
        reachable = [node for node in nodes if node in dist]
        if not reachable:
            return None
        return min(reachable, key=lambda node: (dist[node], node))


class PathSearch:
    """Shortest paths from ``source`` under one failure set, settled on demand.

    Answers the questions a :class:`ShortestPaths` answers —
    :meth:`reachable`, :meth:`distance`, :meth:`path_to`, :meth:`nearest`
    — but runs its :class:`~repro.routing.csr.CsrSearch` only until the
    answer is final, and resumes the same search for the next question.
    Every answer equals the one :func:`dijkstra` under the same failures
    gives, bit for bit (see :class:`~repro.routing.csr.CsrSearch`);
    :meth:`complete` runs the search to exhaustion and returns that
    :class:`ShortestPaths`, insertion order included.
    """

    __slots__ = ("source", "_csr", "_search")

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        weight: str = "delay",
        failures: FailureSet = NO_FAILURES,
    ) -> None:
        _check_args(topology, source, weight)
        csr = topology.csr()
        self.source = source
        self._csr = csr
        self._search = CsrSearch(
            csr,
            NO_PARENT if failures.node_failed(source) else csr.index_of[source],
            csr.weight_list(weight),
            compile_failures(csr, failures),
        )

    def reachable(self, node: NodeId) -> bool:
        """Settles up to ``node``; True when a path reaches it."""
        index = self._csr.index_of.get(node)
        return index is not None and self._search.settle(index)

    def distance(self, node: NodeId) -> float:
        """Distance from the source; raises :class:`NoPathError` if unreachable."""
        if not self.reachable(node):
            raise NoPathError(self.source, node)
        return self._search.dist[self._csr.index_of[node]]

    def path_to(self, node: NodeId) -> list[NodeId]:
        """The shortest path ``source → … → node`` as a node list."""
        if not self.reachable(node):
            raise NoPathError(self.source, node)
        ids = self._csr.node_ids
        parent = self._search.parent
        path: list[NodeId] = []
        cursor = self._csr.index_of[node]
        while cursor != NO_PARENT:
            path.append(ids[cursor])
            cursor = parent[cursor]
        path.reverse()
        return path

    def nearest(self, nodes) -> NodeId | None:
        """The reachable node of ``nodes`` at minimum ``(distance, id)``;
        ``None`` when none is reachable.  Settles only until no unsettled
        node can tie or beat the answer."""
        index_of = self._csr.index_of
        best = self._search.nearest({index_of[node] for node in nodes})
        return None if best == NO_PARENT else self._csr.node_ids[best]

    def complete(self) -> ShortestPaths:
        """The whole result, as :func:`dijkstra` returns it."""
        search = self._search
        search.run()
        return _to_shortest_paths(
            self.source, self._csr, search.dist, search.parent, search.order
        )


def _check_args(topology: Topology, source: NodeId, weight: str) -> None:
    if weight not in ("delay", "cost"):
        raise RoutingError(f"unknown weight {weight!r}; expected 'delay' or 'cost'")
    if not topology.has_node(source):
        raise TopologyError(f"source {source} is not in the topology")


def _to_shortest_paths(
    source: NodeId,
    csr: CsrGraph,
    dist: list[float],
    parent: list[int],
    order: list[int],
) -> ShortestPaths:
    """Rebuild the mapping result in kernel discovery order.

    Discovery order equals the dict insertion order of the reference
    implementation, so downstream code that iterates ``dist`` (e.g. the
    routing-table builder) observes identical ordering.
    """
    result = ShortestPaths(source=source)
    ids = csr.node_ids
    rdist = result.dist
    rparent = result.parent
    for i in order:
        nid = ids[i]
        rdist[nid] = dist[i]
        p = parent[i]
        rparent[nid] = None if p == NO_PARENT else ids[p]
    return result


def dijkstra(
    topology: Topology,
    source: NodeId,
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
    obs=None,
) -> ShortestPaths:
    """Compute single-source shortest paths under a failure scenario.

    Failed nodes (including a failed ``source``) and failed links are
    excluded from the search.  Nodes left unreachable simply do not appear
    in the result.

    ``obs`` (an :class:`~repro.obs.Observability`, optional) accounts the
    kernel invocation under ``routing.kernel.calls``.
    """
    _check_args(topology, source, weight)
    if failures.node_failed(source):
        return ShortestPaths(source=source)
    csr = topology.csr()
    if obs is not None:
        obs.counter("routing.kernel.calls").inc()
    dist, parent, order = csr_dijkstra(
        csr,
        csr.index_of[source],
        csr.weight_list(weight),
        compile_failures(csr, failures),
    )
    return _to_shortest_paths(source, csr, dist, parent, order)


def barrier_search_arrays(
    topology: Topology,
    source: NodeId,
    barriers,
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
    obs=None,
    goal: NodeId | None = None,
    bound: float = INF,
) -> tuple[CsrGraph, list[float] | None, list[int] | None, list[int] | None]:
    """Raw kernel output of a barrier-constrained search.

    Returns ``(csr, dist, parent, order)`` exactly as
    :func:`~repro.routing.csr.csr_dijkstra` produced them — flat
    index-addressed arrays, no dict materialization.
    :func:`dijkstra_with_barriers` is the dict-building wrapper around
    this call.  A failed ``source`` short-circuits to
    ``(csr, None, None, None)`` (the wrapper's empty-result semantics)
    without running the kernel.

    ``barriers`` is a set of node ids, or a ready per-node bitset
    indexed like ``topology.csr()`` (a tree's
    :meth:`~repro.multicast.tree.MulticastTree.on_tree_flags`), which
    the kernel reads as is.

    With a ``goal`` and a finite ``bound`` the search is goal-directed:
    it drops every relaxation whose length so far plus the failure-free
    distance to ``goal`` (memoised per goal by
    :meth:`~repro.routing.csr.CsrGraph.root_distances`) exceeds
    ``bound * (1 + BOUND_SLACK) + BOUND_SLACK``.  Every node ``v`` with
    ``dist(v) + D(goal, v) <= bound`` keeps the unbounded search's
    distance and parent; other nodes may be missing or over-priced.
    """
    _check_args(topology, source, weight)
    csr = topology.csr()
    if failures.node_failed(source):
        return csr, None, None, None
    if obs is not None:
        obs.counter("routing.kernel.barrier_calls").inc()
    index_of = csr.index_of
    lower = None
    limit = INF
    if goal is not None and bound < INF:
        if goal not in index_of:
            raise TopologyError(f"goal {goal} is not in the topology")
        lower = csr.root_distances(index_of[goal], weight)
        limit = bound * (1.0 + BOUND_SLACK) + BOUND_SLACK
    args = (csr, index_of[source], csr.weight_list(weight),
            compile_failures(csr, failures))
    if isinstance(barriers, bytearray):
        dist, parent, order = csr_dijkstra(*args, barriers, lower, limit)
    else:
        dist, parent, order = csr_dijkstra_barriers(
            *args, (index_of[b] for b in barriers if b in index_of), lower, limit
        )
    return csr, dist, parent, order


def dijkstra_with_barriers(
    topology: Topology,
    source: NodeId,
    barriers: set[NodeId],
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
    obs=None,
) -> ShortestPaths:
    """Shortest paths that may *end* at a barrier node but never cross one.

    Barrier nodes can be settled (they are valid destinations) but their
    outgoing links are not relaxed, so no path traverses them.  This is
    the search a join request effectively performs: for every on-tree
    node ``R_i`` it yields the shortest connection from the joining member
    that touches the tree exactly at ``R_i`` (paper §3.2.2 — a request
    routed through an earlier on-tree node would merge there instead).

    ``source`` being itself a barrier is allowed (used when a node already
    on the tree re-selects its path): the search starts normally from it.
    One such pass prices *every* merge point at once, which is what makes
    the batched candidate enumeration in :mod:`repro.core.candidates`
    a single-kernel operation.
    """
    csr, dist, parent, order = barrier_search_arrays(
        topology, source, barriers, weight=weight, failures=failures, obs=obs
    )
    if dist is None:
        return ShortestPaths(source=source)
    return _to_shortest_paths(source, csr, dist, parent, order)


def shortest_path(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
) -> list[NodeId]:
    """Shortest path between two nodes; raises :class:`NoPathError` if none."""
    if not topology.has_node(target):
        raise TopologyError(f"target {target} is not in the topology")
    return dijkstra(topology, source, weight=weight, failures=failures).path_to(target)


def spf_distance(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
) -> float:
    """Shortest-path distance from ``source`` to ``target`` under a failure
    scenario; raises :class:`NoPathError` when there is none.

    The ``source``-rooted search settles only until ``target`` is final.
    Failure-free, it also stays inside the shortest-path corridor: with
    the failure-free distances back to ``target``
    (:meth:`~repro.routing.csr.CsrGraph.root_distances`) as ``lower``
    and ``lower[source]``, plus :data:`BOUND_SLACK`, as the limit, it
    drops every relaxation that cannot lie on a shortest path.  Pruning
    removes heap pushes but never reorders the pops of the nodes inside
    the corridor (see :func:`~repro.routing.csr.csr_dijkstra`), so the
    answer is bit for bit the full ``source``-rooted search's.
    ``lower[source]`` itself is only the bound: summed from the other
    end, it can differ from that answer in the last bit.
    """
    if not topology.has_node(target):
        raise TopologyError(f"target {target} is not in the topology")
    if not failures.is_empty:
        return PathSearch(topology, source, weight, failures).distance(target)
    _check_args(topology, source, weight)
    csr = topology.csr()
    index_of = csr.index_of
    goal = index_of[target]
    lower = csr.root_distances(goal, weight)
    root = index_of[source]
    if lower[root] < INF:
        search = CsrSearch(
            csr,
            root,
            csr.weight_list(weight),
            None,
            lower=lower,
            limit=lower[root] * (1.0 + BOUND_SLACK) + BOUND_SLACK,
        )
        if search.settle(goal):
            return search.dist[goal]
    raise NoPathError(source, target)
