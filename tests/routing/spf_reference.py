"""Reference (dict-based) Dijkstra implementations.

These are the original straight-from-the-definition searches that
:mod:`repro.routing.spf` shipped before the CSR kernel rewrite
(:mod:`repro.routing.csr`).  They live with the tests, outside the
package, as the executable specification the compiled kernels are
validated against: the property suite runs both over randomised Waxman
topologies and failure sets and asserts identical ``dist`` and ``parent``
maps, including deterministic tie-break agreement and dict insertion
order.

Semantics (shared with the production kernels):

- failed links and nodes are invisible to the search;
- equal-length paths keep the smaller predecessor id.  The historical
  implementation compared ``u < (parent[v] or -1)``, which collapses a
  legitimate predecessor of node id ``0`` to the ``-1`` sentinel (``0``
  is falsy); the comparison here uses an explicit ``None`` test so ties
  against predecessor ``0`` are evaluated correctly (regression-pinned in
  ``tests/routing/test_spf.py``);
- the search may be restricted by *barriers*: nodes that can terminate a
  path but never relay one (§3.2.2's first-contact join semantics).
"""

from __future__ import annotations

import heapq

from repro.errors import RoutingError, TopologyError
from repro.graph.topology import NodeId, Topology
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import ShortestPaths


def dijkstra_reference(
    topology: Topology,
    source: NodeId,
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
) -> ShortestPaths:
    """Dict-based single-source shortest paths (specification version)."""
    if weight not in ("delay", "cost"):
        raise RoutingError(f"unknown weight {weight!r}; expected 'delay' or 'cost'")
    if not topology.has_node(source):
        raise TopologyError(f"source {source} is not in the topology")
    result = ShortestPaths(source=source)
    if failures.node_failed(source):
        return result

    adjacency = topology.adjacency()
    weight_of = (
        (lambda u, v: adjacency[u][v])
        if weight == "delay"
        else (lambda u, v: topology.cost(u, v))
    )

    result.dist[source] = 0.0
    result.parent[source] = None
    # Heap entries: (distance, predecessor id, node).  Including the
    # predecessor id makes equal-distance pops deterministic: the path via
    # the smaller predecessor is settled first and kept.
    heap: list[tuple[float, int, NodeId]] = [(0.0, -1, source)]
    settled: set[NodeId] = set()
    while heap:
        dist_u, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v in sorted(adjacency[u]):
            if v in settled:
                continue
            if not failures.link_usable(u, v):
                continue
            candidate = dist_u + weight_of(u, v)
            best = result.dist.get(v)
            if best is None or candidate < best - 1e-12:
                result.dist[v] = candidate
                result.parent[v] = u
                heapq.heappush(heap, (candidate, u, v))
            elif abs(candidate - best) <= 1e-12:
                # Tie: prefer the smaller predecessor id for determinism.
                # The source's parent (None) is never replaced.
                current = result.parent[v]
                if current is not None and u < current:
                    result.parent[v] = u
                    heapq.heappush(heap, (candidate, u, v))
    return result


def dijkstra_with_barriers_reference(
    topology: Topology,
    source: NodeId,
    barriers: set[NodeId],
    weight: str = "delay",
    failures: FailureSet = NO_FAILURES,
) -> ShortestPaths:
    """Barrier-constrained shortest paths (specification version).

    Barrier nodes can be settled (they are valid destinations) but their
    outgoing links are not relaxed, so no path traverses them.  ``source``
    being itself a barrier is allowed: the search starts normally from it.
    """
    if weight not in ("delay", "cost"):
        raise RoutingError(f"unknown weight {weight!r}; expected 'delay' or 'cost'")
    if not topology.has_node(source):
        raise TopologyError(f"source {source} is not in the topology")
    result = ShortestPaths(source=source)
    if failures.node_failed(source):
        return result

    adjacency = topology.adjacency()
    weight_of = (
        (lambda u, v: adjacency[u][v])
        if weight == "delay"
        else (lambda u, v: topology.cost(u, v))
    )
    result.dist[source] = 0.0
    result.parent[source] = None
    heap: list[tuple[float, int, NodeId]] = [(0.0, -1, source)]
    settled: set[NodeId] = set()
    while heap:
        dist_u, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in barriers and u != source:
            continue  # reachable, but not traversable
        for v in sorted(adjacency[u]):
            if v in settled:
                continue
            if not failures.link_usable(u, v):
                continue
            candidate = dist_u + weight_of(u, v)
            best = result.dist.get(v)
            if best is None or candidate < best - 1e-12:
                result.dist[v] = candidate
                result.parent[v] = u
                heapq.heappush(heap, (candidate, u, v))
            elif abs(candidate - best) <= 1e-12:
                current = result.parent[v]
                if current is not None and u < current:
                    result.parent[v] = u
                    heapq.heappush(heap, (candidate, u, v))
    return result
