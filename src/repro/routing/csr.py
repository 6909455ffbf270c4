"""Compiled CSR routing substrate: flat-array graphs and SPF kernels.

The dict-of-dict adjacency view that :mod:`repro.routing.spf` historically
searched over is convenient but slow in the inner loop: every relaxation
re-``sorted()`` a neighbour dict, bounced through a ``weight_of`` closure,
and asked the :class:`~repro.routing.failure_view.FailureSet` for
``link_usable`` — three frozenset probes plus a tuple allocation per edge.
A full parameter sweep performs tens of thousands of SPF runs, so those
per-edge costs dominate the whole experiment pipeline.

This module compiles a :class:`~repro.graph.topology.Topology` *once per
topology state* into a **compressed sparse row** form:

- nodes are mapped to dense indices ``0..n-1`` in sorted-id order (so
  index comparisons reproduce the library's id-based deterministic
  tie-break exactly);
- each node's neighbours live in one contiguous, **pre-sorted** slice of
  the arc arrays — no sorting inside the search;
- ``delay`` and ``cost`` weights are flat per-arc arrays — no closure and
  no attribute-dict access per relaxation;
- failure scenarios compile to per-arc/per-node **bitsets**
  (:func:`compile_failures`), turning the per-edge failure test into two
  bytearray probes.

The kernels (:func:`csr_dijkstra`, :func:`csr_dijkstra_barriers`) are
drop-in replacements for the dict-based reference implementations kept
with the tests (``tests/routing/spf_reference.py``): they perform the
same float operations in the same order, push the same heap entries, and
apply the same smaller-predecessor tie-break, so their output — including
dict *insertion order*, which downstream routing tables iterate — is
bit-identical.  A property suite (``tests/properties/test_csr_equivalence``)
asserts that equivalence on randomised topologies and failure sets.

Both kernels run one relaxation loop, :meth:`CsrSearch.run`, to
exhaustion.  A :class:`CsrSearch` can also stop early — when a target
settles, or once the nearest node of a set is final — and resume later;
restoration asks its post-failure questions that way
(:class:`~repro.routing.spf.PathSearch`), settling only as far as each
answer needs.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.graph.topology import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.topology import Topology
    from repro.routing.failure_view import FailureSet

INF = float("inf")

#: Sentinel parent index meaning "no predecessor" (the source, or never
#: reached).  Distinct from any valid index, including for topologies with
#: negative node *ids* — indices are always dense and non-negative.
NO_PARENT = -1


class CsrGraph:
    """A topology compiled to compressed-sparse-row arrays.

    Attributes
    ----------
    token:
        The :meth:`~repro.graph.topology.Topology.cache_token` of the
        topology state this compilation reflects.
    node_ids:
        Dense index → node id, in sorted-id order (index order therefore
        *is* id order, which the deterministic tie-break relies on).
    index_of:
        Node id → dense index.
    indptr:
        ``indptr[i]:indptr[i+1]`` is node ``i``'s arc slice.
    nbr:
        Arc → neighbour index, pre-sorted within each node's slice.
    delay / cost:
        Arc → link weight.
    arcs_of_edge:
        Canonical undirected edge → its two directed arc positions
        (used to compile link-failure bitsets).
    """

    __slots__ = (
        "token",
        "node_ids",
        "index_of",
        "indptr",
        "nbr",
        "delay",
        "cost",
        "arcs_of_edge",
        "_weight_arrays",
        "_incoming",
        "_batch_plan",
        "_root_dist",
    )

    def __init__(self, topology: "Topology") -> None:
        self.token = topology.cache_token()
        ids = topology.nodes()  # sorted for determinism
        self.node_ids: list[NodeId] = ids
        self.index_of: dict[NodeId, int] = {nid: i for i, nid in enumerate(ids)}
        n = len(ids)
        adjacency = topology.adjacency()

        indptr = [0] * (n + 1)
        nbr: list[int] = []
        delay: list[float] = []
        cost: list[float] = []
        arcs_of_edge: dict[tuple[NodeId, NodeId], tuple[int, int]] = {}
        half: dict[tuple[NodeId, NodeId], int] = {}

        index_of = self.index_of
        for i, u in enumerate(ids):
            row = sorted(adjacency[u])  # sorted once, at compile time
            for v in row:
                arc = len(nbr)
                nbr.append(index_of[v])
                delay.append(adjacency[u][v])
                cost.append(topology.cost(u, v))
                edge = (u, v) if u <= v else (v, u)
                mate = half.pop(edge, None)
                if mate is None:
                    half[edge] = arc
                else:
                    arcs_of_edge[edge] = (mate, arc)
            indptr[i + 1] = len(nbr)

        self.indptr = indptr
        self.nbr = nbr
        self.delay = delay
        self.cost = cost
        self.arcs_of_edge = arcs_of_edge
        self._weight_arrays: dict[str, "object"] = {}
        self._incoming = None
        # Degree-bucketed relaxation plan, built lazily by
        # repro.routing.batch the first time a multi-root kernel runs
        # over this compiled graph.
        self._batch_plan = None
        self._root_dist: dict[tuple[str, int], list[float]] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_arcs(self) -> int:
        return len(self.nbr)

    def weight_list(self, weight: str) -> list[float]:
        """The per-arc weight *list* for ``'delay'`` or ``'cost'``.

        The scalar kernels index this with Python ints inside their heap
        loop; keeping it a plain list keeps every distance a builtin
        ``float`` (a numpy array would leak ``np.float64`` scalars into
        the :class:`~repro.routing.spf.ShortestPaths` dicts and break
        their JSON round-trip).
        """
        return self.delay if weight == "delay" else self.cost

    def weights(self, weight: str):
        """The per-arc weight array for ``'delay'`` or ``'cost'``.

        Returns a cached read-only ``numpy.float64`` array — built once
        per weight name per compiled graph, not rebuilt on every call.
        The batch kernels consume it directly; scalar callers that need
        builtin floats use :meth:`weight_list`.
        """
        arr = self._weight_arrays.get(weight)
        if arr is None:
            import numpy as np

            arr = np.asarray(self.weight_list(weight), dtype=np.float64)
            arr.setflags(write=False)
            self._weight_arrays[weight] = arr
        return arr

    def root_distances(self, root_index: int, weight: str) -> list[float]:
        """Failure-free distances from ``root_index``, memoised per root.

        The graph is undirected, so ``dist[v]`` is also the shortest
        distance from ``v`` back to the root: under any failure set or
        excluded nodes, no path to the root is shorter.  That makes it
        the admissible lower bound goal-directed searches prune with
        (:func:`csr_dijkstra`'s ``lower``).  One array per root per
        weight, kept for the lifetime of the compiled graph.
        """
        key = (weight, root_index)
        dist = self._root_dist.get(key)
        if dist is None:
            dist = csr_dijkstra(self, root_index, self.weight_list(weight), None)[0]
            self._root_dist[key] = dist
        return dist

    def incoming(self):
        """The graph's *incoming*-CSR view ``(in_ptr, in_src, in_arc)``.

        Arcs regrouped by destination: positions ``in_ptr[v]:in_ptr[v+1]``
        hold the arcs into node ``v``, with ``in_src`` the source index
        (ascending within each segment, because the outgoing layout is
        already sorted by ``(src, dst)``) and ``in_arc`` the arc's
        position in the outgoing arrays (for weight/bitset lookups).
        Built lazily, cached for the lifetime of the compiled graph;
        this is the segment layout the multi-root kernel's
        ``minimum.reduceat`` sweeps run over.
        """
        if self._incoming is None:
            import numpy as np

            n = self.num_nodes
            dst = np.asarray(self.nbr, dtype=np.int64)
            counts = np.diff(np.asarray(self.indptr, dtype=np.int64))
            src = np.repeat(np.arange(n, dtype=np.int64), counts)
            in_arc = np.lexsort((src, dst))
            in_src = src[in_arc]
            in_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=n), out=in_ptr[1:])
            for arr in (in_ptr, in_src, in_arc):
                arr.setflags(write=False)
            self._incoming = (in_ptr, in_src, in_arc)
        return self._incoming

    def __repr__(self) -> str:
        return (
            f"CsrGraph(token={self.token}, nodes={self.num_nodes}, "
            f"arcs={self.num_arcs})"
        )


def compile_failures(
    csr: CsrGraph, failures: "FailureSet"
) -> tuple[bytearray, bytearray] | None:
    """Compile a failure scenario to ``(node_dead, arc_blocked)`` bitsets.

    Returns ``None`` for the empty scenario so the kernels can skip the
    mask probes entirely.  Failed nodes are marked in ``node_dead``; the
    kernels never relax an arc *into* a dead node, which also prevents it
    from ever being settled or traversed — exactly the semantics of
    :meth:`~repro.routing.failure_view.FailureSet.link_usable` masking.
    Failed links mark both of their directed arcs in ``arc_blocked``.
    """
    if failures.is_empty:
        return None
    node_dead = bytearray(csr.num_nodes)
    arc_blocked = bytearray(csr.num_arcs)
    index_of = csr.index_of
    for node in failures.failed_nodes:
        i = index_of.get(node)
        if i is not None:
            node_dead[i] = 1
    arcs_of_edge = csr.arcs_of_edge
    for edge in failures.failed_links:
        arcs = arcs_of_edge.get(edge)
        if arcs is not None:
            arc_blocked[arcs[0]] = 1
            arc_blocked[arcs[1]] = 1
    return node_dead, arc_blocked


class CsrSearch:
    """One single-source shortest-path search that settles nodes on demand.

    The search state — heap, settled flags, ``dist``, ``parent`` and the
    discovery ``order`` — lives here between calls, so a search can stop
    at the answer to one question and later *resume* for the next
    instead of starting over.  :meth:`run` is the library's one
    relaxation loop; :func:`csr_dijkstra` runs it to exhaustion.

    Exactness: the loop never relaxes an arc into a settled node, so a
    node's ``dist`` and ``parent`` are final once it settles, and so is
    every node on its parent chain (a parent settles before it relaxes
    its child).  Any answer read off settled nodes therefore equals the
    exhaustive search's answer bit for bit, however often the search was
    paused.  Heap keys pop in nondecreasing order (weights are
    non-negative), and an unsettled node's final ``dist`` is at least the
    current heap minimum: its last improving push is still queued.
    """

    __slots__ = ("source", "dist", "parent", "order", "settled", "_heap", "_graph")

    def __init__(
        self,
        csr: CsrGraph,
        source_index: int,
        weights: list[float],
        mask: tuple[bytearray, bytearray] | None,
        barriers: bytearray | None = None,
        lower: list[float] | None = None,
        limit: float = INF,
    ) -> None:
        n = csr.num_nodes
        self.source = source_index
        self.dist = [INF] * n
        self.parent = [NO_PARENT] * n
        self.order: list[int] = []
        self.settled = bytearray(n)
        self._heap: list[tuple[float, int, int]] = []
        if n and source_index != NO_PARENT:  # NO_PARENT: nothing to search from
            self.dist[source_index] = 0.0
            self.order.append(source_index)
            self._heap.append((0.0, NO_PARENT, source_index))
        node_dead, arc_blocked = (None, None) if mask is None else mask
        self._graph = (
            csr.indptr,
            csr.nbr,
            weights,
            node_dead,
            arc_blocked,
            barriers,
            lower,
            limit,
        )

    def run(self, target: int = NO_PARENT, flags=None, best: int = NO_PARENT) -> int:
        """Settle nodes until the question asked is answered.

        Stops when ``target`` settles, or when the heap empties.  With
        ``flags`` (a container of node indices) it keeps the minimum
        ``(dist, index)`` over the flagged nodes that settle — starting
        from ``best``, a flagged node already settled — and stops once the
        next heap key exceeds that minimum's ``dist``: no unsettled node
        can then tie or beat it, so the minimum equals the exhaustive
        search's.  Returns that minimum (:data:`NO_PARENT` when no flagged
        node is reachable, or without ``flags``).

        ``barriers`` (set at construction, a per-node bitset) marks nodes
        that may be settled but never traversed; the source itself is
        always traversable, matching
        :func:`repro.routing.spf.dijkstra_with_barriers`.  ``lower`` and
        ``limit`` make the search goal-directed, as in
        :func:`csr_dijkstra`.

        Ties between equal-length paths keep the smaller predecessor
        *index*, which equals the smaller predecessor *id* because indices
        are assigned in sorted-id order.
        """
        heap = self._heap
        dist = self.dist
        parent = self.parent
        order = self.order
        settled = self.settled
        indptr, nbr, weights, node_dead, arc_blocked, barriers, lower, limit = (
            self._graph
        )
        source = self.source
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            if best != NO_PARENT and heap[0][0] > dist[best]:
                break  # nothing unsettled can tie or beat the answer
            dist_u, _, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = 1
            if barriers is None or not barriers[u] or u == source:
                for arc in range(indptr[u], indptr[u + 1]):
                    v = nbr[arc]
                    if settled[v]:
                        continue
                    if arc_blocked is not None and (arc_blocked[arc] or node_dead[v]):
                        continue
                    candidate = dist_u + weights[arc]
                    best_v = dist[v]
                    if candidate < best_v - 1e-12:
                        if lower is not None and candidate + lower[v] > limit:
                            continue  # cannot lie on a path within the limit
                        if best_v == INF:
                            order.append(v)
                        dist[v] = candidate
                        parent[v] = u
                        push(heap, (candidate, u, v))
                    elif abs(candidate - best_v) <= 1e-12:
                        # Tie: prefer the smaller predecessor for determinism.
                        # The source keeps NO_PARENT (never replaced).
                        current = parent[v]
                        if current != NO_PARENT and u < current:
                            parent[v] = u
                            push(heap, (candidate, u, v))
            if u == target:
                break
            if flags is not None and u in flags and (
                best == NO_PARENT
                or dist[u] < dist[best]
                or (dist[u] == dist[best] and u < best)
            ):
                best = u
        return best

    def settle(self, target: int) -> bool:
        """Settle up to ``target``; True when it is reachable."""
        if not self.settled[target]:
            self.run(target=target)
        return bool(self.settled[target])

    def nearest(self, flags) -> int:
        """The flagged node of minimum ``(dist, index)``, settling only as
        far as that answer needs; :data:`NO_PARENT` if none is reachable.

        Flagged nodes settled by earlier questions count: the answer is
        the same whatever was asked before.
        """
        dist = self.dist
        settled = self.settled
        best = NO_PARENT
        for i in flags:
            if settled[i] and (
                best == NO_PARENT
                or dist[i] < dist[best]
                or (dist[i] == dist[best] and i < best)
            ):
                best = i
        return self.run(flags=flags, best=best)


def csr_dijkstra(
    csr: CsrGraph,
    source_index: int,
    weights: list[float],
    mask: tuple[bytearray, bytearray] | None,
    barriers: bytearray | None = None,
    lower: list[float] | None = None,
    limit: float = INF,
) -> tuple[list[float], list[int], list[int]]:
    """Array-based single-source shortest paths over a compiled graph.

    Returns ``(dist, parent, order)`` where ``dist``/``parent`` are flat
    index-addressed arrays (``INF`` / :data:`NO_PARENT` when unreached)
    and ``order`` lists node indices in first-discovery order — the dict
    insertion order the reference implementation produces, which callers
    use to rebuild :class:`~repro.routing.spf.ShortestPaths` mappings
    bit-identically.  A :class:`CsrSearch` run to exhaustion.

    ``barriers`` (optional per-node bitset) marks nodes that may be
    settled but never traversed; the ``source_index`` itself is always
    traversable.

    ``lower`` (optional per-node array) and ``limit`` make the search
    goal-directed: an improving relaxation ``u → v`` is dropped before its
    heap push when ``dist(u) + w + lower[v] > limit``.  When ``lower`` is
    consistent (``lower[u] <= w(u, v) + lower[v]``, as exact distances to a
    goal are), ``dist + lower`` never decreases along a shortest path, so
    every node on or tied with the path to a node ``v`` whose unbounded
    ``dist(v) + lower[v]`` is below ``limit`` by more than float error is
    below it too: ``v`` keeps the unbounded run's ``dist`` and ``parent``,
    tie-breaks included (the pop order of those nodes is unchanged).
    Other nodes may be missing or over-priced, and ``order`` lists only
    what the bounded search discovered.
    """
    search = CsrSearch(csr, source_index, weights, mask, barriers, lower, limit)
    search.run()
    return search.dist, search.parent, search.order


def csr_dijkstra_barriers(
    csr: CsrGraph,
    source_index: int,
    weights: list[float],
    mask: tuple[bytearray, bytearray] | None,
    barrier_indices,
    lower: list[float] | None = None,
    limit: float = INF,
) -> tuple[list[float], list[int], list[int]]:
    """Barrier-constrained variant: settle barrier nodes, never cross them.

    ``barrier_indices`` is any iterable of node indices; it is compiled to
    a per-node bitset once per call (the search itself then pays two array
    probes per settled node, not a set lookup per edge).  ``lower`` and
    ``limit`` bound the search as in :func:`csr_dijkstra`.
    """
    flags = bytearray(csr.num_nodes)
    for i in barrier_indices:
        flags[i] = 1
    return csr_dijkstra(csr, source_index, weights, mask, flags, lower, limit)
