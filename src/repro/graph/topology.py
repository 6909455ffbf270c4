"""Delay/cost-weighted network topologies.

A :class:`Topology` is an undirected graph whose links carry two positive
weights:

``delay``
    The transmission latency across the link.  The paper's end-to-end delay
    metric and the recovery-distance metric are both sums of link delays.

``cost``
    The resource cost of using the link.  The paper's tree-cost metric is a
    sum of link costs.  By default ``cost == delay`` (as in the paper's
    figures, where one number labels each link), but the two can differ.

The class is its own store: two insertion-ordered maps ``{u: {v: weight}}``
(one for delay, one for cost) plus the node positions, behind a small,
explicit API so the rest of the library never touches the raw dicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import TopologyError

NodeId = int
Edge = tuple[NodeId, NodeId]

#: Process-wide source of topology cache tokens.  Every Topology instance
#: draws a fresh token at construction and after every mutation, so a token
#: identifies one *state* of one instance — never reused, even after the
#: instance is garbage-collected (unlike ``id()``).
_CACHE_TOKENS = itertools.count(1)


def edge_key(u: NodeId, v: NodeId) -> Edge:
    """Return the canonical (sorted) form of an undirected edge.

    Undirected links are stored and compared in canonical form so that
    ``(u, v)`` and ``(v, u)`` always refer to the same link.
    """
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Link:
    """An undirected link with its weights.

    Instances are value objects: two links are equal when they connect the
    same endpoints with the same weights.
    """

    u: NodeId
    v: NodeId
    delay: float
    cost: float

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise TopologyError(f"link {self.key} has non-positive delay {self.delay}")
        if self.cost <= 0:
            raise TopologyError(f"link {self.key} has non-positive cost {self.cost}")

    @property
    def key(self) -> Edge:
        """Canonical endpoint pair identifying this link."""
        return edge_key(self.u, self.v)

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise TopologyError(f"node {node} is not an endpoint of link {self.key}")


class Topology:
    """An undirected, weighted network topology.

    Parameters
    ----------
    name:
        Human-readable identifier used in experiment reports.

    Examples
    --------
    >>> topo = Topology("triangle")
    >>> for n in (0, 1, 2):
    ...     topo.add_node(n)
    >>> _ = topo.add_link(0, 1, delay=1.0)
    >>> _ = topo.add_link(1, 2, delay=2.0)
    >>> _ = topo.add_link(0, 2, delay=2.5)
    >>> topo.delay(0, 1)
    1.0
    >>> sorted(topo.neighbors(1))
    [0, 2]
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        # Insertion-ordered: a node's neighbours are listed in the order
        # its links were added, and nodes in the order they were added.
        self._delay: dict[NodeId, dict[NodeId, float]] = {}
        self._cost: dict[NodeId, dict[NodeId, float]] = {}
        self._pos: dict[NodeId, tuple[float, float] | None] = {}
        self._csr_cache = None
        self._cache_token = next(_CACHE_TOKENS)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, pos: tuple[float, float] | None = None) -> None:
        """Add a node, optionally with a 2-D position (used by Waxman)."""
        if node in self._delay:
            raise TopologyError(f"node {node} already exists")
        self._delay[node] = {}
        self._cost[node] = {}
        self._pos[node] = pos
        self._invalidate_caches()

    def add_link(
        self, u: NodeId, v: NodeId, delay: float, cost: float | None = None
    ) -> Link:
        """Add an undirected link; ``cost`` defaults to ``delay``.

        Returns the created :class:`Link`.
        """
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        for node in (u, v):
            if node not in self._delay:
                raise TopologyError(f"node {node} does not exist")
        if v in self._delay[u]:
            raise TopologyError(f"link {edge_key(u, v)} already exists")
        link = Link(*edge_key(u, v), delay=delay, cost=cost if cost is not None else delay)
        for a, b in ((link.u, link.v), (link.v, link.u)):
            self._delay[a][b] = link.delay
            self._cost[a][b] = link.cost
        self._invalidate_caches()
        return link

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Permanently remove a link (topology change, not a failure)."""
        if not self.has_link(u, v):
            raise TopologyError(f"link {edge_key(u, v)} does not exist")
        for a, b in ((u, v), (v, u)):
            del self._delay[a][b]
            del self._cost[a][b]
        self._invalidate_caches()

    def remove_node(self, node: NodeId) -> None:
        """Permanently remove a node and its incident links."""
        if node not in self._delay:
            raise TopologyError(f"node {node} does not exist")
        for neighbor in self._delay[node]:
            del self._delay[neighbor][node]
            del self._cost[neighbor][node]
        del self._delay[node]
        del self._cost[node]
        del self._pos[node]
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._delay)

    @property
    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._delay.values()) // 2

    def nodes(self) -> list[NodeId]:
        """All node ids, sorted for determinism."""
        return sorted(self._delay)

    def links(self) -> list[Link]:
        """All links, in canonical-key order."""
        out = [
            Link(u, v, delay=delay, cost=self._cost[u][v])
            for u, nbrs in self._delay.items()
            for v, delay in nbrs.items()
            if u < v
        ]
        out.sort(key=lambda link: link.key)
        return out

    def has_node(self, node: NodeId) -> bool:
        return node in self._delay

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        return v in self._delay.get(u, ())

    def link(self, u: NodeId, v: NodeId) -> Link:
        """Return the :class:`Link` between ``u`` and ``v``."""
        a, b = edge_key(u, v)
        return Link(a, b, delay=self.delay(u, v), cost=self.cost(u, v))

    def delay(self, u: NodeId, v: NodeId) -> float:
        try:
            return self._delay[u][v]
        except KeyError:
            raise TopologyError(f"link {edge_key(u, v)} does not exist") from None

    def cost(self, u: NodeId, v: NodeId) -> float:
        try:
            return self._cost[u][v]
        except KeyError:
            raise TopologyError(f"link {edge_key(u, v)} does not exist") from None

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        return iter(sorted(self._neighbor_map(node)))

    def degree(self, node: NodeId) -> int:
        return len(self._neighbor_map(node))

    def _neighbor_map(self, node: NodeId) -> dict[NodeId, float]:
        try:
            return self._delay[node]
        except KeyError:
            raise TopologyError(f"node {node} does not exist") from None

    def average_degree(self) -> float:
        """Realised average node degree (2E/N)."""
        if self.num_nodes == 0:
            return 0.0
        return 2.0 * self.num_links / self.num_nodes

    def position(self, node: NodeId) -> tuple[float, float] | None:
        """The node's planar position, if one was assigned."""
        try:
            return self._pos[node]
        except KeyError:
            raise TopologyError(f"node {node} does not exist") from None

    def path_delay(self, path: Iterable[NodeId]) -> float:
        """Sum of link delays along a node path."""
        return self._path_weight(path, self._delay)

    def path_cost(self, path: Iterable[NodeId]) -> float:
        """Sum of link costs along a node path."""
        return self._path_weight(path, self._cost)

    @staticmethod
    def _path_weight(
        path: Iterable[NodeId], weights: dict[NodeId, dict[NodeId, float]]
    ) -> float:
        nodes = list(path)
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            try:
                total += weights[u][v]
            except KeyError:
                raise TopologyError(f"path uses missing link {edge_key(u, v)}") from None
        return total

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list[set[NodeId]]:
        """The components, listed by their first node in insertion order."""
        components: list[set[NodeId]] = []
        seen: set[NodeId] = set()
        for start in self._delay:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                for v in self._delay[stack.pop()]:
                    if v not in component:
                        component.add(v)
                        stack.append(v)
            seen |= component
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Views and export
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        """Mutation hook: drop the compiled graph and advance the cache token."""
        self._csr_cache = None
        self._cache_token = next(_CACHE_TOKENS)

    def cache_token(self) -> int:
        """Opaque token identifying this topology *state* for caching.

        Two calls return the same token iff the topology has not been
        mutated in between; tokens are never reused across instances, so
        ``(cache_token(), …)`` keys are safe in long-lived caches (see
        :class:`repro.routing.route_cache.RouteCache`).
        """
        return self._cache_token

    def adjacency(self) -> Mapping[NodeId, dict[NodeId, float]]:
        """Delay-weighted adjacency mapping ``{u: {v: delay}}``.

        This is the store itself, so it always reflects the current
        state; callers must treat it as read-only.
        """
        return self._delay

    def csr(self):
        """The compiled :class:`~repro.routing.csr.CsrGraph` for this state.

        Built lazily on first use and invalidated on mutation.  All SPF
        kernels in :mod:`repro.routing.spf` run over this compiled form;
        :class:`~repro.graph.cache.TopologyCache` pre-compiles it at
        build time so cached topologies arrive hot.
        """
        if self._csr_cache is None:
            # Imported here: repro.routing.csr imports NodeId from this
            # module, so a top-level import would be circular.
            from repro.routing.csr import CsrGraph

            self._csr_cache = CsrGraph(self)
        return self._csr_cache

    def copy(self, name: str | None = None) -> "Topology":
        """Deep copy; topology mutations on the copy do not affect this one."""
        clone = Topology(name or self.name)
        clone._delay = {u: dict(nbrs) for u, nbrs in self._delay.items()}
        clone._cost = {u: dict(nbrs) for u, nbrs in self._cost.items()}
        clone._pos = dict(self._pos)
        return clone

    def validate(self) -> None:
        """Raise :class:`TopologyError` if any structural invariant fails.

        Checks: positive weights, no self-loops, and (when positions exist)
        positions present on every node.
        """
        positioned = sum(1 for pos in self._pos.values() if pos is not None)
        if positioned not in (0, self.num_nodes):
            raise TopologyError(
                f"{self.name}: {positioned}/{self.num_nodes} nodes have positions; "
                "positions must be assigned to all nodes or none"
            )
        for u, nbrs in self._delay.items():
            for v, delay in nbrs.items():
                if u == v:
                    raise TopologyError(f"{self.name}: self-loop on node {u}")
                if delay <= 0 or self._cost[u][v] <= 0:
                    raise TopologyError(
                        f"{self.name}: link {edge_key(u, v)} has non-positive weight"
                    )

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links}, avg_degree={self.average_degree():.2f})"
        )
