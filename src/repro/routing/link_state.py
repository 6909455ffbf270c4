"""Link-state database and unicast re-convergence model.

The paper's motivation (§1, citing Wang et al. [25]) is that PIM-style
multicast recovery is dominated by the *unicast* protocol's re-convergence:
after a persistent failure, every affected router must detect the failure,
flood updated link-state advertisements, and re-run SPF before the member's
new shortest path even exists.  A local detour avoids that wait.

This module provides:

- :class:`LinkStateDatabase` — a router's view of the network: the full
  topology minus the failures it has learned about.  Routing tables are
  derived from this view, so a router that has not yet heard about a
  failure still routes through it (exactly the transient the paper's local
  recovery sidesteps).

- :class:`ConvergenceModel` — an analytic model of when each router's view
  converges after a failure: detection delay at the adjacent routers, plus
  delay-proportional flooding of the LSA, plus SPF recomputation time.
  The experiments use it to translate recovery *distance* into recovery
  *latency* and to compare against the global-detour baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.errors import ConfigurationError, TopologyError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import PathSearch
from repro.routing.tables import RoutingTable, build_routing_table


class LinkStateDatabase:
    """A single router's link-state view of the network.

    The database starts fully synchronized with the real topology; failures
    become visible only when :meth:`learn_failure` is called (by the
    flooding process of the simulator or by the convergence model).
    """

    def __init__(self, owner: NodeId, topology: Topology) -> None:
        if not topology.has_node(owner):
            raise TopologyError(f"LSDB owner {owner} is not in the topology")
        self.owner = owner
        self._topology = topology
        self._known_failed_links: set[Edge] = set()
        self._known_failed_nodes: set[NodeId] = set()

    @property
    def known_failures(self) -> FailureSet:
        """Failures this router has learned about so far."""
        return FailureSet(
            failed_links=frozenset(self._known_failed_links),
            failed_nodes=frozenset(self._known_failed_nodes),
        )

    def learn_failure(self, failures: FailureSet) -> bool:
        """Merge newly learned failures; returns True if the view changed."""
        before = (len(self._known_failed_links), len(self._known_failed_nodes))
        self._known_failed_links.update(failures.failed_links)
        self._known_failed_nodes.update(failures.failed_nodes)
        return (len(self._known_failed_links), len(self._known_failed_nodes)) != before

    def forget_all(self) -> None:
        """Reset to the pristine (no-failure) view."""
        self._known_failed_links.clear()
        self._known_failed_nodes.clear()

    def routing_table(self, weight: str = "delay") -> RoutingTable:
        """The routing table this router would install from its current view."""
        return build_routing_table(
            self._topology, self.owner, weight=weight, failures=self.known_failures
        )

    def is_synchronized_with(self, actual: FailureSet) -> bool:
        """True when this view includes every actually failed component."""
        return actual.failed_links <= frozenset(
            self._known_failed_links
        ) and actual.failed_nodes <= frozenset(self._known_failed_nodes)


@dataclass(frozen=True)
class ConvergenceModel:
    """Analytic model of link-state re-convergence latency.

    Attributes
    ----------
    detection_delay:
        Time for a router adjacent to the failure to declare it dead
        (e.g. hello/dead-interval timeout; dominant in practice).
    flooding_delay_factor:
        LSAs propagate along links at this multiple of the link delay.
    per_hop_processing:
        Fixed LSA processing time added per flooding hop.
    spf_compute_time:
        Time to re-run SPF and install routes once the LSA arrives.
    """

    detection_delay: float = 30.0
    flooding_delay_factor: float = 1.0
    per_hop_processing: float = 0.5
    spf_compute_time: float = 1.0

    #: The flood of the last ``(model, topology state, failures)`` asked
    #: about: every member of every group restored after one failure asks
    #: about that same flood.
    _last_flood: ClassVar["_Flood | None"] = None

    def __post_init__(self) -> None:
        for name in (
            "detection_delay",
            "flooding_delay_factor",
            "per_hop_processing",
            "spf_compute_time",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def _flood(self, topology: Topology, failures: FailureSet) -> "_Flood":
        key = (self, topology.cache_token(), failures)
        flood = ConvergenceModel._last_flood
        if flood is None or flood.key != key:
            flood = _Flood(key, self, topology, failures)
            ConvergenceModel._last_flood = flood
        return flood

    def convergence_times(
        self, topology: Topology, failures: FailureSet
    ) -> dict[NodeId, float]:
        """When each surviving router's routing table is re-converged.

        LSAs originate at the routers adjacent to each failed component at
        ``detection_delay``, then flood over the surviving topology; each
        router converges ``spf_compute_time`` after its last relevant LSA
        arrives.  Routers disconnected from every failure-adjacent router
        never learn of the failure; they are reported with the detection
        delay only (their tables never change, so they are trivially
        "converged").

        Every router at once: each origin's flood search runs to
        exhaustion.  The answer is kept with the flood (see
        :meth:`convergence_time`); callers treat the dict as read-only.
        """
        return self._flood(topology, failures).all_times()

    def convergence_time(
        self, topology: Topology, failures: FailureSet, node: NodeId
    ) -> float:
        """Convergence time at one router, as :meth:`convergence_times`
        reports it.

        The model keeps one flood search per LSA origin for the current
        ``(model, topology state, failures)`` and resumes each only until
        ``node`` settles; its hop count is the length of the settled
        parent chain.  Another model, topology state or failure set starts
        a new flood.
        """
        return self._flood(topology, failures).time_at(node)

    def _advertising_routers(
        self, topology: Topology, failures: FailureSet
    ) -> set[NodeId]:
        """Surviving routers adjacent to a failed component (LSA origins)."""
        origins: set[NodeId] = set()
        for u, v in failures.failed_links:
            for endpoint in (u, v):
                if topology.has_node(endpoint) and not failures.node_failed(endpoint):
                    origins.add(endpoint)
        for node in failures.failed_nodes:
            if not topology.has_node(node):
                continue
            for neighbor in topology.neighbors(node):
                if not failures.node_failed(neighbor):
                    origins.add(neighbor)
        return origins


class _Flood:
    """One failure's LSA flood, settled as far as the routers asked about."""

    __slots__ = ("key", "model", "topology", "failures", "searches", "times", "_all")

    def __init__(
        self, key: tuple, model: ConvergenceModel, topology: Topology, failures: FailureSet
    ) -> None:
        self.key = key
        self.model = model
        self.topology = topology
        self.failures = failures
        self.searches = [
            PathSearch(topology, origin, weight="delay", failures=failures)
            for origin in sorted(model._advertising_routers(topology, failures))
        ]
        self.times: dict[NodeId, float] = {}
        self._all: dict[NodeId, float] | None = None

    def time_at(self, node: NodeId) -> float:
        time = self.times.get(node)
        if time is not None:
            return time
        if not self.topology.has_node(node) or self.failures.node_failed(node):
            raise TopologyError(f"node {node} is failed or not in the topology")
        model = self.model
        if not self.searches:
            time = 0.0  # nothing failed next to a surviving router
        else:
            # A router is converged once it has heard from *every* origin
            # it can reach (distinct failed components are advertised
            # independently).
            arrival = 0.0
            heard = False
            for paths in self.searches:
                if not paths.reachable(node):
                    continue
                heard = True
                hops = len(paths.path_to(node)) - 1
                lsa_time = (
                    model.detection_delay
                    + model.flooding_delay_factor * paths.distance(node)
                    + model.per_hop_processing * hops
                )
                arrival = max(arrival, lsa_time)
            time = arrival + model.spf_compute_time if heard else model.detection_delay
        self.times[node] = time
        return time

    def all_times(self) -> dict[NodeId, float]:
        if self._all is None:
            failures = self.failures
            self._all = {
                node: self.time_at(node)
                for node in self.topology.nodes()
                if not failures.node_failed(node)
            }
        return self._all


@dataclass
class FloodingStats:
    """Bookkeeping for LSA flooding overhead (used by the overhead bench)."""

    lsa_messages: int = 0
    touched_routers: set[NodeId] = field(default_factory=set)


def flood_failure(
    topology: Topology,
    databases: dict[NodeId, LinkStateDatabase],
    failures: FailureSet,
) -> FloodingStats:
    """Synchronously flood a failure into every reachable router's LSDB.

    Models the *end state* of OSPF flooding (the DES models the timing).
    Each link crossed by the LSA counts as one message.  Returns overhead
    statistics used by the protocol-overhead ablation.
    """
    stats = FloodingStats()
    origins = ConvergenceModel()._advertising_routers(topology, failures)
    visited: set[NodeId] = set()
    frontier = sorted(origins)
    for node in frontier:
        if node in databases:
            databases[node].learn_failure(failures)
            visited.add(node)
    while frontier:
        next_frontier: list[NodeId] = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if not failures.link_usable(node, neighbor):
                    continue
                stats.lsa_messages += 1
                if neighbor in visited or neighbor not in databases:
                    continue
                databases[neighbor].learn_failure(failures)
                visited.add(neighbor)
                next_frontier.append(neighbor)
        frontier = sorted(set(next_frontier))
    stats.touched_routers = visited
    return stats
