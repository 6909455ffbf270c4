"""Hierarchical recovery architecture (paper §3.3.3).

SMRP scales by splitting the network into *recovery domains* arranged in
levels — the paper maps a 2-level instance onto the transit-stub Internet
structure (Figure 6).  Each domain runs its own SMRP sub-tree:

- every stub domain's tree is rooted at that domain's **agent** (its
  gateway router) and serves the members inside the domain;
- the domain of the actual source is the exception: its tree is rooted at
  the source itself, and its agent joins as an ordinary member, relaying
  packets up to the backbone;
- the transit (level-0) domain's tree is rooted at the source domain's
  agent and its members are the agents of every stub domain that
  currently has receivers.

A failure is handled *entirely inside the domain it occurs in*: the
affected domain repairs its own sub-tree with local detours while every
other domain's state is untouched.  The hierarchical bench quantifies the
resulting confinement against a flat SMRP instance on the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AlreadyMemberError,
    ConfigurationError,
    NotMemberError,
    RecoveryError,
)
from repro.graph.topology import NodeId, Topology, edge_key
from repro.graph.transit_stub import Domain, TransitStubResult
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import TreeRepairReport, repair_tree
from repro.routing.failure_view import FailureSet


@dataclass
class HierarchicalRecoveryReport:
    """What a hierarchical recovery touched."""

    domains_reconfigured: list[int] = field(default_factory=list)
    repairs: dict[int, TreeRepairReport] = field(default_factory=dict)
    scope_nodes: int = 0
    #: Domains whose own tree root (agent or source) failed: nothing a
    #: confined recovery can do for them.
    dead_domains: list[int] = field(default_factory=list)

    @property
    def total_recovery_distance(self) -> float:
        return sum(r.total_recovery_distance for r in self.repairs.values())

    @property
    def unrecoverable(self) -> list[NodeId]:
        out: list[NodeId] = []
        for report in self.repairs.values():
            out.extend(report.unrecoverable)
        return sorted(out)


class HierarchicalMulticast:
    """A 2-level hierarchical SMRP session over a transit-stub network.

    Parameters
    ----------
    network:
        A generated transit-stub topology with its domain structure.
    source:
        The multicast source; must lie in a stub domain (the paper's
        Figure 6 scenario — sources live at the edge).
    config:
        SMRP configuration applied inside every domain.
    """

    def __init__(
        self,
        network: TransitStubResult,
        source: NodeId,
        config: SMRPConfig | None = None,
    ) -> None:
        self.network = network
        self.source = source
        self.config = config or SMRPConfig()
        source_domain_id = network.domain_of.get(source)
        if source_domain_id is None:
            raise ConfigurationError(f"source {source} is not in the network")
        if network.domains[source_domain_id].level != 1:
            raise ConfigurationError(
                "the source must live in a stub domain (Figure 6 scenario)"
            )
        self.source_domain = network.domains[source_domain_id]
        self._protocols: dict[int, SMRPProtocol] = {}
        self._domain_topologies: dict[int, Topology] = {}
        self._members: set[NodeId] = set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, member: NodeId) -> None:
        """Join a receiver, activating its domain chain as needed."""
        if member in self._members:
            raise AlreadyMemberError(member)
        domain = self._domain_for_member(member)
        protocol = self._protocol_for(domain)
        protocol.join(member)
        self._members.add(member)
        if domain.domain_id != self.source_domain.domain_id:
            self._activate_relay_chain(domain)

    def leave(self, member: NodeId) -> None:
        """Remove a receiver, deactivating empty domain chains."""
        if member not in self._members:
            raise NotMemberError(member)
        domain = self._domain_for_member(member)
        protocol = self._protocols[domain.domain_id]
        protocol.leave(member)
        self._members.discard(member)
        if domain.domain_id != self.source_domain.domain_id:
            self._deactivate_relay_chain(domain)

    @property
    def members(self) -> frozenset[NodeId]:
        return frozenset(self._members)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def end_to_end_delay(self, member: NodeId) -> float:
        """Delay from the source to ``member`` across the domain trees."""
        if member not in self._members:
            raise NotMemberError(member)
        domain = self._domain_for_member(member)
        if domain.domain_id == self.source_domain.domain_id:
            return self._protocols[domain.domain_id].tree.delay_from_source(member)
        source_tree = self._protocols[self.source_domain.domain_id].tree
        transit_tree = self._protocols[0].tree
        stub_tree = self._protocols[domain.domain_id].tree
        assert self.source_domain.gateway is not None
        assert domain.gateway is not None
        return (
            source_tree.delay_from_source(self.source_domain.gateway)
            + transit_tree.delay_from_source(domain.gateway)
            + stub_tree.delay_from_source(member)
        )

    def total_cost(self) -> float:
        """Sum of all domain trees' costs (domain link sets are disjoint)."""
        return sum(p.tree.tree_cost() for p in self._protocols.values())

    def active_domains(self) -> list[int]:
        return sorted(self._protocols)

    def protocol(self, domain_id: int) -> SMRPProtocol:
        try:
            return self._protocols[domain_id]
        except KeyError:
            raise ConfigurationError(f"domain {domain_id} is not active") from None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        failures: FailureSet,
        route_cache=None,
        route_obs=None,
        obs=None,
    ) -> HierarchicalRecoveryReport:
        """Repair every domain a failure touches; others stay untouched.

        Implements the paper's domain confinement: once the failing domain
        is identified (the paper cites fault-isolation techniques [1]),
        recovery runs inside it with local detours over the domain's own
        sub-topology.  ``route_cache`` / ``route_obs`` memoise post-failure
        SPF state across repairs exactly as in
        :func:`~repro.core.recovery.repair_tree` (domain sub-topologies
        carry their own cache tokens, so entries never cross domains).
        An ``obs`` with a restoration tracer attached yields one episode
        per member re-attached, domain by domain.
        """
        report = HierarchicalRecoveryReport()
        for domain_id, protocol in sorted(self._protocols.items()):
            domain_failures = self._restrict_failures(domain_id, failures)
            if domain_failures.is_empty:
                continue
            if not protocol.tree.affected_by(domain_failures):
                continue
            if domain_failures.node_failed(protocol.tree.source):
                # The domain's own root (its agent, or the session source)
                # died: a confined recovery cannot re-root the domain.
                report.dead_domains.append(domain_id)
                for member in sorted(protocol.tree.members):
                    if self.network.domain_of.get(member) == domain_id:
                        self._members.discard(member)
                del self._protocols[domain_id]
                continue
            repair = repair_tree(
                self._domain_topologies[domain_id],
                protocol.tree,
                domain_failures,
                strategy="local",
                obs=obs,
                route_cache=route_cache,
                route_obs=route_obs,
            )
            protocol.tree = repair.repaired_tree
            protocol.state.rebind(repair.repaired_tree)
            report.domains_reconfigured.append(domain_id)
            report.repairs[domain_id] = repair
            report.scope_nodes += len(
                self._domain_topologies[domain_id].nodes()
            )
        failed_members = {
            m for m in self._members if failures.node_failed(m)
        }
        for member in sorted(failed_members):
            self._members.discard(member)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _domain_for_member(self, member: NodeId) -> Domain:
        domain_id = self.network.domain_of.get(member)
        if domain_id is None:
            raise ConfigurationError(f"node {member} is not in the network")
        domain = self.network.domains[domain_id]
        if domain.level != 1:
            raise ConfigurationError(
                f"node {member} is a backbone router; only stub nodes "
                "host receivers in the Figure 6 scenario"
            )
        return domain

    def _protocol_for(self, domain: Domain) -> SMRPProtocol:
        if domain.domain_id not in self._protocols:
            topo = self._domain_topology(domain.domain_id)
            if domain.domain_id == self.source_domain.domain_id:
                root = self.source
            elif domain.level == 0:
                assert self.source_domain.gateway is not None
                root = self.source_domain.gateway
            else:
                assert domain.gateway is not None
                root = domain.gateway
            self._protocols[domain.domain_id] = SMRPProtocol(
                topo, root, config=self.config
            )
        return self._protocols[domain.domain_id]

    def _domain_topology(self, domain_id: int) -> Topology:
        if domain_id not in self._domain_topologies:
            domain = self.network.domains[domain_id]
            if domain.level == 0:
                nodes = set(domain.nodes)
                # The transit recovery domain spans the backbone plus the
                # agents (gateways) that hang off it — RD_0 in Figure 6.
                nodes.update(
                    d.gateway
                    for d in self.network.stub_domains
                    if d.gateway is not None
                )
            else:
                nodes = set(domain.nodes)
            self._domain_topologies[domain_id] = _induced_topology(
                self.network.topology, nodes, name=f"domain-{domain_id}"
            )
        return self._domain_topologies[domain_id]

    def _activate_relay_chain(self, domain: Domain) -> None:
        """Ensure the backbone delivers packets to ``domain``'s agent."""
        transit = self._protocol_for(self.network.transit_domain)
        assert domain.gateway is not None
        if not transit.tree.is_member(domain.gateway):
            transit.join(domain.gateway)
        # The source domain's agent must relay out of the source domain.
        source_protocol = self._protocol_for(self.source_domain)
        gateway = self.source_domain.gateway
        assert gateway is not None
        if gateway != self.source and not source_protocol.tree.is_member(gateway):
            source_protocol.join(gateway)

    def _deactivate_relay_chain(self, domain: Domain) -> None:
        """Tear down relays for a stub domain that lost its last member."""
        protocol = self._protocols.get(domain.domain_id)
        if protocol is None or protocol.tree.members:
            return
        transit = self._protocols.get(0)
        assert domain.gateway is not None
        if transit is not None and transit.tree.is_member(domain.gateway):
            transit.leave(domain.gateway)
        del self._protocols[domain.domain_id]
        # If no external domain remains, the source domain's agent stops
        # relaying.
        if transit is not None and not transit.tree.members:
            del self._protocols[0]
            source_protocol = self._protocols.get(self.source_domain.domain_id)
            gateway = self.source_domain.gateway
            assert gateway is not None
            if (
                source_protocol is not None
                and gateway != self.source
                and source_protocol.tree.is_member(gateway)
                and gateway not in self._members
            ):
                source_protocol.leave(gateway)

    def _restrict_failures(self, domain_id: int, failures: FailureSet) -> FailureSet:
        """The part of a failure scenario that falls inside one domain."""
        topo = self._domain_topology(domain_id)
        links = frozenset(
            edge_key(u, v)
            for u, v in failures.failed_links
            if topo.has_node(u) and topo.has_node(v) and topo.has_link(u, v)
        )
        nodes = frozenset(n for n in failures.failed_nodes if topo.has_node(n))
        return FailureSet(failed_links=links, failed_nodes=nodes)


def _induced_topology(topology: Topology, nodes: set[NodeId], name: str) -> Topology:
    """The sub-topology induced by ``nodes`` (same ids, same weights)."""
    if not nodes:
        raise RecoveryError("cannot induce an empty domain topology")
    sub = Topology(name)
    for node in sorted(nodes):
        sub.add_node(node, pos=topology.position(node))
    for link in topology.links():
        if link.u in nodes and link.v in nodes:
            sub.add_link(link.u, link.v, delay=link.delay, cost=link.cost)
    return sub
