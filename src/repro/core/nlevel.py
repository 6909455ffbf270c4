"""N-level hierarchical recovery (the generalization of §3.3.3).

:class:`NLevelMulticast` runs one SMRP instance per *active* domain of an
:class:`~repro.graph.nlevel.NLevelNetwork`:

- the source's leaf domain's tree is rooted at the source itself; its
  agent (gateway) joins as a relaying member — the paper's "exception"
  domain;
- every other domain's tree is rooted at the point where data enters it:
  its own gateway for domains below the data path, or the gateway of the
  next domain toward the source for domains the data crosses upward;
- data between the source and a member flows up the source's domain
  chain to their **lowest common ancestor domain** and back down the
  member's chain — each hop carried by that domain's own tree (the
  S → R1 path of Figure 6 crossing RD1, RD0, RD2, generalized to any
  nesting depth);
- a failure is repaired strictly inside the domain that contains it.

Relay memberships are reference-counted so domains activate exactly when
the first member needs them and dissolve with the last.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import (
    AlreadyMemberError,
    ConfigurationError,
    NotMemberError,
    ReproError,
)
from repro.graph.nlevel import NestedDomain, NLevelNetwork
from repro.graph.topology import NodeId, Topology, edge_key
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import TreeRepairReport, repair_tree
from repro.routing.failure_view import FailureSet


@dataclass
class NLevelRecoveryReport:
    """What an N-level recovery touched."""

    domains_reconfigured: list[int] = field(default_factory=list)
    repairs: dict[int, TreeRepairReport] = field(default_factory=dict)
    scope_nodes: int = 0
    #: Domains whose agent failed and was replaced by a standby.
    failovers: dict[int, NodeId] = field(default_factory=dict)
    #: Domains whose agent failed with no standby left: their members are
    #: unreachable until the operator intervenes.
    dead_domains: list[int] = field(default_factory=list)
    #: Members that could not be re-attached during agent failover (the
    #: dead agent was a cut vertex of their domain).
    failover_casualties: list[NodeId] = field(default_factory=list)

    @property
    def total_recovery_distance(self) -> float:
        return sum(r.total_recovery_distance for r in self.repairs.values())


class NLevelMulticast:
    """SMRP over an arbitrary-depth domain hierarchy."""

    def __init__(
        self,
        network: NLevelNetwork,
        source: NodeId,
        config: SMRPConfig | None = None,
    ) -> None:
        self.network = network
        self.source = source
        self.config = config or SMRPConfig()
        source_domain_id = network.domain_of.get(source)
        if source_domain_id is None:
            raise ConfigurationError(f"source {source} is not in the network")
        if not network.domains[source_domain_id].is_leaf:
            raise ConfigurationError(
                "the source must live in a leaf domain (members cluster at "
                "the lowest level, §3.3.3)"
            )
        self.source_domain_id = source_domain_id
        self.source_path = network.domain_path(source_domain_id)
        self._protocols: dict[int, SMRPProtocol] = {}
        self._graphs: dict[int, Topology] = {}
        self._members: set[NodeId] = set()
        self._relay_demand: Counter[tuple[int, NodeId]] = Counter()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, member: NodeId) -> None:
        if member in self._members:
            raise AlreadyMemberError(member)
        leaf = self._leaf_domain_of(member)
        for domain_id, relay in self._relay_requirements(leaf.domain_id):
            self._relay_demand[(domain_id, relay)] += 1
            protocol = self._protocol_for(domain_id)
            if not protocol.tree.is_member(relay):
                protocol.join(relay)
        self._protocol_for(leaf.domain_id).join(member)
        self._members.add(member)

    def leave(self, member: NodeId) -> None:
        if member not in self._members:
            raise NotMemberError(member)
        leaf = self._leaf_domain_of(member)
        self._protocols[leaf.domain_id].leave(member)
        self._members.discard(member)
        for domain_id, relay in reversed(
            self._relay_requirements(leaf.domain_id)
        ):
            self._relay_demand[(domain_id, relay)] -= 1
            if self._relay_demand[(domain_id, relay)] > 0:
                continue
            del self._relay_demand[(domain_id, relay)]
            protocol = self._protocols.get(domain_id)
            if protocol is None:
                continue
            if relay in self._members and self.network.domain_of.get(relay) == domain_id:
                continue  # the relay is also a genuine receiver
            if protocol.tree.is_member(relay):
                protocol.leave(relay)
        self._garbage_collect()

    @property
    def members(self) -> frozenset[NodeId]:
        return frozenset(self._members)

    def active_domains(self) -> list[int]:
        return sorted(self._protocols)

    def protocol(self, domain_id: int) -> SMRPProtocol:
        try:
            return self._protocols[domain_id]
        except KeyError:
            raise ConfigurationError(f"domain {domain_id} is not active") from None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def end_to_end_delay(self, member: NodeId) -> float:
        """Delay S → member summed across the domain chain's trees."""
        if member not in self._members:
            raise NotMemberError(member)
        leaf = self._leaf_domain_of(member)
        total = 0.0
        for domain_id, exit_node in self._data_path(leaf.domain_id, member):
            tree = self._protocols[domain_id].tree
            total += tree.delay_from_source(exit_node)
        return total

    def total_cost(self) -> float:
        """Sum of all active domain trees' costs (link sets are disjoint)."""
        return sum(p.tree.tree_cost() for p in self._protocols.values())

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        failures: FailureSet,
        route_cache=None,
        route_obs=None,
        obs=None,
    ) -> NLevelRecoveryReport:
        """Repair every affected domain inside its own sub-topology.

        Handles two failure classes:

        - component failures inside a domain → local-detour repair of that
          domain's tree (the §3.3.3 confinement);
        - **agent failures**: when a domain's gateway node itself dies,
          a standby agent (generated multi-homed into the parent domain)
          takes over — the domain's tree re-roots at the standby, the
          parent's relay membership switches to it, and everything else
          stays untouched.  Without a live standby the domain is reported
          dead.

        An ``obs`` with a restoration tracer attached yields one episode
        per member re-attached (``origin="repair"``), domain by domain.
        """
        report = NLevelRecoveryReport()
        self._failover_dead_agents(failures, report)
        for domain_id, protocol in sorted(self._protocols.items()):
            local = self._restrict_failures(domain_id, failures)
            if local.is_empty or not protocol.tree.affected_by(local):
                continue
            repair = repair_tree(
                self._graphs[domain_id],
                protocol.tree,
                local,
                strategy="local",
                obs=obs,
                route_cache=route_cache,
                route_obs=route_obs,
            )
            protocol.tree = repair.repaired_tree
            protocol.state.rebind(repair.repaired_tree)
            report.domains_reconfigured.append(domain_id)
            report.repairs[domain_id] = repair
            report.scope_nodes += self._graphs[domain_id].num_nodes
        for member in sorted(self._members):
            if failures.node_failed(member):
                self._members.discard(member)
        return report

    # ------------------------------------------------------------------
    # Agent failover
    # ------------------------------------------------------------------
    def _failover_dead_agents(
        self, failures: FailureSet, report: NLevelRecoveryReport
    ) -> None:
        """Replace failed gateway agents by their standbys."""
        for domain in self.network.domains:
            gateway = domain.gateway
            if gateway is None or not failures.node_failed(gateway):
                continue
            if not self._gateway_in_use(domain):
                continue
            replacement = next(
                (
                    s
                    for s in domain.standbys
                    if not failures.node_failed(s)
                ),
                None,
            )
            if replacement is None:
                report.dead_domains.append(domain.domain_id)
                self._abandon_domain_subtree(domain)
                continue
            self._promote_standby(domain, gateway, replacement, failures, report)
            report.failovers[domain.domain_id] = replacement

    def _gateway_in_use(self, domain: NestedDomain) -> bool:
        """True when the agent currently relays for anyone."""
        parent_id = domain.parent
        if parent_id is None:
            return False
        return any(
            d == parent_id and relay == domain.gateway
            for d, relay in self._relay_demand
        ) or domain.domain_id in self._protocols

    def _promote_standby(
        self,
        domain: NestedDomain,
        old_gateway: NodeId,
        replacement: NodeId,
        failures: FailureSet,
        report: NLevelRecoveryReport,
    ) -> None:
        """Re-root the domain on ``replacement`` and rewire the parent."""
        # The topology gains no links — standbys were multi-homed at
        # generation time — but the cached domain graphs of the domain and
        # its parent must be rebuilt to expose the standby's uplink.
        domain.gateway = replacement
        self._graphs.pop(domain.domain_id, None)
        if domain.parent is not None:
            self._graphs.pop(domain.parent, None)

        # Rebuild the domain's own tree rooted at the new agent.  When the
        # old agent relayed *upward* (source-path domains carry their own
        # gateway as a member), the replacement inherits that duty too.
        own_relay = self._relay_demand.pop((domain.domain_id, old_gateway), 0)
        if own_relay:
            self._relay_demand[(domain.domain_id, replacement)] += own_relay
        protocol = self._protocols.pop(domain.domain_id, None)
        if protocol is not None:
            old_members = [
                m
                for m in protocol.tree.members
                if m != old_gateway and not failures.node_failed(m)
            ]
            if own_relay and replacement not in old_members:
                old_members.append(replacement)
            fresh = self._protocol_for(domain.domain_id)
            for member in sorted(old_members):
                if member == fresh.tree.source:
                    if not fresh.tree.is_member(member):
                        fresh.tree.add_member(member)
                    continue
                try:
                    fresh.join(member, failures=failures)
                except ReproError:
                    # The dead agent was a cut vertex of this domain: the
                    # member has no path to the standby.  Domain
                    # confinement means nobody else can serve it either.
                    self._drop_casualty(member, report)

        # Rewire the parent's relay membership and the demand counters.
        parent_id = domain.parent
        if parent_id is None:
            return
        moved = self._relay_demand.pop((parent_id, old_gateway), 0)
        if moved:
            self._relay_demand[(parent_id, replacement)] += moved
        parent_protocol = self._protocols.get(parent_id)
        if parent_protocol is not None:
            # The parent's graph changed (standby uplink now visible):
            # rebuild the parent's tree over the refreshed graph.
            parent_members = [
                m
                for m in parent_protocol.tree.members
                if m != old_gateway and not failures.node_failed(m)
            ]
            if moved and replacement not in parent_members:
                parent_members.append(replacement)
            del self._protocols[parent_id]
            fresh_parent = self._protocol_for(parent_id)
            for member in sorted(parent_members):
                if member == fresh_parent.tree.source:
                    if not fresh_parent.tree.is_member(member):
                        fresh_parent.tree.add_member(member)
                    continue
                try:
                    fresh_parent.join(member, failures=failures)
                except ReproError:
                    self._drop_casualty(member, report)

    def _drop_casualty(self, member: NodeId, report: NLevelRecoveryReport) -> None:
        report.failover_casualties.append(member)
        self._members.discard(member)

    def _abandon_domain_subtree(self, domain: NestedDomain) -> None:
        """Drop all session state of a domain with no live agent."""
        self._protocols.pop(domain.domain_id, None)
        for member in sorted(self._members):
            if self.network.domain_of.get(member) == domain.domain_id:
                self._members.discard(member)
        parent_id = domain.parent
        if parent_id is not None:
            self._relay_demand.pop((parent_id, domain.gateway), None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _leaf_domain_of(self, member: NodeId) -> NestedDomain:
        domain_id = self.network.domain_of.get(member)
        if domain_id is None:
            raise ConfigurationError(f"node {member} is not in the network")
        domain = self.network.domains[domain_id]
        if not domain.is_leaf:
            raise ConfigurationError(
                f"node {member} is not in a leaf domain; members cluster at "
                "the lowest level (§3.3.3)"
            )
        return domain

    def _entry_point(self, domain_id: int) -> NodeId:
        """Where data enters a domain (the root of its SMRP tree)."""
        if domain_id == self.source_domain_id:
            return self.source
        if domain_id in self.source_path:
            # Data arrives from below: at the gateway of the next domain
            # toward the source.
            index = self.source_path.index(domain_id)
            child_toward_source = self.source_path[index + 1]
            gateway = self.network.domains[child_toward_source].gateway
            assert gateway is not None
            return gateway
        gateway = self.network.domains[domain_id].gateway
        assert gateway is not None
        return gateway

    def _relay_requirements(self, leaf_id: int) -> list[tuple[int, NodeId]]:
        """Relay memberships needed for data to reach ``leaf_id``.

        Upward: every source-chain domain below the LCA relays through its
        own gateway.  Downward: every domain from the LCA to the target
        leaf joins the gateway of the next domain down.
        """
        lca = self.network.lowest_common_ancestor(self.source_domain_id, leaf_id)
        requirements: list[tuple[int, NodeId]] = []
        # Upward half: source leaf → … → just below the LCA.
        for domain_id in reversed(self.source_path):
            if domain_id == lca:
                break
            gateway = self.network.domains[domain_id].gateway
            assert gateway is not None
            requirements.append((domain_id, gateway))
        # Downward half: LCA → … → the leaf's parent.
        member_path = self.network.domain_path(leaf_id)
        start = member_path.index(lca)
        for upper, lower in zip(member_path[start:], member_path[start + 1 :]):
            gateway = self.network.domains[lower].gateway
            assert gateway is not None
            requirements.append((upper, gateway))
        return requirements

    def _data_path(
        self, leaf_id: int, member: NodeId
    ) -> list[tuple[int, NodeId]]:
        """(domain, exit node) hops the data crosses from S to ``member``."""
        lca = self.network.lowest_common_ancestor(self.source_domain_id, leaf_id)
        hops: list[tuple[int, NodeId]] = []
        for domain_id in reversed(self.source_path):
            if domain_id == lca:
                break
            gateway = self.network.domains[domain_id].gateway
            assert gateway is not None
            hops.append((domain_id, gateway))
        member_path = self.network.domain_path(leaf_id)
        start = member_path.index(lca)
        for upper, lower in zip(member_path[start:], member_path[start + 1 :]):
            gateway = self.network.domains[lower].gateway
            assert gateway is not None
            hops.append((upper, gateway))
        hops.append((leaf_id, member))
        return hops

    def _protocol_for(self, domain_id: int) -> SMRPProtocol:
        if domain_id not in self._protocols:
            self._protocols[domain_id] = SMRPProtocol(
                self._domain_graph(domain_id),
                self._entry_point(domain_id),
                config=self.config,
            )
        return self._protocols[domain_id]

    def _domain_graph(self, domain_id: int) -> Topology:
        """The domain's recovery sub-topology: its nodes plus its
        children's gateways, with all links among them."""
        if domain_id not in self._graphs:
            domain = self.network.domains[domain_id]
            nodes = set(domain.nodes)
            for child_id in domain.children:
                gateway = self.network.domains[child_id].gateway
                assert gateway is not None
                nodes.add(gateway)
            graph = Topology(f"nlevel-domain-{domain_id}")
            for node in sorted(nodes):
                graph.add_node(node, pos=self.network.topology.position(node))
            for link in self.network.topology.links():
                if link.u in nodes and link.v in nodes:
                    graph.add_link(link.u, link.v, delay=link.delay, cost=link.cost)
            self._graphs[domain_id] = graph
        return self._graphs[domain_id]

    def _restrict_failures(self, domain_id: int, failures: FailureSet) -> FailureSet:
        graph = self._domain_graph(domain_id)
        links = frozenset(
            edge_key(u, v)
            for u, v in failures.failed_links
            if graph.has_node(u) and graph.has_node(v) and graph.has_link(u, v)
        )
        nodes = frozenset(n for n in failures.failed_nodes if graph.has_node(n))
        return FailureSet(failed_links=links, failed_nodes=nodes)

    def _garbage_collect(self) -> None:
        """Drop protocols whose trees no longer serve anyone."""
        for domain_id in list(self._protocols):
            if not self._protocols[domain_id].tree.members:
                del self._protocols[domain_id]
