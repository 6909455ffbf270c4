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
the first member needs them and dissolve with the last.  The paper's
2-level transit-stub session (Figure 6) is this engine at depth 2, over
:func:`~repro.graph.transit_stub.transit_stub_topology`.
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
    #: Domains whose tree root (the source, or the agent data enters
    #: through) failed with no standby to take over: a confined recovery
    #: cannot re-root them, so the members behind them leave the session.
    dead_domains: list[int] = field(default_factory=list)
    #: Members that could not be re-attached during agent failover (the
    #: dead agent was a cut vertex of their domain).
    failover_casualties: list[NodeId] = field(default_factory=list)

    @property
    def total_recovery_distance(self) -> float:
        return sum(r.total_recovery_distance for r in self.repairs.values())

    @property
    def unrecoverable(self) -> list[NodeId]:
        """Every domain repair's unrecoverable nodes, sorted."""
        return sorted(
            node for report in self.repairs.values() for node in report.unrecoverable
        )


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
        #: Standbys this session promoted, by domain.  The network is
        #: shared by every session built on it, so it is never rewritten.
        self._promoted: dict[int, NodeId] = {}

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
        return sum(
            self._protocols[domain_id].tree.delay_from_source(exit_node)
            for domain_id, exit_node in self._data_path(leaf.domain_id, member)
        )

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

        Handles three failure classes, in this order:

        - **agent failures**: when a domain's gateway node itself dies,
          a standby agent (generated multi-homed into the parent domain)
          takes over — the domain's tree re-roots at the standby, the
          parent's relay membership switches to it, and everything else
          stays untouched;
        - **dead roots**: any active domain whose tree root still failed
          after that (the source itself, or an agent with no live
          standby) is reported dead, its protocol and relay demand are
          dropped, and so are the members served through it — a confined
          recovery cannot re-root a domain;
        - component failures inside a domain → local-detour repair of that
          domain's tree (the §3.3.3 confinement).

        ``route_cache`` / ``route_obs`` memoise post-failure SPF state
        across repairs as in :func:`~repro.core.recovery.repair_tree`
        (domain graphs carry their own cache tokens, so entries never
        cross domains).  An ``obs`` with a restoration tracer attached
        yields one episode per member re-attached (``origin="repair"``),
        domain by domain.
        """
        report = NLevelRecoveryReport()
        self._failover_dead_agents(failures, report)
        self._drop_dead_domains(failures, report)
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
        for domain in self.network.domains[1:]:
            gateway = self._gateway(domain.domain_id)
            if not failures.node_failed(gateway):
                continue
            if not self._gateway_in_use(domain, gateway):
                continue
            replacement = next(
                (s for s in domain.standbys if not failures.node_failed(s)),
                None,
            )
            if replacement is None:
                continue  # the domain it feeds is dead: _drop_dead_domains
            self._promote_standby(domain, gateway, replacement, failures, report)
            report.failovers[domain.domain_id] = replacement

    def _gateway_in_use(self, domain: NestedDomain, gateway: NodeId) -> bool:
        """True when the agent currently relays for anyone."""
        return (
            domain.domain_id in self._protocols
            or (domain.parent, gateway) in self._relay_demand
        )

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
        # generation time — but the parent's cached domain graph must be
        # rebuilt to expose the standby's uplink.
        self._promoted[domain.domain_id] = replacement
        self._graphs.pop(domain.parent, None)
        # The domain's tree re-roots at the new agent; when the old agent
        # relayed *upward* (source-path domains carry their own gateway
        # as a member), the replacement inherits that duty.  The parent's
        # tree is rebuilt over its refreshed graph, the replacement
        # taking over the old agent's relay membership there.
        self._rebuild(domain.domain_id, old_gateway, replacement, failures, report)
        self._rebuild(domain.parent, old_gateway, replacement, failures, report)

    def _rebuild(
        self,
        domain_id: int,
        old_gateway: NodeId,
        replacement: NodeId,
        failures: FailureSet,
        report: NLevelRecoveryReport,
    ) -> None:
        """Move ``old_gateway``'s relay demand in ``domain_id`` to
        ``replacement`` and rebuild the domain's tree, if active, from a
        fresh protocol with its live members re-joined."""
        moved = self._relay_demand.pop((domain_id, old_gateway), 0)
        if moved:
            self._relay_demand[(domain_id, replacement)] += moved
        protocol = self._protocols.pop(domain_id, None)
        if protocol is None:
            return
        members = {
            m
            for m in protocol.tree.members
            if m != old_gateway and not failures.node_failed(m)
        }
        if moved:
            members.add(replacement)
        fresh = self._protocol_for(domain_id)
        for member in sorted(members):
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
                report.failover_casualties.append(member)
                self._members.discard(member)

    def _drop_dead_domains(
        self, failures: FailureSet, report: NLevelRecoveryReport
    ) -> None:
        """Drop every active domain whose tree root failed.

        Runs after standby failover, so such a root has no replacement:
        nothing inside the domain can re-root its tree, and confinement
        forbids a detour through another domain.  The members whose data
        path crosses a dead domain leave the session, taking their relay
        demand with them; the surviving domains' trees are left for the
        repair pass.
        """
        dead = {
            domain_id
            for domain_id, protocol in self._protocols.items()
            if failures.node_failed(protocol.tree.source)
        }
        if not dead:
            return
        report.dead_domains.extend(sorted(dead))
        for domain_id in dead:
            del self._protocols[domain_id]
        for member in sorted(self._members):
            leaf_id = self.network.domain_of[member]
            if not any(
                domain_id in dead
                for domain_id, _ in self._data_path(leaf_id, member)
            ):
                continue
            self._members.discard(member)
            self._relay_demand.subtract(self._relay_requirements(leaf_id))
        self._relay_demand = +self._relay_demand

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

    def _gateway(self, domain_id: int) -> NodeId:
        """The domain's current agent: a promoted standby, else its gateway."""
        gateway = self._promoted.get(domain_id)
        if gateway is None:
            gateway = self.network.domains[domain_id].gateway
        assert gateway is not None
        return gateway

    def _entry_point(self, domain_id: int) -> NodeId:
        """Where data enters a domain (the root of its SMRP tree)."""
        if domain_id == self.source_domain_id:
            return self.source
        if domain_id in self.source_path:
            # Data arrives from below: at the gateway of the next domain
            # toward the source.
            index = self.source_path.index(domain_id)
            return self._gateway(self.source_path[index + 1])
        return self._gateway(domain_id)

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
            requirements.append((domain_id, self._gateway(domain_id)))
        # Downward half: LCA → … → the leaf's parent.
        member_path = self.network.domain_path(leaf_id)
        start = member_path.index(lca)
        for upper, lower in zip(member_path[start:], member_path[start + 1 :]):
            requirements.append((upper, self._gateway(lower)))
        return requirements

    def _data_path(
        self, leaf_id: int, member: NodeId
    ) -> list[tuple[int, NodeId]]:
        """(domain, exit node) hops the data crosses from S to ``member``:
        the relays of :meth:`_relay_requirements`, then the member itself."""
        return self._relay_requirements(leaf_id) + [(leaf_id, member)]

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
            nodes.update(self._gateway(child_id) for child_id in domain.children)
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
