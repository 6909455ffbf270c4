"""Tests for the 2-level hierarchical recovery architecture (§3.3.3).

The paper's Figure 6 session: :class:`NLevelMulticast` at depth 2 over a
transit-stub network, whose backbone is the root domain and whose stubs
are the leaf domains.
"""

import pytest

from repro.errors import AlreadyMemberError, ConfigurationError, NotMemberError
from repro.graph.transit_stub import TransitStubConfig, transit_stub_topology
from repro.core.nlevel import NLevelMulticast
from repro.core.protocol import SMRPConfig
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet


@pytest.fixture(scope="module")
def network():
    return transit_stub_topology(
        TransitStubConfig(
            transit_nodes=3, stubs_per_transit=2, stub_size=6, seed=11
        )
    )


def pick_source(network):
    """A non-gateway node of the first stub domain."""
    stub = network.leaf_domains()[0]
    return min(n for n in stub.nodes if n != stub.gateway)


def pick_member(network, domain_index):
    stub = network.leaf_domains()[domain_index]
    return max(n for n in stub.nodes if n != stub.gateway)


class TestSetup:
    def test_source_must_be_stub_node(self, network):
        transit_node = min(network.root.nodes)
        with pytest.raises(ConfigurationError):
            NLevelMulticast(network, transit_node)

    def test_unknown_source_rejected(self, network):
        with pytest.raises(ConfigurationError):
            NLevelMulticast(network, 10_000)


class TestMembership:
    def test_same_domain_join_stays_local(self, network):
        session = NLevelMulticast(network, pick_source(network))
        member = pick_member(network, 0)
        session.join(member)
        assert session.active_domains() == [network.leaf_domains()[0].domain_id]

    def test_remote_join_activates_chain(self, network):
        session = NLevelMulticast(network, pick_source(network))
        member = pick_member(network, 3)
        session.join(member)
        active = session.active_domains()
        assert 0 in active  # transit domain
        assert network.leaf_domains()[0].domain_id in active  # source domain
        assert network.domain_of[member] in active
        # The remote domain's agent is a member of the transit tree.
        transit_tree = session.protocol(0).tree
        assert transit_tree.is_member(network.domains[network.domain_of[member]].gateway)

    def test_double_join_rejected(self, network):
        session = NLevelMulticast(network, pick_source(network))
        member = pick_member(network, 1)
        session.join(member)
        with pytest.raises(AlreadyMemberError):
            session.join(member)

    def test_leave_deactivates_empty_chain(self, network):
        session = NLevelMulticast(network, pick_source(network))
        member = pick_member(network, 2)
        session.join(member)
        session.leave(member)
        # Everything wound down: only possibly the source domain remains.
        assert 0 not in session.active_domains()

    def test_leave_unknown_rejected(self, network):
        session = NLevelMulticast(network, pick_source(network))
        with pytest.raises(NotMemberError):
            session.leave(pick_member(network, 2))

    def test_backbone_member_rejected(self, network):
        session = NLevelMulticast(network, pick_source(network))
        with pytest.raises(ConfigurationError):
            session.join(min(network.root.nodes))


class TestMetrics:
    def test_end_to_end_delay_positive_and_composite(self, network):
        session = NLevelMulticast(network, pick_source(network))
        local = pick_member(network, 0)
        remote = pick_member(network, 4)
        session.join(local)
        session.join(remote)
        assert session.end_to_end_delay(local) > 0
        # Remote members cross the backbone: strictly larger delay than
        # the intra-domain member (gateway links are long).
        assert session.end_to_end_delay(remote) > session.end_to_end_delay(local)

    def test_total_cost_sums_domains(self, network):
        session = NLevelMulticast(network, pick_source(network))
        session.join(pick_member(network, 0))
        base_cost = session.total_cost()
        session.join(pick_member(network, 3))
        assert session.total_cost() > base_cost


class TestDomainConfinedRecovery:
    def test_stub_failure_confined(self, network):
        """A failure inside a member's stub reconfigures only that stub."""
        session = NLevelMulticast(
            network, pick_source(network), config=SMRPConfig(d_thresh=0.5)
        )
        remote = pick_member(network, 3)
        session.join(remote)
        domain_id = network.domain_of[remote]
        stub_tree = session.protocol(domain_id).tree
        path = stub_tree.path_from_source(remote)
        failure = FailureSet.links((path[0], path[1]))
        report = session.recover(failure)
        if not report.domains_reconfigured:
            pytest.skip("failure did not disconnect the member in this layout")
        assert report.domains_reconfigured == [domain_id]
        check_tree_invariants(session.protocol(domain_id).tree)

    def test_transit_failure_spares_stubs(self, network):
        """A backbone failure reconfigures the transit domain only."""
        session = NLevelMulticast(network, pick_source(network))
        members = [pick_member(network, i) for i in (1, 3, 5)]
        for m in members:
            session.join(m)
        transit_tree = session.protocol(0).tree
        links = sorted(transit_tree.tree_links())
        failure = FailureSet.links(links[0])
        report = session.recover(failure)
        assert set(report.domains_reconfigured) <= {0}
        # Stub trees untouched; every member still has a delay.
        for m in members:
            assert session.end_to_end_delay(m) > 0

    def test_agent_node_failure_marks_domain_dead(self, network):
        """A dead agent cannot be healed by confined recovery; the domain
        is reported dead instead of crashing the session."""
        session = NLevelMulticast(network, pick_source(network))
        member = pick_member(network, 3)
        session.join(member)
        domain = network.domains[network.domain_of[member]]
        report = session.recover(FailureSet.nodes(domain.gateway))
        assert domain.domain_id in report.dead_domains
        assert member not in session.members
        # Other domains were never touched.
        assert domain.domain_id not in session.active_domains()

    def test_source_failure_kills_source_domain(self, network):
        """The source is the source domain's tree root: that domain is
        dead, and every member is served through it."""
        source = pick_source(network)
        session = NLevelMulticast(network, source)
        for index in (0, 3):
            session.join(pick_member(network, index))
        report = session.recover(FailureSet.nodes(source))
        assert report.dead_domains == [network.domain_of[source]]
        assert report.domains_reconfigured == []
        assert session.members == frozenset()

    def test_source_agent_failure_kills_backbone_domain(self, network):
        """The source domain's agent roots the transit tree: the transit
        domain is dead, so remote members leave and local ones stay."""
        source = pick_source(network)
        session = NLevelMulticast(network, source)
        agent = network.leaf_domains()[0].gateway
        # A neighbour of the source keeps its path when the agent dies.
        local = next(
            n
            for n in sorted(network.leaf_domains()[0].nodes)
            if n != agent and network.topology.has_link(source, n)
        )
        remote = pick_member(network, 3)
        session.join(local)
        session.join(remote)
        report = session.recover(FailureSet.nodes(agent))
        assert report.dead_domains == [network.root.domain_id]
        assert network.root.domain_id not in session.active_domains()
        assert remote not in session.members
        assert local in session.members
        assert session.end_to_end_delay(local) > 0

    def test_unrelated_failure_touches_nothing(self, network):
        session = NLevelMulticast(network, pick_source(network))
        session.join(pick_member(network, 0))
        # Fail a link in an inactive stub domain.
        idle = network.leaf_domains()[4]
        internal = [
            l.key
            for l in network.topology.links()
            if l.u in idle.nodes and l.v in idle.nodes
        ]
        report = session.recover(FailureSet.links(internal[0]))
        assert report.domains_reconfigured == []
        assert report.scope_nodes == 0
