"""Tests for agent (gateway) failover in the N-level hierarchy."""

import pytest

from repro.graph.nlevel import LevelSpec, n_level_topology
from repro.core.nlevel import NLevelMulticast
from repro.core.protocol import SMRPConfig
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet


@pytest.fixture
def world():
    # Dense leaf domains (alpha=beta=1) so that losing the agent does not
    # also disconnect the domain internally.
    network = n_level_topology(
        [
            LevelSpec(size=4, fanout=2, alpha=0.9, scale=120.0,
                      standby_gateways=1),
            LevelSpec(size=8, fanout=0, alpha=1.0, beta=1.0, scale=40.0,
                      standby_gateways=1),
        ],
        seed=9,
    )
    leaves = network.leaf_domains()
    source = min(
        n for n in leaves[0].nodes
        if n not in (leaves[0].gateway, *leaves[0].standbys)
    )
    session = NLevelMulticast(network, source, config=SMRPConfig(d_thresh=0.8))
    return network, session


def remote_member(network, leaf_index):
    leaf = network.leaf_domains()[leaf_index]
    return max(
        n for n in leaf.nodes if n not in (leaf.gateway, *leaf.standbys)
    )


class TestGeneratorStandbys:
    def test_standbys_exist_and_are_uplinked(self, world):
        network, _ = world
        for domain in network.domains[1:]:
            assert len(domain.standbys) == 1
            standby = domain.standbys[0]
            assert standby in domain.nodes
            assert standby != domain.gateway
            assert network.topology.has_link(standby, domain.attachments[0])


class TestFailover:
    def test_remote_leaf_agent_failure_promotes_standby(self, world):
        network, session = world
        member = remote_member(network, 1)
        session.join(member)
        leaf = network.domains[network.domain_of[member]]
        old_gateway = leaf.gateway
        standby = leaf.standbys[0]
        assert member not in (old_gateway, standby)

        report = session.recover(FailureSet.nodes(old_gateway))
        assert report.failovers.get(leaf.domain_id) == standby
        assert leaf.domain_id not in report.dead_domains
        # The promotion lives in the session: the shared network keeps
        # its generated gateway.
        assert leaf.gateway == old_gateway
        # Service continues through the standby agent.
        assert session.end_to_end_delay(member) > 0
        for domain_id in session.active_domains():
            check_tree_invariants(session.protocol(domain_id).tree)

    def test_source_domain_agent_failure(self, world):
        """The source leaf's agent relays upward; its standby inherits."""
        network, session = world
        member = remote_member(network, 1)
        session.join(member)
        source_leaf = network.domains[session.source_domain_id]
        old_gateway = source_leaf.gateway
        if session.source == old_gateway:
            pytest.skip("source coincides with agent in this layout")
        report = session.recover(FailureSet.nodes(old_gateway))
        assert source_leaf.domain_id in report.failovers
        assert session.end_to_end_delay(member) > 0

    def test_no_standby_means_dead_domain(self):
        network = n_level_topology(
            [
                LevelSpec(size=4, fanout=2, alpha=0.9, standby_gateways=0),
                LevelSpec(size=5, fanout=0, alpha=0.8, standby_gateways=0),
            ],
            seed=4,
        )
        leaves = network.leaf_domains()
        source = min(n for n in leaves[0].nodes if n != leaves[0].gateway)
        session = NLevelMulticast(network, source)
        member = max(n for n in leaves[1].nodes if n != leaves[1].gateway)
        session.join(member)
        dead_gateway = leaves[1].gateway
        report = session.recover(FailureSet.nodes(dead_gateway))
        assert leaves[1].domain_id in report.dead_domains
        assert member not in session.members

    def test_unused_agent_failure_is_ignored(self, world):
        network, session = world
        # No members outside the source leaf: the other leaf's agent is idle.
        idle_leaf = network.leaf_domains()[1]
        report = session.recover(FailureSet.nodes(idle_leaf.gateway))
        assert not report.failovers
        assert not report.dead_domains
