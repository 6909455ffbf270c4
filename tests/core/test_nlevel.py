"""Tests for N-level hierarchical SMRP."""

import pytest

from repro.errors import AlreadyMemberError, ConfigurationError, NotMemberError
from repro.graph.nlevel import LevelSpec, n_level_topology
from repro.core.nlevel import NLevelMulticast
from repro.core.protocol import SMRPConfig
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet


@pytest.fixture(scope="module")
def network():
    return n_level_topology(
        [
            LevelSpec(size=4, fanout=2, alpha=0.9, scale=120.0),
            LevelSpec(size=5, fanout=2, alpha=0.8, scale=60.0),
            LevelSpec(size=6, fanout=0, alpha=0.7, scale=30.0),
        ],
        seed=5,
    )


def leaf_member(network, leaf_index: int, skip_gateway: bool = True):
    leaf = network.leaf_domains()[leaf_index]
    for node in sorted(leaf.nodes):
        if skip_gateway and node == leaf.gateway:
            continue
        return node
    raise AssertionError("leaf domain has no usable node")


@pytest.fixture
def session(network):
    return NLevelMulticast(
        network, leaf_member(network, 0), config=SMRPConfig(d_thresh=0.5)
    )


class TestSetup:
    def test_source_must_be_leaf(self, network):
        root_node = min(network.root.nodes)
        with pytest.raises(ConfigurationError):
            NLevelMulticast(network, root_node)

    def test_unknown_source_rejected(self, network):
        with pytest.raises(ConfigurationError):
            NLevelMulticast(network, 10_000)


class TestMembership:
    def test_same_leaf_join(self, network, session):
        member = max(network.leaf_domains()[0].nodes)
        session.join(member)
        leaf_id = network.leaf_domains()[0].domain_id
        assert session.active_domains() == [leaf_id]
        assert session.end_to_end_delay(member) > 0

    def test_sibling_leaf_join_meets_at_mid_domain(self, network, session):
        """Leaves 0 and 1 share a mid-level parent: the data path must not
        touch the root domain."""
        member = leaf_member(network, 1)
        session.join(member)
        root_id = network.root.domain_id
        assert root_id not in session.active_domains()
        assert session.end_to_end_delay(member) > 0

    def test_cross_branch_join_crosses_root(self, network, session):
        member = leaf_member(network, 3)
        session.join(member)
        assert network.root.domain_id in session.active_domains()
        # The full chain is active: source leaf, mid, root, mid, leaf.
        assert len(session.active_domains()) == 5
        assert session.end_to_end_delay(member) > 0

    def test_double_join_rejected(self, network, session):
        member = leaf_member(network, 2)
        session.join(member)
        with pytest.raises(AlreadyMemberError):
            session.join(member)

    def test_leave_unwinds_relay_chain(self, network, session):
        member = leaf_member(network, 3)
        session.join(member)
        assert network.root.domain_id in session.active_domains()
        session.leave(member)
        assert network.root.domain_id not in session.active_domains()
        assert session.members == frozenset()

    def test_shared_relays_are_refcounted(self, network, session):
        a = leaf_member(network, 2)
        b = leaf_member(network, 3)
        session.join(a)
        session.join(b)
        session.leave(a)
        # b still needs the cross-branch chain through the root.
        assert network.root.domain_id in session.active_domains()
        assert session.end_to_end_delay(b) > 0
        session.leave(b)
        assert session.active_domains() == []

    def test_leave_unknown_rejected(self, session):
        with pytest.raises(NotMemberError):
            session.leave(99999)

    def test_trees_valid_in_all_domains(self, network, session):
        for index in range(4):
            member = leaf_member(network, index)
            if member != session.source:
                session.join(member)
        for domain_id in session.active_domains():
            check_tree_invariants(session.protocol(domain_id).tree)

    def test_delay_composition_cross_branch_exceeds_local(self, network, session):
        local = max(network.leaf_domains()[0].nodes)
        remote = leaf_member(network, 3)
        session.join(local)
        session.join(remote)
        assert session.end_to_end_delay(remote) > session.end_to_end_delay(local)


class TestRecovery:
    def test_leaf_failure_confined(self, network, session):
        member = leaf_member(network, 3)
        session.join(member)
        leaf_id = network.domain_of[member]
        tree = session.protocol(leaf_id).tree
        path = tree.path_from_source(member)
        failure = FailureSet.links((path[0], path[1]))
        report = session.recover(failure)
        if not report.domains_reconfigured:
            pytest.skip("failure did not cut the member in this layout")
        assert report.domains_reconfigured == [leaf_id]
        check_tree_invariants(session.protocol(leaf_id).tree)
        repair = report.repairs[leaf_id]
        if member in repair.unrecoverable:
            # Domain confinement is absolute: when the failed link is a
            # bridge *inside* the leaf domain, no intra-domain detour
            # exists and the member stays down — recovery never leaks
            # into other domains looking for one.
            assert not session.protocol(leaf_id).tree.is_member(member)
        else:
            assert session.end_to_end_delay(member) > 0

    def test_mid_level_failure_spares_leaves(self, network, session):
        member = leaf_member(network, 1)  # same branch, different leaf
        session.join(member)
        mid_id = network.lowest_common_ancestor(
            session.source_domain_id, network.domain_of[member]
        )
        mid_tree = session.protocol(mid_id).tree
        links = sorted(mid_tree.tree_links())
        report = session.recover(FailureSet.links(links[0]))
        assert set(report.domains_reconfigured) <= {mid_id}

    def test_agent_failover_stays_in_its_session(self, network):
        """Two sessions share one network: promoting a standby in the
        first must not re-route the second."""
        first, second = (
            NLevelMulticast(
                network, leaf_member(network, 0), config=SMRPConfig(d_thresh=0.5)
            )
            for _ in range(2)
        )
        member = leaf_member(network, 1)
        first.join(member)
        second.join(member)
        before = second.end_to_end_delay(member)
        leaf = network.domains[network.domain_of[member]]
        gateway = leaf.gateway
        report = first.recover(FailureSet.nodes(gateway))
        assert report.failovers.get(leaf.domain_id) == leaf.standbys[0]
        assert second.end_to_end_delay(member) == before
        assert first.end_to_end_delay(member) > 0
        assert leaf.gateway == gateway

    def test_unrelated_failure_touches_nothing(self, network, session):
        member = leaf_member(network, 1)
        session.join(member)
        idle_leaf = network.leaf_domains()[3]
        internal = [
            l.key
            for l in network.topology.links()
            if l.u in idle_leaf.nodes and l.v in idle_leaf.nodes
        ]
        report = session.recover(FailureSet.links(internal[0]))
        assert report.domains_reconfigured == []
        assert report.scope_nodes == 0
