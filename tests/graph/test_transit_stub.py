"""Tests for the transit-stub hierarchical topology generator."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.graph.transit_stub import TransitStubConfig, transit_stub_topology

CONFIG = TransitStubConfig(seed=5)

#: SHA-256 of the graph name, every node's position and every link's
#: delay and cost, recorded when the generator still returned its own
#: domain type.  Keyed by (transit_nodes, stubs_per_transit, stub_size,
#: seed): the configs the Figure-6 tests, bench and example use.
RECORDED_DIGESTS = {
    (3, 2, 6, 11): "06e0eb7b73ebf59ce98011cb06ce1226e8d6c50ee4644112b55b8850b9ebe276",
    (4, 3, 8, 1): "467431215fec65f579453be940feb7766a0a1c27b9c0aa981b5820ada2916bf1",
    (4, 3, 8, 3): "b4f1a0d79c60d7e692c86c3d160d73877f5eef4ebb5c0e0aa820dba935d155a3",
    (4, 3, 8, 4): "09afcdd7c0e15cabc070935effbb866792c5adddc77057f7185ed76592ad2cfa",
    (4, 3, 8, 5): "ffd43f542a05ff8758ffb18ed065f54f64f2247acd7c791b8e8ab420ed6f2df0",
    (4, 3, 8, 9): "d3da2d4448cd99ed407988180120d4589d9de67a9a79c8affb2150bd6ca52700",
}


def graph_digest(topology) -> str:
    digest = hashlib.sha256()
    digest.update(f"{topology}\n".encode())
    for node in topology.nodes():
        digest.update(f"n {node} {topology.position(node)!r}\n".encode())
    for link in topology.links():
        digest.update(
            f"l {link.u} {link.v} {link.delay!r} {link.cost!r}\n".encode()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def network():
    return transit_stub_topology(CONFIG)


class TestConfig:
    def test_total_nodes(self):
        cfg = TransitStubConfig(transit_nodes=4, stubs_per_transit=3, stub_size=8)
        assert cfg.total_nodes == 4 * (1 + 3 * 8)

    def test_rejects_single_transit(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(transit_nodes=1)

    def test_rejects_zero_stubs(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(stubs_per_transit=0)

    def test_rejects_tiny_stub(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(stub_size=1)


class TestStructure:
    def test_node_count(self, network):
        assert network.topology.num_nodes == CONFIG.total_nodes

    def test_connected(self, network):
        assert network.topology.is_connected()

    def test_domain_count(self, network):
        cfg = CONFIG
        assert len(network.domains) == 1 + cfg.transit_nodes * cfg.stubs_per_transit
        assert network.root.level == 0
        assert all(d.level == 1 for d in network.leaf_domains())
        assert network.depth == 2

    def test_domains_partition_nodes(self, network):
        seen: set[int] = set()
        for domain in network.domains:
            assert not (domain.nodes & seen), "domains must be disjoint"
            seen |= domain.nodes
        assert seen == set(network.topology.nodes())

    def test_domain_of_is_consistent(self, network):
        for domain in network.domains:
            for node in domain.nodes:
                assert network.domain_of[node] == domain.domain_id

    def test_every_stub_has_gateway_link(self, network):
        for stub in network.leaf_domains():
            assert stub.gateway in stub.nodes
            assert stub.attachments[0] in network.root.nodes
            assert network.topology.has_link(stub.gateway, stub.attachments[0])
            assert network.topology.delay(
                stub.gateway, stub.attachments[0]
            ) == CONFIG.gateway_delay
            assert len(stub.attachments) == CONFIG.gateway_redundancy
            assert stub.standbys == ()

    def test_stub_internal_links_stay_internal(self, network):
        """The only link leaving a stub domain is its gateway link."""
        for stub in network.leaf_domains():
            for link in network.topology.links():
                inside = link.u in stub.nodes, link.v in stub.nodes
                if inside == (True, False) or inside == (False, True):
                    stub_end = link.u if inside[0] else link.v
                    assert stub_end == stub.gateway

    def test_reproducible(self):
        a = transit_stub_topology(TransitStubConfig(seed=9))
        b = transit_stub_topology(TransitStubConfig(seed=9))
        assert [l.key for l in a.topology.links()] == [
            l.key for l in b.topology.links()
        ]

    @pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
    def test_graph_matches_recorded_digest(self, key):
        transit_nodes, stubs_per_transit, stub_size, seed = key
        network = transit_stub_topology(
            TransitStubConfig(
                transit_nodes=transit_nodes,
                stubs_per_transit=stubs_per_transit,
                stub_size=stub_size,
                seed=seed,
            )
        )
        assert graph_digest(network.topology) == RECORDED_DIGESTS[key]
