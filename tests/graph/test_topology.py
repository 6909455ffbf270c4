"""Unit tests for the Topology container."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.graph.topology import Link, Topology, edge_key


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)

    def test_equal_endpoints_allowed_by_key_function(self):
        # edge_key itself does not validate; Topology.add_link does.
        assert edge_key(3, 3) == (3, 3)


class TestLink:
    def test_canonical_key(self):
        link = Link(4, 2, delay=1.0, cost=1.0)
        assert link.key == (2, 4)

    def test_other_endpoint(self):
        link = Link(1, 2, delay=1.0, cost=1.0)
        assert link.other(1) == 2
        assert link.other(2) == 1

    def test_other_rejects_non_endpoint(self):
        link = Link(1, 2, delay=1.0, cost=1.0)
        with pytest.raises(TopologyError):
            link.other(3)

    def test_rejects_non_positive_delay(self):
        with pytest.raises(TopologyError):
            Link(0, 1, delay=0.0, cost=1.0)

    def test_rejects_non_positive_cost(self):
        with pytest.raises(TopologyError):
            Link(0, 1, delay=1.0, cost=-2.0)


class TestConstruction:
    def test_add_and_query_nodes(self):
        topo = Topology()
        topo.add_node(3)
        topo.add_node(1)
        assert topo.nodes() == [1, 3]
        assert topo.has_node(3)
        assert not topo.has_node(2)

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(TopologyError):
            topo.add_node(0)

    def test_add_link_defaults_cost_to_delay(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        link = topo.add_link(0, 1, delay=2.5)
        assert link.cost == 2.5
        assert topo.cost(0, 1) == 2.5

    def test_add_link_with_distinct_cost(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        topo.add_link(0, 1, delay=2.0, cost=7.0)
        assert topo.delay(0, 1) == 2.0
        assert topo.cost(1, 0) == 7.0

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(TopologyError):
            topo.add_link(0, 0, delay=1.0)

    def test_link_to_missing_node_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(TopologyError):
            topo.add_link(0, 1, delay=1.0)

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        topo.add_link(0, 1, delay=1.0)
        with pytest.raises(TopologyError):
            topo.add_link(1, 0, delay=2.0)

    def test_remove_link(self, triangle):
        triangle.remove_link(0, 1)
        assert not triangle.has_link(0, 1)
        assert triangle.num_links == 2

    def test_remove_missing_link_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.remove_link(0, 0)

    def test_remove_node_drops_incident_links(self, triangle):
        triangle.remove_node(1)
        assert triangle.num_nodes == 2
        assert triangle.num_links == 1
        assert triangle.has_link(0, 2)


class TestQueries:
    def test_neighbors_sorted(self, fig1):
        assert list(fig1.neighbors(4)) == [1, 2, 3]  # D: A, B, C

    def test_degree(self, fig1):
        assert fig1.degree(4) == 3

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == 2.0

    def test_average_degree_empty(self):
        assert Topology().average_degree() == 0.0

    def test_path_delay(self, fig1):
        # S -> A -> D
        assert fig1.path_delay([0, 1, 4]) == 2.0

    def test_path_delay_missing_link(self, fig1):
        with pytest.raises(TopologyError):
            fig1.path_delay([0, 4])  # S-D link does not exist

    def test_links_sorted_canonical(self, triangle):
        keys = [link.key for link in triangle.links()]
        assert keys == sorted(keys)
        assert all(u < v for u, v in keys)

    def test_connectivity(self, fig1):
        assert fig1.is_connected()
        lonely = Topology()
        lonely.add_node(0)
        lonely.add_node(1)
        assert not lonely.is_connected()
        assert len(lonely.connected_components()) == 2

    def test_adjacency_reflects_mutations(self):
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        topo.add_link(0, 1, delay=1.0)
        assert topo.adjacency() == {0: {1: 1.0}, 1: {0: 1.0}}
        topo.add_node(2)
        topo.add_link(2, 1, delay=3.0)
        assert topo.adjacency() == {0: {1: 1.0}, 1: {0: 1.0, 2: 3.0}, 2: {1: 3.0}}
        topo.remove_node(0)
        assert topo.adjacency() == {1: {2: 3.0}, 2: {1: 3.0}}


class TestCopyAndValidate:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_link(0, 1)
        assert triangle.has_link(0, 1)
        assert not clone.has_link(0, 1)

    def test_validate_accepts_fixture(self, fig4):
        fig4.validate()

    def test_validate_rejects_partial_positions(self):
        topo = Topology()
        topo.add_node(0, pos=(0.0, 0.0))
        topo.add_node(1)  # no position
        with pytest.raises(TopologyError):
            topo.validate()

    def test_position_roundtrip(self):
        topo = Topology()
        topo.add_node(0, pos=(1.5, 2.5))
        assert topo.position(0) == (1.5, 2.5)

    def test_repr_mentions_size(self, triangle):
        text = repr(triangle)
        assert "nodes=3" in text and "links=3" in text


@st.composite
def graphs_and_mutations(draw):
    """A random graph (nodes and links in a random insertion order, links
    given either way round) and a list of ``("link" | "node", index)``
    removals."""
    nodes = draw(st.permutations(range(draw(st.integers(1, 10)))))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    weights = st.floats(0.5, 9.5)
    links = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        if draw(st.booleans()):
            u, v = v, u
        links.append((u, v, draw(weights), draw(weights)))
    removals = draw(
        st.lists(st.tuples(st.sampled_from(["link", "node"]), st.integers(0, 99)), max_size=8)
    )
    return nodes, links, removals


def ordered_adjacency(topo):
    """``adjacency()`` as lists, so comparisons see insertion order."""
    return [(u, list(nbrs.items())) for u, nbrs in topo.adjacency().items()]


class TestAgainstNetworkx:
    """The store agrees with an ``nx.Graph`` fed the same mutations."""

    @staticmethod
    def assert_same(topo, graph):
        assert topo.connected_components() == [set(c) for c in nx.connected_components(graph)]
        assert topo.is_connected() == (len(graph) == 0 or nx.is_connected(graph))
        assert topo.nodes() == sorted(graph.nodes)
        assert [(l.u, l.v, l.delay, l.cost) for l in topo.links()] == sorted(
            (min(u, v), max(u, v), d["delay"], d["cost"])
            for u, v, d in graph.edges(data=True)
        )
        assert topo.num_links == graph.number_of_edges()
        for node in graph.nodes:
            assert list(topo.neighbors(node)) == sorted(graph.neighbors(node))
            assert topo.degree(node) == graph.degree(node)
        assert ordered_adjacency(topo) == [
            (u, [(v, d["delay"]) for v, d in graph.adj[u].items()]) for u in graph.nodes
        ]

    @settings(max_examples=60, deadline=None)
    @given(graphs_and_mutations())
    def test_mutations_match_networkx(self, case):
        nodes, links, removals = case
        topo, graph = Topology(), nx.Graph()
        for node in nodes:
            topo.add_node(node)
            graph.add_node(node)
        for u, v, delay, cost in links:
            topo.add_link(u, v, delay=delay, cost=cost)
            # Topology adds every link in canonical orientation.
            graph.add_edge(*edge_key(u, v), delay=delay, cost=cost)
        self.assert_same(topo, graph)
        clone = topo.copy()
        original = (ordered_adjacency(topo), topo.links())
        for kind, index in removals:
            if kind == "link" and graph.number_of_edges():
                u, v = topo.links()[index % topo.num_links].key
                topo.remove_link(u, v)
                graph.remove_edge(u, v)
            elif kind == "node" and len(graph):
                node = topo.nodes()[index % topo.num_nodes]
                topo.remove_node(node)
                graph.remove_node(node)
            self.assert_same(topo, graph)
        # The copy kept the original state, insertion order included.
        assert (ordered_adjacency(clone), clone.links()) == original
