"""Property tests for the routing substrate."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.routing.failure_view import FailureSet
from repro.routing.spf import dijkstra, dijkstra_with_barriers
from tests.graph.networkx_oracle import to_networkx


def make_topology(seed: int, n: int = 25):
    return waxman_topology(
        WaxmanConfig(n=n, alpha=0.5, beta=0.4, seed=seed)
    ).topology


class TestDijkstraProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 24))
    def test_matches_networkx(self, seed, source):
        topology = make_topology(seed)
        ours = dijkstra(topology, source)
        reference = nx.single_source_dijkstra_path_length(
            to_networkx(topology), source, weight="delay"
        )
        assert set(ours.dist) == set(reference)
        for node, dist in reference.items():
            assert ours.dist[node] == pytest.approx(dist)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 24), st.integers(0, 24))
    def test_triangle_inequality(self, seed, a, b):
        topology = make_topology(seed)
        from_a = dijkstra(topology, a)
        from_b = dijkstra(topology, b)
        for node in topology.nodes():
            if node in from_a.dist and node in from_b.dist and b in from_a.dist:
                assert (
                    from_a.dist[node]
                    <= from_a.dist[b] + from_b.dist[node] + 1e-9
                )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 24), st.integers(0, 50))
    def test_failure_masking_monotone(self, seed, source, failure_index):
        """Removing a link never shortens any distance."""
        topology = make_topology(seed)
        links = topology.links()
        link = links[failure_index % len(links)]
        before = dijkstra(topology, source)
        after = dijkstra(
            topology, source, failures=FailureSet.links((link.u, link.v))
        )
        for node, dist in after.dist.items():
            assert dist >= before.dist[node] - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 200), st.integers(0, 24))
    def test_paths_never_cross_barriers(self, seed, source):
        topology = make_topology(seed)
        barriers = {n for n in topology.nodes() if n % 3 == 0 and n != source}
        result = dijkstra_with_barriers(topology, source, barriers=barriers)
        for node in result.dist:
            path = result.path_to(node)
            assert all(p not in barriers for p in path[:-1] if p != source)
