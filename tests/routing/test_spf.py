"""Tests for Dijkstra SPF, tie-breaking, failure masking and barriers."""

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError, TopologyError
from repro.graph.topology import Topology
from repro.routing.failure_view import FailureSet
from repro.routing.spf import (
    dijkstra,
    dijkstra_with_barriers,
    shortest_path,
    spf_distance,
)
from tests.graph.networkx_oracle import to_networkx


class TestBasics:
    def test_trivial_source(self, triangle):
        paths = dijkstra(triangle, 0)
        assert paths.distance(0) == 0.0
        assert paths.path_to(0) == [0]

    def test_shortest_path_simple(self, triangle):
        # 0-1 (1.0) + 1-2 (2.0) = 3.0 > direct 0-2 (2.5)
        assert shortest_path(triangle, 0, 2) == [0, 2]
        assert spf_distance(triangle, 0, 2) == 2.5

    def test_path_through_intermediate(self, fig1):
        assert shortest_path(fig1, 0, 4) == [0, 1, 4]  # S->A->D

    def test_next_hop(self, fig1):
        paths = dijkstra(fig1, 0)
        assert paths.next_hop(4) == 1

    def test_next_hop_of_source_rejected(self, fig1):
        with pytest.raises(RoutingError):
            dijkstra(fig1, 0).next_hop(0)

    def test_unknown_source_rejected(self, triangle):
        with pytest.raises(TopologyError):
            dijkstra(triangle, 99)

    def test_unknown_target_rejected(self, triangle):
        with pytest.raises(TopologyError):
            shortest_path(triangle, 0, 99)

    def test_unknown_weight_rejected(self, triangle):
        with pytest.raises(RoutingError):
            dijkstra(triangle, 0, weight="hops")

    def test_cost_weight(self):
        topo = Topology()
        for n in range(3):
            topo.add_node(n)
        topo.add_link(0, 1, delay=1.0, cost=10.0)
        topo.add_link(1, 2, delay=1.0, cost=10.0)
        topo.add_link(0, 2, delay=5.0, cost=1.0)
        assert shortest_path(topo, 0, 2, weight="delay") == [0, 1, 2]
        assert shortest_path(topo, 0, 2, weight="cost") == [0, 2]


class TestDeterministicTies:
    def test_equal_paths_prefer_smaller_predecessor(self):
        """Diamond: 0-1-3 and 0-2-3 both cost 2; path via node 1 wins."""
        topo = Topology()
        for n in range(4):
            topo.add_node(n)
        topo.add_link(0, 1, delay=1.0)
        topo.add_link(0, 2, delay=1.0)
        topo.add_link(1, 3, delay=1.0)
        topo.add_link(2, 3, delay=1.0)
        assert shortest_path(topo, 0, 3) == [0, 1, 3]

    def test_tie_break_is_stable_across_runs(self, waxman50):
        a = dijkstra(waxman50, 0)
        b = dijkstra(waxman50, 0)
        assert a.parent == b.parent


class TestFailureMasking:
    def test_failed_link_avoided(self, fig1):
        failures = FailureSet.links((1, 4))  # A-D
        assert shortest_path(fig1, 0, 4, failures=failures) == [0, 2, 4]

    def test_failed_node_avoided(self, fig1):
        failures = FailureSet.nodes(1)  # A dead
        path = shortest_path(fig1, 0, 4, failures=failures)
        assert 1 not in path

    def test_unreachable_after_failure(self, line4):
        failures = FailureSet.links((1, 2))
        paths = dijkstra(line4, 0, failures=failures)
        assert paths.reachable(1)
        assert not paths.reachable(3)
        with pytest.raises(NoPathError):
            paths.path_to(3)

    def test_failed_source_reaches_nothing(self, fig1):
        paths = dijkstra(fig1, 0, failures=FailureSet.nodes(0))
        assert paths.dist == {}


class TestAgainstNetworkx:
    """Cross-validate distances against networkx on random topologies."""

    @pytest.mark.parametrize("source", [0, 7, 23])
    def test_distances_match(self, waxman50, source):
        ours = dijkstra(waxman50, source)
        reference = nx.single_source_dijkstra_path_length(
            to_networkx(waxman50), source, weight="delay"
        )
        assert set(ours.dist) == set(reference)
        for node, dist in reference.items():
            assert ours.dist[node] == pytest.approx(dist)

    def test_path_lengths_are_consistent(self, waxman50):
        paths = dijkstra(waxman50, 3)
        for node in list(paths.dist)[:20]:
            assert waxman50.path_delay(paths.path_to(node)) == pytest.approx(
                paths.dist[node]
            )


class TestBarriers:
    def test_barrier_reachable_but_not_traversable(self, line4):
        # 0-1-2-3; barrier at 1 blocks everything beyond it.
        paths = dijkstra_with_barriers(line4, 0, barriers={1})
        assert paths.reachable(1)
        assert not paths.reachable(2)

    def test_barrier_forces_detour(self, fig1):
        """From D, with A as a barrier, S is reached via B."""
        paths = dijkstra_with_barriers(fig1, 4, barriers={1, 0})
        assert paths.path_to(0) == [4, 2, 0]

    def test_source_barrier_is_ignored(self, line4):
        paths = dijkstra_with_barriers(line4, 1, barriers={1})
        assert paths.reachable(3)

    def test_no_barriers_equals_dijkstra(self, waxman50):
        plain = dijkstra(waxman50, 5)
        barred = dijkstra_with_barriers(waxman50, 5, barriers=set())
        assert plain.dist == barred.dist

    def test_barriers_respect_failures(self, fig1):
        paths = dijkstra_with_barriers(
            fig1, 4, barriers={0}, failures=FailureSet.links((2, 4))
        )
        # D-B failed, A not a barrier: reach S through A.
        assert paths.path_to(0) == [4, 1, 0]
