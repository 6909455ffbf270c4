"""Tests for single-failure alternate-route tables."""

import pytest

from repro.graph.topology import Topology
from repro.obs import Observability
from repro.routing.alternate import build_alternate_table
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.route_cache import RouteCache


@pytest.fixture
def lollipop() -> Topology:
    """A ring ``0–1–2–3–0`` with a tail ``2–5`` and an isolated node 6.

    From member 5 to source 0 the primary is ``5, 2, 1, 0`` (delay 3);
    the way round is ``5, 2, 3, 0`` (delay 5); ``2–5`` is a bridge.
    """
    topology = Topology("lollipop")
    for node in range(7):
        topology.add_node(node)
    for u, v, delay in (
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 2.0), (2, 5, 1.0),
    ):
        topology.add_link(u, v, delay=delay)
    return topology


def table_for(topology, **kwargs):
    table = build_alternate_table(topology, 5, 0, **kwargs)
    assert table is not None
    return table


class TestRouteUnder:
    def test_primary_untouched(self, lollipop):
        table = table_for(lollipop)
        assert table.primary == (5, 2, 1, 0)
        assert table.route_under(NO_FAILURES) == (5, 2, 1, 0)
        assert table.route_under(FailureSet.links((2, 3))) == (5, 2, 1, 0)
        assert table.routes == {}  # nothing needed an alternate

    def test_one_primary_link_hit(self, lollipop):
        table = table_for(lollipop)
        assert table.route_under(FailureSet.links((1, 2))) == (5, 2, 3, 0)
        # Only the alternate the failure asked for was computed.
        assert set(table.routes) == {(1, 2)}
        assert table.routes[(1, 2)].delay == 5.0

    def test_bridge_link_has_no_alternate(self, lollipop):
        table = table_for(lollipop)
        assert table.route_under(FailureSet.links((2, 5))) is None
        assert table.routes[(2, 5)].path is None

    def test_multi_link_hit_is_not_covered(self, lollipop):
        table = table_for(lollipop)
        failures = FailureSet.links((0, 1), (1, 2))
        assert table.hit_link(failures) is None
        assert table.route_under(failures) is None
        assert table.routes == {}

    def test_alternate_clipped_by_the_same_failure(self, lollipop):
        table = table_for(lollipop)
        failures = FailureSet.links((1, 2), (0, 3))
        assert table.hit_link(failures) == (1, 2)
        assert table.route_under(failures) is None

    def test_failed_primary_node_is_not_covered(self, lollipop):
        table = table_for(lollipop)
        assert table.route_under(FailureSet.nodes(1)) is None
        failures = FailureSet.links((1, 2)).union(FailureSet.nodes(1))
        assert table.hit_link(failures) is None
        assert table.route_under(failures) is None


class TestTable:
    def test_disconnected_pair_has_no_table(self, lollipop):
        assert build_alternate_table(lollipop, 6, 0) is None

    def test_reserved_links_fill_in_every_alternate(self, lollipop):
        table = table_for(lollipop)
        assert table.reserved_links() == {(2, 3), (0, 3)}
        assert set(table.routes) == set(table.primary_links())

    def test_route_cache_gives_identical_routes(self, lollipop):
        plain = table_for(lollipop)
        cached = table_for(lollipop, route_cache=RouteCache())
        for failures in (
            FailureSet.links((0, 1)),
            FailureSet.links((1, 2)),
            FailureSet.links((2, 5)),
            FailureSet.links((1, 2), (0, 3)),
        ):
            assert cached.route_under(failures) == plain.route_under(failures)
        assert cached.reserved_links() == plain.reserved_links()

    def test_counters_count_what_was_built(self, lollipop):
        obs = Observability()
        table = table_for(lollipop, obs=obs)

        def counters():
            return obs.metrics.snapshot()["counters"]

        assert counters()["protection.alternate.tables"] == 1
        assert "protection.alternate.routes" not in counters()
        table.route_under(FailureSet.links((1, 2)))
        table.route_under(FailureSet.links((1, 2)))
        assert counters()["protection.alternate.routes"] == 1
        table.reserved_links()
        # The bridge's entry has no path, so it is not a route.
        assert counters()["protection.alternate.routes"] == 2
