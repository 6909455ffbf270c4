"""Property tests: ``D^SPF`` from a search confined to the corridor.

SMRP's join and reshape need one number from unicast routing,
``D^SPF(S, NR)``: the member's shortest-path delay to the source.
:func:`~repro.routing.spf.spf_distance` answers it failure-free with a
member-rooted search that drops every relaxation outside the
shortest-path corridor toward the source and stops when the source
settles.  Its answer must be bit for bit the full member-rooted
:func:`~repro.routing.spf.dijkstra`'s — the source-rooted distance can
differ in the last bit, and a bound comparison at ``D_thresh = 0`` sits
on that bit — on Waxman graphs at drawn ``alpha``, with integer delays
(many equal-length paths), for members next to or equal to the source,
and for pairs with no path at all.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.join import select_join
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.errors import JoinRejectedError, NoPathError
from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.routing.spf import dijkstra, spf_distance
from repro.sim.protocols import SmrpSimulation

N = 30


def make_topology(seed: int, alpha: float, integer_delays: bool) -> Topology:
    topology = waxman_topology(
        WaxmanConfig(n=N, alpha=alpha, beta=0.25, seed=seed)
    ).topology
    if not integer_delays:
        return topology
    tied = Topology("tied")
    for node in topology.nodes():
        tied.add_node(node)
    for link in topology.links():
        u, v = link.key
        tied.add_link(u, v, delay=float(math.ceil(link.delay / 20.0)))
    return tied


def full_distance(topology: Topology, member, source) -> float:
    """``D^SPF`` read off the member's whole SPF, as joins used to."""
    return dijkstra(topology, member).distance(source)


def assert_bitwise(got: float, want: float) -> None:
    assert got == want
    assert got.hex() == want.hex()


graphs = st.tuples(
    st.integers(0, 200),
    st.sampled_from([0.1, 0.15, 0.2, 0.3, 0.5]),
    st.booleans(),
)


class TestCorridorDistance:
    @settings(max_examples=80, deadline=None)
    @given(graphs, st.integers(0, N - 1), st.integers(0, N - 1))
    @example(graph=(0, 0.2, False), member=7, source=7)
    def test_equals_full_search_bitwise(self, graph, member, source):
        topology = make_topology(*graph)
        try:
            want = full_distance(topology, member, source)
        except NoPathError:
            with pytest.raises(NoPathError):
                spf_distance(topology, member, source)
            return
        assert_bitwise(spf_distance(topology, member, source), want)

    @settings(max_examples=40, deadline=None)
    @given(graphs, st.integers(0, N - 1), st.integers(0, 10))
    def test_member_next_to_the_source(self, graph, source, pick):
        topology = make_topology(*graph)
        neighbours = sorted(topology.neighbors(source))
        if not neighbours:
            return
        member = neighbours[pick % len(neighbours)]
        assert_bitwise(
            spf_distance(topology, member, source),
            full_distance(topology, member, source),
        )

    def test_disconnected_pair_raises(self):
        topology = Topology("split")
        for node in range(4):
            topology.add_node(node)
        topology.add_link(0, 1, delay=1.0)
        topology.add_link(2, 3, delay=1.0)
        with pytest.raises(NoPathError):
            full_distance(topology, 3, 0)
        with pytest.raises(NoPathError):
            spf_distance(topology, 3, 0)


class TestSelectionUnchanged:
    @settings(max_examples=40, deadline=None)
    @given(graphs, st.integers(0, 200), st.integers(0, N - 1))
    def test_select_join_at_zero_slack(self, graph, member_seed, pick):
        """At ``D_thresh = 0`` the bound is ``D^SPF`` itself, so a
        last-bit difference would change which candidates fit."""
        topology = make_topology(*graph)
        proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.0))
        for node in range(1 + member_seed % 5, N, 7):
            try:
                proto.join(node)
            except (JoinRejectedError, NoPathError):
                pass
        off_tree = sorted(set(topology.nodes()) - set(proto.tree.on_tree_nodes()))
        if not off_tree:
            return
        joiner = off_tree[pick % len(off_tree)]
        try:
            want_delay = full_distance(topology, joiner, 0)
        except NoPathError:
            return
        shr = proto.shr_values()

        def select(spf_delay):
            return select_join(topology, proto.tree, joiner, shr, spf_delay, 0.0)

        assert select(spf_distance(topology, joiner, 0)) == select(want_delay)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_des_join_path(self, seed):
        """The DES join selects the path the full SPF distance selects."""
        topology = make_topology(seed, 0.3, integer_delays=seed == 4)
        sim = SmrpSimulation(topology, 0, d_thresh=0.0)
        spacing = 60.0 * max(link.delay for link in topology.links())
        members = [3, 11, 17]
        for i, member in enumerate(members):
            sim.schedule_join(spacing * (i + 1), member)
        sim.run(until=spacing * (len(members) + 2))
        tree = sim.extract_tree()
        shr = sim.shr_view()
        shr.setdefault(0, 0)
        for node in sorted(set(topology.nodes()) - set(tree.on_tree_nodes())):
            try:
                spf_delay = full_distance(topology, node, 0)
            except NoPathError:
                continue
            selection = select_join(topology, tree, node, shr, spf_delay, 0.0)
            assert sim.select_join_path(node) == tuple(
                reversed(selection.candidate.graft_path)
            )
