"""Multi-root SPF vs. looped scalar runs — the full bit-identity contract.

The multi-root sweep (``repro.routing.batch``) promises results
*indistinguishable* from one scalar kernel run per root: same IEEE-754
values, same tie-breaks, same dict insertion order.  These properties
drive both through randomised Waxman ensembles crossed with random
failure scenarios and barrier sets.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.routing.batch import csr_dijkstra_multi, dijkstra_multi
from repro.routing.csr import (
    compile_failures,
    csr_dijkstra,
    csr_dijkstra_barriers,
)
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import dijkstra


def make_topology(seed: int, n: int = 25):
    return waxman_topology(
        WaxmanConfig(n=n, alpha=0.5, beta=0.4, seed=seed)
    ).topology


def random_failures(topology, link_indices, node_ids) -> FailureSet:
    links = topology.links()
    failed_links = frozenset(
        (links[i % len(links)].u, links[i % len(links)].v) for i in link_indices
    )
    failed_nodes = frozenset(n for n in node_ids if topology.has_node(n))
    if not failed_links and not failed_nodes:
        return NO_FAILURES
    return FailureSet(
        failed_links=frozenset(
            (u, v) if u <= v else (v, u) for u, v in failed_links
        ),
        failed_nodes=failed_nodes,
    )


def assert_rows_match_scalar(csr, roots, weights, mask, barriers=None):
    """Each batch row must equal the scalar kernel's flat arrays exactly."""
    if barriers is None:
        bitset = None
    else:
        bitset = bytearray(csr.num_nodes)
        for i in barriers:
            bitset[i] = 1
    dist, parent, orders, _ = csr_dijkstra_multi(
        csr, roots, weights, mask, barriers=bitset
    )
    assert dist.shape == (len(roots), csr.num_nodes)
    assert parent.shape == (len(roots), csr.num_nodes)
    for row, root in enumerate(roots):
        if barriers is None:
            sdist, sparent, sorder = csr_dijkstra(
                csr, root, list(weights), mask
            )
        else:
            sdist, sparent, sorder = csr_dijkstra_barriers(
                csr, root, list(weights), mask, barriers
            )
        # Exact float equality is the contract, not approx.
        assert dist[row].tolist() == sdist
        assert parent[row].tolist() == sparent
        assert orders[row].tolist() == sorder


class TestMultiRootKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 300),
        st.lists(st.integers(0, 24), min_size=1, max_size=8),
        st.lists(st.integers(0, 100), max_size=3),
        st.lists(st.integers(0, 24), max_size=2),
        st.sampled_from(["delay", "cost"]),
    )
    def test_matches_looped_scalar(self, seed, roots, link_idx, node_ids, weight):
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, node_ids)
        csr = topology.csr()
        root_idx = sorted({csr.index_of[r] for r in roots})
        assert_rows_match_scalar(
            csr, root_idx, csr.weights(weight), compile_failures(csr, failures)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 300),
        st.lists(st.integers(0, 24), min_size=1, max_size=6),
        st.lists(st.integers(0, 100), max_size=3),
        st.integers(2, 5),
    )
    def test_barriers_match_looped_scalar(self, seed, roots, link_idx, modulo):
        """Per-root barrier gags: each root may leave its own barrier."""
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, [])
        csr = topology.csr()
        barriers = [
            csr.index_of[n] for n in topology.nodes() if n % modulo == 0
        ]
        root_idx = sorted({csr.index_of[r] for r in roots})
        assert_rows_match_scalar(
            csr,
            root_idx,
            csr.weights("delay"),
            compile_failures(csr, failures),
            barriers=barriers,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 300),
        st.lists(st.integers(0, 24), min_size=1, max_size=8),
        st.lists(st.integers(0, 100), max_size=3),
        st.lists(st.integers(0, 24), max_size=2),
        st.sampled_from(["delay", "cost"]),
    )
    def test_wrapper_views_identical_to_dijkstra(
        self, seed, roots, link_idx, node_ids, weight
    ):
        """dijkstra_multi views vs per-call dijkstra: values, insertion
        order, and dead-root semantics (a failed root yields the same
        empty result)."""
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, node_ids)
        batch = dijkstra_multi(topology, roots, weight=weight, failures=failures)
        for root in set(roots):
            got = batch.paths(root)
            want = dijkstra(topology, root, weight=weight, failures=failures)
            assert got.source == want.source
            assert got.dist == want.dist
            assert got.parent == want.parent
            assert list(got.dist) == list(want.dist)
            assert list(got.parent) == list(want.parent)

    def test_negative_id_tie_break_regression(self):
        # The historical ``u < (parent[v] or -1)`` bug pinned for the
        # batch kernel too: node -1 must replace incumbent parent 0 on an
        # equal-delay tie (smaller id wins, sentinel semantics aside).
        topo = Topology("neg")
        for n in (5, 0, -1, 9):
            topo.add_node(n)
        for u, v, d in [(5, 0, 1.0), (5, -1, 2.0), (0, 9, 2.0), (-1, 9, 1.0)]:
            topo.add_link(u, v, delay=d)
        batch = dijkstra_multi(topo, [5])
        want = dijkstra(topo, 5)
        got = batch.paths(5)
        assert got.parent[9] == -1
        assert got.dist == want.dist and got.parent == want.parent
        assert list(got.dist) == list(want.dist)
