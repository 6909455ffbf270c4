"""CSR kernels vs. the dict-based reference implementation.

The compiled kernels in ``repro.routing.csr`` must be *bit-identical* to
the retained specification in ``tests/routing/spf_reference.py``: same
distances, same parents (tie-breaks included), and same dict insertion
order (downstream routing tables iterate ``dist``, so even ordering is
observable behaviour).  These properties drive both through randomised
Waxman ensembles crossed with random failure scenarios and barrier sets.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.routing.csr import INF
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import (
    barrier_search_arrays,
    dijkstra,
    dijkstra_with_barriers,
)
from tests.routing.spf_reference import (
    dijkstra_reference,
    dijkstra_with_barriers_reference,
)


def make_topology(seed: int, n: int = 25):
    return waxman_topology(
        WaxmanConfig(n=n, alpha=0.5, beta=0.4, seed=seed)
    ).topology


def random_failures(topology, link_indices, node_ids) -> FailureSet:
    """A failure scenario built from raw hypothesis-drawn indices."""
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


def assert_identical(kernel, reference):
    # dict equality plus explicit key-order equality: insertion order is
    # part of the contract (routing tables iterate dist).
    assert kernel.dist == reference.dist
    assert kernel.parent == reference.parent
    assert list(kernel.dist) == list(reference.dist)
    assert list(kernel.parent) == list(reference.parent)


class TestCsrMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, 24),
        st.lists(st.integers(0, 100), max_size=3),
        st.lists(st.integers(0, 24), max_size=2),
        st.sampled_from(["delay", "cost"]),
    )
    def test_dijkstra_identical(self, seed, source, link_idx, node_ids, weight):
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, node_ids)
        kernel = dijkstra(topology, source, weight=weight, failures=failures)
        reference = dijkstra_reference(
            topology, source, weight=weight, failures=failures
        )
        assert_identical(kernel, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, 24),
        st.lists(st.integers(0, 100), max_size=3),
        st.integers(2, 5),
        st.booleans(),
    )
    def test_barriers_identical(self, seed, source, link_idx, modulo, source_in):
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, [])
        barriers = {n for n in topology.nodes() if n % modulo == 0}
        if not source_in:
            barriers.discard(source)
        kernel = dijkstra_with_barriers(
            topology, source, barriers=barriers, failures=failures
        )
        reference = dijkstra_with_barriers_reference(
            topology, source, barriers=barriers, failures=failures
        )
        assert_identical(kernel, reference)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 14))
    def test_small_dense_ensemble(self, seed, source):
        """Denser graphs produce more equal-cost ties to agree on."""
        topology = make_topology(seed, n=15)
        kernel = dijkstra(topology, source)
        reference = dijkstra_reference(topology, source)
        assert_identical(kernel, reference)


class TestGoalDirectedSearch:
    """The delay-bounded search keeps every node inside the bound exact.

    ``barrier_search_arrays(..., goal=g, bound=b)`` drops relaxations
    whose length so far plus the failure-free distance to ``g`` exceeds
    ``b`` (with a small slack).  For every node ``v`` whose *unbounded*
    ``dist(v) + D(g, v)`` is within ``b`` it must return the unbounded
    run's distance and parent bit for bit; nothing may come out shorter
    than the unbounded distance.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, 24),
        st.integers(0, 24),
        st.lists(st.integers(0, 100), max_size=3),
        st.lists(st.integers(0, 24), max_size=2),
        st.integers(2, 6),
        st.sampled_from(["delay", "cost"]),
        st.one_of(
            st.floats(-0.2, 1.2).map(lambda q: ("fraction", q)),
            st.integers(0, 24).map(lambda i: ("exact", i)),
        ),
    )
    def test_bounded_matches_unbounded_inside_the_bound(
        self, seed, source, goal, link_idx, node_ids, modulo, weight, bound_draw
    ):
        topology = make_topology(seed)
        failures = random_failures(topology, link_idx, node_ids)
        barriers = {n for n in topology.nodes() if n % modulo == 0} - {source}
        csr, dist, parent, _ = barrier_search_arrays(
            topology, source, barriers, weight=weight, failures=failures
        )
        if dist is None:  # failed source: nothing to compare
            return
        to_goal = csr.root_distances(csr.index_of[goal], weight)
        through = [d + g for d, g in zip(dist, to_goal)]
        finite = sorted(t for t in through if t < INF)
        kind, value = bound_draw
        if kind == "fraction":
            bound = finite[-1] * value
        else:  # a bound landing exactly on one node's dist + D(goal, .)
            bound = finite[value % len(finite)]
        _, bdist, bparent, border = barrier_search_arrays(
            topology, source, barriers, weight=weight, failures=failures,
            goal=goal, bound=bound,
        )
        for v, total in enumerate(through):
            if total <= bound:
                assert bdist[v] == dist[v]
                assert bparent[v] == parent[v]
            assert bdist[v] >= dist[v]
        assert sorted(border) == sorted(v for v in range(len(bdist)) if bdist[v] < INF)

    def test_infinite_bound_is_the_full_search(self):
        topology = make_topology(7)
        full = barrier_search_arrays(topology, 3, {0, 5, 9})
        bounded = barrier_search_arrays(topology, 3, {0, 5, 9}, goal=0, bound=INF)
        assert full[1:] == bounded[1:]
