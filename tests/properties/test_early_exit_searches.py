"""Property tests: restoration searches that stop at their answer.

Every post-failure question — a local detour's nearest surviving node, a
global detour's path to the source, a repair's nearest-first rounds, an
alternate route, one router's convergence time — settles its search only
until the answer is final.  Each answer must equal the one a full
post-failure :func:`~repro.routing.spf.dijkstra` gives, followed by
first-contact truncation (``tests/core/recovery_reference.py``), on
random Waxman graphs, trees built by both protocols, and link, node and
multi-element failure sets.  Integer delays make equal-distance ties
common, so the ``(distance, id)`` tie-break is exercised too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import (
    global_detour_recovery,
    local_detour_recovery,
    repair_tree,
)
from repro.errors import UnrecoverableFailureError
from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.routing.alternate import build_alternate_table
from repro.routing.failure_view import FailureSet
from repro.routing.link_state import ConvergenceModel
from repro.routing.route_cache import RouteCache, _provably_unaffected
from repro.routing.spf import PathSearch, dijkstra
from tests.core import recovery_reference as ref


def make_topology(seed: int, integer_delays: bool) -> Topology:
    topology = waxman_topology(
        WaxmanConfig(n=25, alpha=0.5, beta=0.4, seed=seed)
    ).topology
    if not integer_delays:
        return topology
    # Coarse integer delays: many equal-length paths.
    tied = Topology("tied")
    for node in topology.nodes():
        tied.add_node(node)
    for link in topology.links():
        u, v = link.key
        tied.add_link(u, v, delay=float(math.ceil(link.delay / 20.0)))
    return tied


@st.composite
def scenarios(draw):
    seed = draw(st.integers(0, 60))
    integer_delays = draw(st.booleans())
    protocol = draw(st.sampled_from(["smrp", "spf"]))
    kind = draw(st.sampled_from(["link", "node", "multi"]))
    pick = draw(st.integers(0, 10_000))
    return seed, integer_delays, protocol, kind, pick


def build_case(seed, integer_delays, protocol, kind, pick):
    topology = make_topology(seed, integer_delays)
    rng = np.random.default_rng([seed, pick])
    nodes = topology.nodes()
    source = nodes[0]
    members = [int(m) for m in rng.choice(nodes[1:], size=8, replace=False)]
    if protocol == "smrp":
        engine = SMRPProtocol(topology, source, config=SMRPConfig(self_check=False))
    else:
        engine = SPFMulticastProtocol(topology, source, self_check=False)
    tree = engine.build(members)
    links = sorted(tree.tree_links())
    all_links = sorted(link.key for link in topology.links())
    if kind == "link":
        failures = FailureSet.links(links[pick % len(links)])
    elif kind == "node":
        relays = [n for n in tree.on_tree_nodes() if n != source]
        failures = FailureSet.nodes(relays[pick % len(relays)])
    else:
        chosen = [links[pick % len(links)], all_links[(pick * 7) % len(all_links)]]
        failures = FailureSet.links(*chosen).union(
            FailureSet.nodes(nodes[1 + pick % (len(nodes) - 1)])
        )
    return topology, tree, failures


def detour_or_none(fn, topology, tree, member, failures, route_cache=None):
    try:
        return fn(topology, tree, member, failures, route_cache=route_cache)
    except UnrecoverableFailureError:
        return None


class TestDetoursMatchFullSearch:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    @example((3, True, "spf", "link", 0))
    @example((7, True, "smrp", "multi", 5))
    @example((11, False, "smrp", "node", 2))
    def test_every_member_both_strategies(self, case):
        topology, tree, failures = build_case(*case)
        cache = RouteCache()
        for member in sorted(tree.members):
            if failures.node_failed(member):
                continue
            for strategy, fn in (
                ("local", local_detour_recovery),
                ("global", global_detour_recovery),
            ):
                expected = ref.detour(topology, tree, member, failures, strategy)
                assert detour_or_none(fn, topology, tree, member, failures) == expected
                # Through a shared cache: the other strategy's questions
                # already resumed this search.
                assert (
                    detour_or_none(fn, topology, tree, member, failures, cache)
                    == expected
                )

    @settings(max_examples=60, deadline=None)
    @given(scenarios(), st.sampled_from(["local", "global"]))
    @example((3, True, "spf", "link", 0), "local")
    @example((7, True, "smrp", "multi", 5), "global")
    def test_repair_reports(self, case, strategy):
        topology, tree, failures = build_case(*case)
        if failures.node_failed(tree.source):
            return
        expected = ref.report_digest(ref.repair(topology, tree, failures, strategy))
        assert ref.report_digest(
            repair_tree(topology, tree, failures, strategy=strategy)
        ) == expected
        cache = RouteCache()
        for _ in range(2):  # the second repair resumes cached searches
            report = repair_tree(
                topology, tree, failures, strategy=strategy, route_cache=cache
            )
            assert ref.report_digest(report) == expected


class TestOneSearchManyQuestions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 60), st.booleans(), st.integers(0, 10_000))
    @example(3, True, 0)
    @example(8, True, 41)
    def test_local_then_global_then_a_larger_local(self, seed, tied, pick):
        """One search asked local, then global, then local again with a
        larger surviving set (as repair rounds do), against fresh full
        searches."""
        topology = make_topology(seed, tied)
        rng = np.random.default_rng([seed, pick])
        nodes = topology.nodes()
        root, source = (int(n) for n in rng.choice(nodes, size=2, replace=False))
        failures = FailureSet.links(
            *(link.key for link in topology.links()[pick % 5 :: 9])
        )
        full = dijkstra(topology, root, failures=failures)
        small = {int(n) for n in rng.choice(nodes, size=4, replace=False)} - {root}
        large = small | {int(n) for n in rng.choice(nodes, size=6, replace=False)}
        large.discard(root)
        search = PathSearch(topology, root, failures=failures)
        for question in (small, source, large, source):
            if isinstance(question, set):
                assert search.nearest(question) == full.nearest(question)
            else:
                assert search.reachable(question) == (question in full.dist)
                if question in full.dist:
                    assert search.path_to(question) == full.path_to(question)
                    assert search.distance(question) == full.dist[question]
        # Exhausted, the search is the full result, insertion order included.
        completed = search.complete()
        assert list(completed.dist.items()) == list(full.dist.items())
        assert list(completed.parent.items()) == list(full.parent.items())


class TestAlternatesAndConvergence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 60), st.booleans(), st.integers(0, 10_000))
    @example(3, True, 0)
    def test_every_alternate_route(self, seed, tied, pick):
        topology = make_topology(seed, tied)
        nodes = topology.nodes()
        root = nodes[1 + pick % (len(nodes) - 1)]
        target = nodes[0]
        for route_cache in (None, RouteCache()):
            table = build_alternate_table(
                topology, root, target, route_cache=route_cache
            )
            if table is None:
                continue
            assert list(table.primary) == dijkstra(topology, root).path_to(target)
            for link in table.primary_links():
                masked = dijkstra(topology, root, failures=FailureSet.links(link))
                route = table.alternate(link)
                if target in masked.dist:
                    assert list(route.path) == masked.path_to(target)
                    assert route.delay == masked.dist[target]
                else:
                    assert route.path is None and route.delay is None

    @settings(max_examples=40, deadline=None)
    @given(scenarios())
    @example((3, True, "spf", "multi", 0))
    def test_each_router_converges_as_the_whole_flood_says(self, case):
        topology, _, failures = build_case(*case)
        rng = np.random.default_rng(case[-1])
        model = ConvergenceModel(per_hop_processing=float(rng.choice([0.0, 0.5, 2.0])))
        expected = ref.convergence_times(model, topology, failures)
        order = list(expected)
        rng.shuffle(order)
        for node in order:  # one router at a time, in any order
            assert model.convergence_time(topology, failures, node) == expected[node]
        times = model.convergence_times(topology, failures)
        assert list(times.items()) == list(expected.items())


class TestReuseProofs:
    """A reuse-proof answer equals a fresh failure-masked search: the same
    ``dist`` and ``parent`` bit for bit (only dict insertion order may
    differ, which no question reads)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 60),
        st.booleans(),
        st.sampled_from([0.15, 0.3]),
        st.integers(0, 10_000),
    )
    @example(3, True, 0.3, 0)
    def test_proved_answers_equal_fresh_searches(self, seed, tied, alpha, pick):
        topology = waxman_topology(
            WaxmanConfig(n=30, alpha=alpha, beta=0.4, seed=seed)
        ).topology
        if tied:
            topology = make_topology(seed, True)
        nodes = topology.nodes()
        root = nodes[pick % len(nodes)]
        baseline = dijkstra(topology, root)
        candidates = [FailureSet.links(link.key) for link in topology.links()]
        candidates += [FailureSet.nodes(node) for node in nodes if node != root]
        proved = [f for f in candidates if _provably_unaffected(baseline, f)]
        for failures in proved:
            fresh = dijkstra(topology, root, failures=failures)
            assert baseline.dist == fresh.dist
            assert baseline.parent == fresh.parent
        cache = RouteCache()
        cache.shortest_paths(topology, root)
        for failures in proved[:5]:
            answer = cache.search(topology, root, failures=failures)
            assert answer is cache.shortest_paths(topology, root)
        assert cache.stats["reuse_proofs"] == min(len(proved), 5)


@pytest.mark.parametrize("tied", [False, True])
def test_kernel_nearest_is_the_full_minimum(tied):
    """The kernel's early exit, directly: random flag sets, every root."""
    from repro.routing.csr import NO_PARENT, CsrSearch, csr_dijkstra

    topology = make_topology(5, tied)
    csr = topology.csr()
    weights = csr.weight_list("delay")
    rng = np.random.default_rng(9)
    for root in range(csr.num_nodes):
        dist, parent, _ = csr_dijkstra(csr, root, weights, None)
        search = CsrSearch(csr, root, weights, None)
        for size in (1, 3, 8):
            flags = {int(i) for i in rng.choice(csr.num_nodes, size=size, replace=False)}
            reachable = [i for i in flags if dist[i] < math.inf]
            expected = min(reachable, key=lambda i: (dist[i], i), default=NO_PARENT)
            assert search.nearest(flags) == expected
            for i in range(csr.num_nodes):
                if search.settled[i]:
                    assert (search.dist[i], search.parent[i]) == (dist[i], parent[i])
