"""Candidate enumeration (§3.2.2) against an oracle built from scratch.

:func:`~repro.core.candidates.enumerate_candidates` prices every merge
point with one barrier-aware kernel pass and one tree traversal, then
orders the options by ``(shr, total delay, merge id)``.  The oracle here
does the same job the slow, obvious way: the dict-based reference search
(``tests/routing/spf_reference.py``) for the connections, a per-node
path walk for each merge point's on-tree delay, and a plain sort.  The
properties draw random failures, excluded nodes, merge-point
restrictions, partial SHR knowledge and reshape movers, so the ranking
— the choice every join and reshape acts on — is checked well beyond
the hand-picked examples in ``tests/core/test_candidates.py``.

Joins and reshapes pass the §3.2.2 delay bound in, and the enumeration
then prices only the merge points a goal-directed search reaches.  The
bounded properties check that it returns exactly the oracle's list
filtered to ``total_delay <= bound + 1e-12``, in the same order, for
bounds below, inside and above the candidates' delay range, and that a
join with nothing inside the bound falls back (or is rejected) exactly
as a selection over the full list would.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.candidates import Candidate, enumerate_candidates
from repro.core.join import delay_bound, select_path
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import adjusted_shr_table, shr_table
from repro.errors import JoinRejectedError
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.routing.failure_view import FailureSet
from repro.routing.spf import dijkstra
from tests.routing.spf_reference import dijkstra_with_barriers_reference

N = 30


def build_tree(topo_seed: int, member_seed: int, use_smrp: bool):
    if use_smrp:
        proto = build_protocol(topo_seed, member_seed, reshape_enabled=True)
        return proto.topology, proto.tree
    topology = make_topology(topo_seed)
    return topology, SPFMulticastProtocol(topology, 0).build(
        draw_members(member_seed)
    )


def make_topology(seed: int):
    return waxman_topology(WaxmanConfig(n=N, alpha=0.5, beta=0.4, seed=seed)).topology


def draw_members(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(m) for m in rng.choice(range(1, N), size=8, replace=False)]


def build_protocol(topo_seed: int, member_seed: int, reshape_enabled: bool):
    proto = SMRPProtocol(
        make_topology(topo_seed),
        0,
        config=SMRPConfig(d_thresh=0.4, reshape_enabled=reshape_enabled),
    )
    proto.build(draw_members(member_seed))
    return proto


def make_failures(topology, link_indices, node_ids) -> FailureSet:
    links = topology.links()
    return FailureSet(
        failed_links=frozenset(
            (min(link.u, link.v), max(link.u, link.v))
            for link in (links[i % len(links)] for i in link_indices)
        ),
        failed_nodes=frozenset(node_ids),
    )


def oracle(
    topology, tree, joiner, shr_values, failures, excluded, allowed, mover
) -> list[Candidate]:
    """Every eligible merge point, priced from scratch, in rank order."""
    mask = failures.union(FailureSet(failed_nodes=frozenset(excluded)))
    on_tree = set(tree.on_tree_nodes()) - set(excluded) - {mover}
    paths = dijkstra_with_barriers_reference(
        topology, joiner, barriers=on_tree, weight="delay", failures=mask
    )
    expected = [
        Candidate(
            merge_node=merge,
            graft_path=tuple(reversed(paths.path_to(merge))),
            new_delay=paths.dist[merge],
            total_delay=tree.delay_from_source(merge) + paths.dist[merge],
            shr=shr_values[merge],
        )
        for merge in on_tree
        if merge in paths.dist
        and merge in shr_values
        and (allowed is None or merge in allowed)
    ]
    expected.sort(key=lambda c: (c.shr, c.total_delay, c.merge_node))
    return expected


def assert_identical(got: list[Candidate], want: list[Candidate]) -> None:
    assert got == want  # dataclass equality: every field, every rank
    for a, b in zip(got, want):
        assert type(a.new_delay) is type(b.new_delay)
        assert type(a.total_delay) is type(b.total_delay)


tree_params = st.tuples(st.integers(0, 200), st.integers(0, 200), st.booleans())
node_sets = st.frozensets(st.integers(0, N - 1), max_size=4)
failure_draws = st.tuples(
    st.lists(st.integers(0, 200), max_size=3),
    st.lists(st.integers(0, N - 1), max_size=2),
)


class TestCandidateOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        tree_params,
        st.integers(0, N - 1),
        failure_draws,
        node_sets,
        st.none() | st.frozensets(st.integers(0, N - 1)),
        node_sets,
    )
    # The joiner itself is excluded: it reaches nothing.
    @example(
        params=(3, 5, True), pick=0, failure_draw=([], []),
        excluded=frozenset({2}), allowed=None, unknown=frozenset(),
    )
    # Off-tree node 25 carries the shortest connections of joiner 3: the
    # search must route around it although the tree never flags it.
    @example(
        params=(1, 5, True), pick=0, failure_draw=([], []),
        excluded=frozenset({25}), allowed=None, unknown=frozenset(),
    )
    def test_join_matches_oracle(
        self, params, pick, failure_draw, excluded, allowed, unknown
    ):
        """A joiner off the tree, with partial SHR knowledge (the query
        scheme's view) and arbitrary exclusions and restrictions."""
        topology, tree = build_tree(*params)
        off_tree = sorted(set(topology.nodes()) - set(tree.on_tree_nodes()))
        joiner = off_tree[pick % len(off_tree)]
        failures = make_failures(topology, *failure_draw)
        shr_values = {
            node: value
            for node, value in shr_table(tree).items()
            if node not in unknown
        }
        got = enumerate_candidates(
            topology,
            tree,
            joiner,
            shr_values,
            failures=failures,
            excluded_nodes=excluded,
            allowed_merge_nodes=allowed,
        )
        assert_identical(
            got,
            oracle(
                topology, tree, joiner, shr_values, failures, excluded,
                allowed, None,
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        tree_params,
        st.integers(0, N - 1),
        failure_draws,
        node_sets,
        st.none() | st.frozensets(st.integers(0, N - 1)),
    )
    def test_reshape_matches_oracle(
        self, params, pick, failure_draw, extra_excluded, allowed
    ):
        """A reshaping mover: its own subtree is excluded and its
        adjusted SHR table prices the remaining merge points."""
        topology, tree = build_tree(*params)
        movers = sorted(set(tree.on_tree_nodes()) - {tree.source})
        mover = movers[pick % len(movers)]
        subtree = tree.subtree_nodes(mover)
        excluded = (frozenset(subtree) | extra_excluded) - {mover}
        table = adjusted_shr_table(tree, mover)
        shr_values = {
            node: value for node, value in table.items() if node not in subtree
        }
        failures = make_failures(topology, *failure_draw)
        got = enumerate_candidates(
            topology,
            tree,
            mover,
            shr_values,
            failures=failures,
            excluded_nodes=excluded,
            allowed_merge_nodes=allowed,
            mover=mover,
        )
        assert_identical(
            got,
            oracle(
                topology, tree, mover, shr_values, failures, excluded,
                allowed, mover,
            ),
        )


#: How a test bound is placed: ``("thresh", d)`` is the §3.2.2 bound
#: ``(1 + d) · D^SPF`` of the enumerating node; ``("range", q)`` sits at
#: fraction ``q`` of the oracle's total-delay range (below it for
#: ``q < 0``, above it for ``q > 1``); ``("exact", i)`` lands exactly on
#: one candidate's total delay.
bound_draws = st.one_of(
    st.sampled_from([0.0, 0.1, 0.3, 1.0]).map(lambda d: ("thresh", d)),
    st.floats(-0.5, 1.5).map(lambda q: ("range", q)),
    st.integers(0, 50).map(lambda i: ("exact", i)),
)


def place_bound(draw, topology, node, source, failures, options) -> float:
    kind, value = draw
    if kind == "thresh":
        spf = dijkstra(topology, node, failures=failures)
        if source in spf.dist:
            return delay_bound(spf.dist[source], value)
        kind, value = "range", 0.5
    if not options:
        return 1.0
    totals = sorted(c.total_delay for c in options)
    if kind == "exact":
        return totals[value % len(totals)]
    return totals[0] + value * (totals[-1] - totals[0])


def within(options: list[Candidate], bound: float) -> list[Candidate]:
    return [c for c in options if c.total_delay <= bound + 1e-12]


class TestBoundedEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        tree_params,
        st.integers(0, N - 1),
        failure_draws,
        node_sets,
        node_sets,
        bound_draws,
    )
    @example(
        params=(3, 5, True), pick=0, failure_draw=([], []),
        excluded=frozenset(), unknown=frozenset(), bound_draw=("thresh", 0.0),
    )
    def test_join_within_bound(
        self, params, pick, failure_draw, excluded, unknown, bound_draw
    ):
        topology, tree = build_tree(*params)
        off_tree = sorted(set(topology.nodes()) - set(tree.on_tree_nodes()))
        joiner = off_tree[pick % len(off_tree)]
        failures = make_failures(topology, *failure_draw)
        shr_values = {
            node: value
            for node, value in shr_table(tree).items()
            if node not in unknown
        }
        options = oracle(
            topology, tree, joiner, shr_values, failures, excluded, None, None
        )
        bound = place_bound(
            bound_draw, topology, joiner, tree.source, failures, options
        )
        got = enumerate_candidates(
            topology,
            tree,
            joiner,
            shr_values,
            failures=failures,
            excluded_nodes=excluded,
            delay_bound=bound,
        )
        assert_identical(got, within(options, bound))

    @settings(max_examples=60, deadline=None)
    @given(tree_params, st.integers(0, N - 1), failure_draws, bound_draws)
    @example(
        params=(3, 5, True), pick=0, failure_draw=([], []),
        bound_draw=("thresh", 0.0),
    )
    def test_reshape_within_bound(self, params, pick, failure_draw, bound_draw):
        topology, tree = build_tree(*params)
        movers = sorted(set(tree.on_tree_nodes()) - {tree.source})
        mover = movers[pick % len(movers)]
        excluded = frozenset(tree.subtree_nodes(mover) - {mover})
        table = adjusted_shr_table(tree, mover)
        failures = make_failures(topology, *failure_draw)
        options = oracle(
            topology, tree, mover, table, failures, excluded, None, mover
        )
        bound = place_bound(
            bound_draw, topology, mover, tree.source, failures, options
        )
        got = enumerate_candidates(
            topology,
            tree,
            mover,
            table,
            failures=failures,
            excluded_nodes=excluded,
            mover=mover,
            delay_bound=bound,
        )
        assert_identical(got, within(options, bound))


class TestBoundedJoinSelection:
    """``SMRPProtocol.join`` selects as a selection over the full list.

    The expected selection applies :func:`select_path` to the oracle's
    full candidate list: the join the protocol made before it enumerated
    within the bound.  With nothing inside the bound the join must pick
    the same fallback (and report the full count), or raise the same
    rejection when fallback is off.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 200),
        st.integers(0, 200),
        st.integers(0, N - 1),
        failure_draws,
        st.sampled_from([0.0, 0.02, 0.3]),
        st.booleans(),
    )
    # Joiner 6 of this tree has no candidate within D^SPF (d_thresh = 0):
    # one example falls back, the other is rejected.
    @example(
        topo_seed=0, member_seed=0, pick=1, failure_draw=([], []),
        d_thresh=0.0, allow_fallback=True,
    )
    @example(
        topo_seed=0, member_seed=0, pick=1, failure_draw=([], []),
        d_thresh=0.0, allow_fallback=False,
    )
    def test_join_selects_as_over_the_full_list(
        self, topo_seed, member_seed, pick, failure_draw, d_thresh,
        allow_fallback,
    ):
        proto = build_protocol(topo_seed, member_seed, reshape_enabled=False)
        topology = proto.topology
        proto.config = dataclasses.replace(
            proto.config, d_thresh=d_thresh, allow_fallback=allow_fallback
        )
        tree = proto.tree
        off_tree = sorted(set(topology.nodes()) - set(tree.on_tree_nodes()))
        joiner = off_tree[pick % len(off_tree)]
        failures = make_failures(topology, *failure_draw)
        spf = dijkstra(topology, joiner, failures=failures)
        if tree.source not in spf.dist:
            return
        shr_values = shr_table(tree)
        options = oracle(
            topology, tree, joiner, shr_values, failures, frozenset(), None, None
        )
        try:
            want = select_path(
                options, spf.dist[tree.source], d_thresh, allow_fallback
            )
        except JoinRejectedError as exc:
            with pytest.raises(JoinRejectedError) as raised:
                proto.join(joiner, failures=failures)
            assert str(raised.value) == str(exc)
            return
        got = proto.join(joiner, failures=failures)
        assert got.fallback == want.fallback
        if want.fallback:
            assert got == want
        else:
            assert got == dataclasses.replace(
                want, num_candidates=want.num_feasible
            )
