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
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.candidates import Candidate, enumerate_candidates
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import adjusted_shr_table, shr_table
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.routing.failure_view import FailureSet
from tests.routing.spf_reference import dijkstra_with_barriers_reference

N = 30


def build_tree(topo_seed: int, member_seed: int, use_smrp: bool):
    topology = waxman_topology(
        WaxmanConfig(n=N, alpha=0.5, beta=0.4, seed=topo_seed)
    ).topology
    rng = np.random.default_rng(member_seed)
    members = [int(m) for m in rng.choice(range(1, N), size=8, replace=False)]
    if use_smrp:
        proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.4))
        proto.build(members)
        return topology, proto.tree
    return topology, SPFMulticastProtocol(topology, 0).build(members)


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
