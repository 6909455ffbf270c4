"""Property tests for the SHR metric on arbitrary trees.

The central identity the distributed protocol relies on is
Eq. (1) ≡ Eq. (2); these tests check it (and related SHR facts) on
randomly generated topologies, trees, and member sets.  Both forms read
the ``N_R`` counts the tree maintains, so the expected values come from
the whole-tree walks of :mod:`tests.core.shr_reference`.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import (
    adjusted_shr_table,
    link_utilisation,
    shr_direct,
    shr_excluding_subtree,
    shr_incremental,
    subtree_member_counts,
)
from tests.core.shr_reference import (
    adjusted_shr_table_reference,
    link_utilisation_reference,
    member_counts_reference,
    shr_table_reference,
)


def build_tree(topo_seed: int, member_seed: int, use_smrp: bool):
    """A random tree over a random topology, via either protocol."""
    topology = waxman_topology(
        WaxmanConfig(n=30, alpha=0.5, beta=0.4, seed=topo_seed)
    ).topology
    import numpy as np

    rng = np.random.default_rng(member_seed)
    members = [int(m) for m in rng.choice(range(1, 30), size=8, replace=False)]
    if use_smrp:
        proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.4))
        proto.build(members)
        return topology, proto.tree
    proto = SPFMulticastProtocol(topology, 0)
    return topology, proto.build(members)


tree_params = st.tuples(
    st.integers(0, 200), st.integers(0, 200), st.booleans()
)


class TestEq1EquivalentToEq2:
    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_direct_equals_incremental(self, params):
        _, tree = build_tree(*params)
        table = shr_incremental(tree)
        expected = shr_table_reference(tree)
        assert table == expected
        for node in tree.on_tree_nodes():
            assert shr_direct(tree, node) == expected[node]

    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_shr_equals_sum_of_link_utilisation(self, params):
        """Eq. (1) stated over the precomputed N_L table."""
        _, tree = build_tree(*params)
        util = link_utilisation(tree)
        assert util == link_utilisation_reference(tree)
        for node in tree.on_tree_nodes():
            path = tree.path_from_source(node)
            expected = sum(
                util[(min(u, v), max(u, v))] for u, v in zip(path, path[1:])
            )
            assert shr_direct(tree, node) == expected


class TestShrStructure:
    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_shr_weakly_increases_down_any_path(self, params):
        """SHR(child) = SHR(parent) + N_child >= SHR(parent)."""
        _, tree = build_tree(*params)
        table = shr_incremental(tree)
        for node in tree.on_tree_nodes():
            parent = tree.parent(node)
            if parent is not None:
                assert table[node] >= table[parent]

    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_source_shr_zero_and_counts_bound(self, params):
        _, tree = build_tree(*params)
        table = shr_incremental(tree)
        assert table[tree.source] == 0
        n_members = len(tree.members)
        depth = max(len(tree.path_from_source(n)) for n in tree.on_tree_nodes())
        # Every path node contributes at most the full member count.
        assert all(v <= n_members * depth for v in table.values())

    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_n_r_consistency(self, params):
        """N_R equals own membership plus the per-interface sums."""
        _, tree = build_tree(*params)
        counts = subtree_member_counts(tree)
        assert counts == member_counts_reference(tree)
        for node in tree.on_tree_nodes():
            expected = (1 if tree.is_member(node) else 0) + sum(
                counts[c] for c in tree.children(node)
            )
            assert counts[node] == expected


class TestAdjustedShr:
    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_adjustment_never_exceeds_raw(self, params):
        _, tree = build_tree(*params)
        movers = [m for m in tree.members if m != tree.source]
        if not movers:
            return
        mover = sorted(movers)[0]
        subtree = tree.subtree_nodes(mover)
        for merge in tree.on_tree_nodes():
            if merge in subtree:
                continue
            adjusted = shr_excluding_subtree(tree, merge, mover)
            assert 0 <= adjusted <= shr_direct(tree, merge)

    @settings(max_examples=25, deadline=None)
    @given(tree_params)
    def test_batched_table_matches_per_node_form(self, params):
        """adjusted_shr_table agrees exactly with shr_excluding_subtree
        for every on-tree node and every possible mover."""
        _, tree = build_tree(*params)
        for mover in tree.on_tree_nodes():
            if mover == tree.source:
                continue
            table = adjusted_shr_table(tree, mover)
            assert table == adjusted_shr_table_reference(tree, mover)
            for merge in tree.on_tree_nodes():
                assert table[merge] == shr_excluding_subtree(tree, merge, mover)
