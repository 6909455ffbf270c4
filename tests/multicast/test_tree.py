"""Tests for the MulticastTree structure."""

import pytest

from repro.errors import MulticastError, NotOnTreeError, TopologyError
from repro.graph.generators import node_id
from repro.multicast.tree import MulticastTree
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet


@pytest.fixture
def fig1_tree(fig1):
    """The SPF tree of Figure 1(a): S-A, A-C, A-D with members C, D."""
    tree = MulticastTree(fig1, node_id("S"))
    tree.graft([node_id("S"), node_id("A"), node_id("C")])
    tree.graft([node_id("A"), node_id("D")])
    return tree


class TestConstruction:
    def test_source_always_on_tree(self, fig1):
        tree = MulticastTree(fig1, 0)
        assert tree.is_on_tree(0)
        assert tree.parent(0) is None
        assert not tree.is_member(0)

    def test_unknown_source_rejected(self, fig1):
        with pytest.raises(TopologyError):
            MulticastTree(fig1, 99)

    def test_graft_builds_branch(self, fig1_tree):
        assert fig1_tree.is_member(node_id("C"))
        assert fig1_tree.is_member(node_id("D"))
        assert fig1_tree.parent(node_id("C")) == node_id("A")
        assert fig1_tree.children(node_id("A")) == (node_id("C"), node_id("D"))
        check_tree_invariants(fig1_tree)

    def test_graft_single_node_marks_member(self, fig1_tree):
        fig1_tree.graft([node_id("A")])
        assert fig1_tree.is_member(node_id("A"))

    def test_graft_requires_on_tree_merge(self, fig1):
        tree = MulticastTree(fig1, 0)
        with pytest.raises(NotOnTreeError):
            tree.graft([node_id("A"), node_id("D")])

    def test_graft_rejects_revisiting_tree(self, fig1_tree):
        with pytest.raises(MulticastError):
            fig1_tree.graft([node_id("S"), node_id("A")])  # A already on tree

    def test_graft_rejects_missing_link(self, fig1):
        tree = MulticastTree(fig1, node_id("S"))
        with pytest.raises(TopologyError):
            tree.graft([node_id("S"), node_id("D")])  # no S-D link

    def test_graft_relay_only(self, fig1):
        tree = MulticastTree(fig1, node_id("S"))
        tree.graft([node_id("S"), node_id("A")], member=False)
        assert tree.is_on_tree(node_id("A"))
        assert not tree.is_member(node_id("A"))


class TestQueries:
    def test_path_from_source(self, fig1_tree):
        assert fig1_tree.path_from_source(node_id("C")) == [
            node_id("S"),
            node_id("A"),
            node_id("C"),
        ]

    def test_path_of_off_tree_node_rejected(self, fig1_tree):
        with pytest.raises(NotOnTreeError):
            fig1_tree.path_from_source(node_id("B"))

    def test_delay_from_source(self, fig1_tree):
        assert fig1_tree.delay_from_source(node_id("C")) == 2.0

    def test_tree_cost(self, fig1_tree):
        # links S-A (1), A-C (1), A-D (1)
        assert fig1_tree.tree_cost() == 3.0

    def test_tree_links(self, fig1_tree):
        assert fig1_tree.tree_links() == {(0, 1), (1, 3), (1, 4)}

    def test_subtree_nodes(self, fig1_tree):
        assert fig1_tree.subtree_nodes(node_id("A")) == {
            node_id("A"),
            node_id("C"),
            node_id("D"),
        }

    def test_subtree_member_count(self, fig1_tree):
        assert fig1_tree.subtree_member_count(node_id("A")) == 2
        assert fig1_tree.subtree_member_count(node_id("C")) == 1
        assert fig1_tree.subtree_member_count(node_id("S")) == 2

    def test_subtree_size(self, fig1_tree):
        assert fig1_tree.subtree_size(node_id("S")) == 4
        assert fig1_tree.subtree_size(node_id("A")) == 3
        assert fig1_tree.subtree_size(node_id("D")) == 1
        with pytest.raises(NotOnTreeError):
            fig1_tree.subtree_size(node_id("B"))

    def test_interface_counts(self, fig1_tree):
        counts = fig1_tree.downstream_interface_counts(node_id("A"))
        assert counts == {node_id("C"): 1, node_id("D"): 1}

    def test_contains(self, fig1_tree):
        assert node_id("A") in fig1_tree
        assert node_id("B") not in fig1_tree


class TestPrune:
    def test_prune_leaf_removes_branch(self, fig1_tree):
        removed = fig1_tree.prune(node_id("C"))
        assert removed == [node_id("C")]
        assert not fig1_tree.is_on_tree(node_id("C"))
        check_tree_invariants(fig1_tree)

    def test_prune_cascades_through_relays(self, fig4):
        tree = MulticastTree(fig4, node_id("S"))
        tree.graft([node_id("S"), node_id("A"), node_id("D"), node_id("E")])
        removed = tree.prune(node_id("E"))
        assert removed == [node_id("E"), node_id("D"), node_id("A")]
        assert tree.on_tree_nodes() == [node_id("S")]

    def test_prune_stops_at_shared_relay(self, fig1_tree):
        fig1_tree.prune(node_id("D"))
        # A still serves C.
        assert fig1_tree.is_on_tree(node_id("A"))
        assert fig1_tree.is_member(node_id("C"))

    def test_prune_interior_member_keeps_relaying(self, fig4):
        tree = MulticastTree(fig4, node_id("S"))
        tree.graft([node_id("S"), node_id("A"), node_id("D")])
        tree.graft([node_id("D"), node_id("E")])
        removed = tree.prune(node_id("D"))
        assert removed == []  # D still relays to E
        assert tree.is_on_tree(node_id("D"))
        assert not tree.is_member(node_id("D"))

    def test_prune_non_member_rejected(self, fig1_tree):
        with pytest.raises(MulticastError):
            fig1_tree.prune(node_id("B"))


class TestMoveSubtree:
    def test_move_leaf(self, fig1_tree, fig1):
        # Move D from under A to under C (link C-D exists).
        fig1_tree.move_subtree(node_id("D"), [node_id("C"), node_id("D")])
        assert fig1_tree.parent(node_id("D")) == node_id("C")
        check_tree_invariants(fig1_tree)

    def test_move_carries_subtree(self, fig4):
        tree = MulticastTree(fig4, node_id("S"))
        tree.graft([node_id("S"), node_id("A"), node_id("D"), node_id("E")])
        tree.graft([node_id("S"), node_id("B"), node_id("G")])
        # Move D (with child E) under F via B: B-F link exists.
        tree.move_subtree(node_id("D"), [node_id("B"), node_id("F"), node_id("D")])
        assert tree.parent(node_id("D")) == node_id("F")
        assert tree.parent(node_id("E")) == node_id("D")  # subtree intact
        assert not tree.is_on_tree(node_id("A"))  # dead branch released
        check_tree_invariants(tree)

    def test_move_rejects_merge_inside_subtree(self, fig4):
        tree = MulticastTree(fig4, node_id("S"))
        tree.graft([node_id("S"), node_id("A"), node_id("D"), node_id("E")])
        with pytest.raises(MulticastError):
            tree.move_subtree(node_id("D"), [node_id("E"), node_id("D")])

    def test_move_source_rejected(self, fig1_tree):
        with pytest.raises(MulticastError):
            fig1_tree.move_subtree(node_id("S"), [node_id("A"), node_id("S")])

    def test_move_rejects_on_tree_interior(self, fig1_tree, fig1):
        # Path S -> A -> D has on-tree interior A; the move must go through
        # a fresh path only.
        with pytest.raises(MulticastError):
            fig1_tree.move_subtree(
                node_id("D"), [node_id("S"), node_id("A"), node_id("D")]
            )


class TestTrimDeadBranches:
    def test_trims_every_memberless_relay(self, fig1):
        s, a, b, c, d = (node_id(label) for label in "SABCD")
        tree = MulticastTree(fig1, s)
        tree.graft([s, a, c, d], member=False)
        tree.graft([s, b], member=False)
        tree.add_member(c)
        tree.trim_dead_branches()
        assert set(tree.on_tree_nodes()) == {s, a, c}
        assert tree.children(s) == (a,)
        assert tree.subtree_member_count(s) == 1
        check_tree_invariants(tree)

    def test_memberless_tree_shrinks_to_its_source(self, fig1):
        s, a, c, d = (node_id(label) for label in "SACD")
        tree = MulticastTree(fig1, s)
        tree.graft([s, a, c], member=False)
        tree.graft([a, d], member=False)
        tree.trim_dead_branches()
        assert tree.on_tree_nodes() == [s]
        assert tree.children(s) == ()
        check_tree_invariants(tree)


class TestFailureAnalysis:
    def test_affected_by(self, fig1_tree):
        assert fig1_tree.affected_by(FailureSet.links((0, 1)))
        assert not fig1_tree.affected_by(FailureSet.links((0, 2)))
        assert fig1_tree.affected_by(FailureSet.nodes(node_id("A")))

    def test_surviving_component(self, fig1_tree):
        surviving = fig1_tree.surviving_component(FailureSet.links((1, 4)))
        assert surviving == {node_id("S"), node_id("A"), node_id("C")}

    def test_source_failure_kills_everything(self, fig1_tree):
        assert fig1_tree.surviving_component(FailureSet.nodes(node_id("S"))) == set()

    def test_disconnected_members(self, fig1_tree):
        failure = FailureSet.links((0, 1))  # S-A: both C and D cut off
        assert fig1_tree.disconnected_members(failure) == [
            node_id("C"),
            node_id("D"),
        ]

    def test_copy_independent(self, fig1_tree):
        clone = fig1_tree.copy()
        clone.prune(node_id("C"))
        assert fig1_tree.is_member(node_id("C"))
        assert not clone.is_member(node_id("C"))


def flagged(tree: MulticastTree) -> set:
    """The nodes the tree's on-tree flags mark."""
    csr = tree.topology.csr()
    flags = tree.on_tree_flags(csr)
    return {csr.node_ids[i] for i, flag in enumerate(flags) if flag}


class TestOnTreeFlags:
    def test_flags_follow_every_mutation(self, fig4):
        s, a, b, d, e, f, g = (node_id(label) for label in "SABDEFG")
        tree = MulticastTree(fig4, s)
        tree.graft([s, a, d, e])
        assert flagged(tree) == {s, a, d, e}
        tree.graft([s, b, g])
        tree.move_subtree(d, [b, f, d])  # releases A
        assert flagged(tree) == set(tree.on_tree_nodes()) == {s, b, d, e, f, g}
        tree.add_member(b)
        tree.prune(g)
        tree.prune(e)  # releases E, D, F
        assert flagged(tree) == {s, b}
        tree.graft([b, f], member=False)
        tree.trim_dead_branches()
        assert flagged(tree) == {s, b}
        check_tree_invariants(tree)

    def test_built_once_per_compiled_graph(self, fig1_tree, fig1):
        csr = fig1.csr()
        flags = fig1_tree.on_tree_flags(csr)
        assert fig1_tree.on_tree_flags(csr) is flags
        fig1.add_link(node_id("C"), node_id("B"), delay=1.0)
        rebuilt = fig1_tree.on_tree_flags(fig1.csr())
        assert rebuilt is not flags
        assert flagged(fig1_tree) == {node_id(label) for label in "SACD"}

    def test_grown_topology_drops_them(self, fig1_tree, fig1):
        fig1_tree.on_tree_flags(fig1.csr())
        fig1.add_node(9)
        fig1.add_link(node_id("C"), 9, delay=1.0)
        fig1_tree.graft([node_id("C"), 9])
        check_tree_invariants(fig1_tree)
        assert flagged(fig1_tree) == {node_id(label) for label in "SACD"} | {9}

    def test_copies_start_without_flags(self, fig1_tree, fig1):
        fig1_tree.on_tree_flags(fig1.csr())
        assert fig1_tree.copy()._flags is None
        assert fig1_tree.surviving_subtree(FailureSet.links((1, 4)))._flags is None
