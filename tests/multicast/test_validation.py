"""Tests for tree invariant checking (corruption detection)."""

import pytest

from repro.errors import MulticastError
from repro.graph.generators import node_id
from repro.multicast.tree import MulticastTree
from repro.multicast.validation import check_tree_invariants


@pytest.fixture
def tree(fig1):
    t = MulticastTree(fig1, node_id("S"))
    t.graft([node_id("S"), node_id("A"), node_id("C")])
    t.graft([node_id("A"), node_id("D")])
    return t


class TestInvariantDetection:
    def test_valid_tree_passes(self, tree):
        check_tree_invariants(tree)

    def test_detects_unmirrored_child(self, tree):
        tree._children[node_id("S")] += (node_id("B"),)
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_off_root_chain(self, tree):
        tree._parent[node_id("A")] = node_id("B")
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_cycle(self, tree):
        # Create S -> A -> C and force A's parent to C: cycle A-C.
        tree._parent[node_id("A")] = node_id("C")
        tree._children[node_id("C")] += (node_id("A"),)
        tree._children[node_id("S")] = ()
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_phantom_link(self, tree):
        # Re-parent D under S although the topology has no S-D link.
        tree._children[node_id("A")] = (node_id("C"),)
        tree._parent[node_id("D")] = node_id("S")
        tree._children[node_id("S")] += (node_id("D"),)
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_off_tree_member(self, tree):
        tree._members.add(node_id("B"))
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_dead_branch(self, tree):
        tree._members.discard(node_id("C"))
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_source_with_parent(self, tree):
        tree._parent[node_id("S")] = node_id("A")
        with pytest.raises(MulticastError):
            check_tree_invariants(tree)

    def test_detects_stale_member_count(self, tree):
        tree._count[node_id("A")] += 1
        with pytest.raises(MulticastError, match="N_R"):
            check_tree_invariants(tree)

    def test_detects_stale_subtree_size(self, tree):
        tree._size[node_id("A")] -= 1
        with pytest.raises(MulticastError, match="subtree size"):
            check_tree_invariants(tree)

    def test_detects_unsorted_children(self, tree):
        tree._children[node_id("A")] = (node_id("D"), node_id("C"))
        with pytest.raises(MulticastError, match="sorted"):
            check_tree_invariants(tree)

    def test_detects_stale_on_tree_flag(self, tree):
        csr = tree.topology.csr()
        flags = tree.on_tree_flags(csr)
        check_tree_invariants(tree)
        flags[csr.index_of[node_id("B")]] = 1
        with pytest.raises(MulticastError, match="on-tree flags"):
            check_tree_invariants(tree)
