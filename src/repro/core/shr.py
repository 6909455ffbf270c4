"""The SHR sharing metric (paper §3.1 and §3.2.1).

``SHR_{S,R}`` measures how heavily the on-tree path from the source ``S``
to node ``R`` is shared by other members.  Equation (1) defines it over
links:

.. math::

    SHR_{S,R} = \\sum_{L_{i,j} \\subset P_T(S,R)} N_{L_{i,j}}

where ``N_L`` is the number of members whose on-tree path uses link ``L``.
Because every member below ``R`` reaches the source over ``R``'s upstream
link, ``N_{L_{R,R_u}} = N_R``, which yields the incremental form of
Equation (2):

.. math::

    SHR_{S,R} = SHR_{S,R_u} + N_R

Both forms are implemented over the ``N_R`` counts the tree maintains
(:meth:`~repro.multicast.tree.MulticastTree.subtree_member_count`), so
neither walks the tree bottom-up: Eq. (1) sums counts along one path and
Eq. (2) is one top-down pass, over the whole tree or over the one
top-level branch a change touched (:func:`shr_refresh`).  Property tests
check both, and the maintained counts themselves, against the whole-tree
walks kept in ``tests/core/shr_reference.py`` (this agreement is exactly
the identity the distributed protocol relies on to maintain SHR with
only neighbor message exchange).
"""

from __future__ import annotations

from repro.errors import NotOnTreeError
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree


def shr_direct(tree: MulticastTree, node: NodeId) -> int:
    """``SHR_{S,node}`` via Equation (1): sum link utilisations on the path.

    ``N_L`` for a tree link equals the member count of the subtree hanging
    below the link (its child-side endpoint).
    """
    path = tree.path_from_source(node)
    total = 0
    for child in path[1:]:
        # The link (parent(child), child) carries every member below child.
        total += tree.subtree_member_count(child)
    return total


def shr_incremental(tree: MulticastTree) -> dict[NodeId, int]:
    """``SHR`` for every on-tree node via Equation (2), in one traversal.

    ``SHR_{S,S} = 0``; each node adds its own subtree member count to its
    upstream node's value.  This mirrors the neighbor-to-neighbor exchange
    of the distributed protocol (each node learns ``SHR_{S,R_u}`` from its
    parent and adds its locally known ``N_R``).
    """
    return shr_refresh(tree, {}, tree.source)


def shr_refresh(
    tree: MulticastTree, table: dict[NodeId, int], top: NodeId
) -> dict[NodeId, int]:
    """Equation (2) over ``top``'s subtree only, written into ``table``.

    The same top-down pass as :func:`shr_incremental`, started at
    ``top`` from its upstream's value in ``table`` (which must be
    current).  Since ``SHR_{S,R}`` sums ``N`` along ``P_T(S, R)``, the
    source excluded, a change to the counts of one top-level branch
    moves SHR only inside that branch, and refreshing it there keeps the
    whole table current.  Returns ``table``.
    """
    count = tree.subtree_member_count
    children = tree.children_map()
    upstream = tree.parent(top)
    table[top] = 0 if upstream is None else table[upstream] + count(top)
    stack = [top]
    push = stack.append
    while stack:
        node = stack.pop()
        above = table[node]
        for child in children[node]:
            table[child] = above + count(child)
            push(child)
    return table


def subtree_member_counts(tree: MulticastTree) -> dict[NodeId, int]:
    """``N_R`` for every on-tree node (the counts the tree maintains)."""
    return tree.member_counts()


def shr_table(tree: MulticastTree) -> dict[NodeId, int]:
    """``SHR_{S,R}`` for every on-tree node (Equation (2), one traversal)."""
    return shr_incremental(tree)


def link_utilisation(tree: MulticastTree) -> dict[tuple[NodeId, NodeId], int]:
    """``N_L`` for every tree link (canonical edge → member count below it)."""
    counts_by_node = tree.member_counts()
    utilisation = {}
    for node in tree.on_tree_nodes():
        parent = tree.parent(node)
        if parent is None:
            continue
        a, b = (node, parent) if node <= parent else (parent, node)
        utilisation[(a, b)] = counts_by_node[node]
    return utilisation


def adjusted_shr_table(tree: MulticastTree, mover: NodeId) -> dict[NodeId, int]:
    """:func:`shr_excluding_subtree` for *every* on-tree node, in one pass.

    Reshape evaluation (§3.2.3) needs the adjusted SHR of each potential
    merge point; calling :func:`shr_excluding_subtree` per node repeats
    the path walk and subtree count for every candidate — quadratic per
    evaluation, and the dominant cost of a reshaping build.  One traversal
    suffices: SHR follows the Equation (2) recurrence, and the overlap
    between a node's on-tree path and the mover's is itself incremental
    (``overlap(child) = overlap(node) + [child on mover's path]``), so

    ``adjusted(R) = SHR_{S,R} − N_mover × overlap(R)``

    is computed top-down in linear time.  Values agree exactly with the
    per-node form (a property test pins this); the mover's own subtree is
    included in the result — callers exclude it, as they already must.
    """
    if not tree.is_on_tree(mover):
        raise NotOnTreeError(mover)
    counts = tree.member_counts()
    moving_members = counts[mover]
    mover_path = set(tree.path_from_source(mover)[1:])  # exclude S
    children = tree.children_map()
    adjusted: dict[NodeId, int] = {tree.source: 0}
    # Depth-first, carrying each node's SHR and overlap on the stack.
    stack = [(tree.source, 0, 0)]
    push = stack.append
    while stack:
        node, shr, overlap = stack.pop()
        for child in children[node]:
            child_shr = shr + counts[child]
            child_overlap = overlap + (1 if child in mover_path else 0)
            adjusted[child] = child_shr - moving_members * child_overlap
            push((child, child_shr, child_overlap))
    return adjusted


def shr_excluding_subtree(
    tree: MulticastTree, merge_node: NodeId, mover: NodeId
) -> int:
    """``SHR_{S,merge_node}`` as if ``mover``'s subtree had already left.

    Used by tree reshaping (§3.2.3): "since the current path still exists
    when the new path is located, the value of SHR may be inaccurate and
    should be adjusted before the path comparison is made."  Every member
    in ``mover``'s subtree contributes 1 to ``N_{R'}`` for each node ``R'``
    on the path ``S → mover``; those contributions are subtracted from the
    candidate merge node's SHR wherever the two paths overlap.
    """
    if not tree.is_on_tree(merge_node):
        raise NotOnTreeError(merge_node)
    if not tree.is_on_tree(mover):
        raise NotOnTreeError(mover)
    moving_members = tree.subtree_member_count(mover)
    mover_path = set(tree.path_from_source(mover)[1:])  # exclude S
    merge_path = tree.path_from_source(merge_node)[1:]
    overlap = sum(1 for node in merge_path if node in mover_path)
    raw = shr_direct(tree, merge_node)
    return raw - moving_members * overlap
