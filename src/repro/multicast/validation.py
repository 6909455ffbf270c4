"""Multicast tree invariant checking.

Used by tests (including hypothesis property tests) and as an optional
self-check in the protocols after every mutation.  Checking is centralised
here so that the invariants are stated once:

1. every on-tree node reaches the source through the parent chain
   (rooted, acyclic, connected);
2. parent/children maps mirror each other exactly;
3. every tree link exists in the topology;
4. every member is an on-tree node;
5. every leaf is a member (no dead branches — the leave procedure must
   have trimmed them);
6. the state the tree maintains matches a fresh bottom-up walk: each
   node's children form a sorted tuple, its ``N_R`` equals its own
   membership plus its children's counts, and its subtree size equals
   one plus its children's sizes;
7. the on-tree flags, once a search had the tree build them, flag
   exactly the on-tree nodes.
"""

from __future__ import annotations

from repro.errors import MulticastError
from repro.multicast.tree import MulticastTree


def check_tree_invariants(tree: MulticastTree) -> None:
    """Raise :class:`MulticastError` when any tree invariant is violated."""
    parent = tree._parent  # noqa: SLF001 — validation is a friend module.
    children = tree._children  # noqa: SLF001
    members = tree.members

    if tree.source not in parent or parent[tree.source] is not None:
        raise MulticastError("source must be on the tree with no parent")
    if set(parent) != set(children):
        raise MulticastError("parent and children maps cover different node sets")

    # Mirror check.
    for node, kids in children.items():
        for child in kids:
            if parent.get(child) != node:
                raise MulticastError(
                    f"child link {node}->{child} not mirrored in parent map"
                )
    for node, up in parent.items():
        if up is not None and node not in children.get(up, ()):
            raise MulticastError(f"parent link {node}->{up} not mirrored in children")

    # Rooted/acyclic: every node must reach the source within |tree| hops.
    limit = len(parent)
    for node in parent:
        cursor = node
        for _ in range(limit + 1):
            if cursor == tree.source:
                break
            cursor = parent[cursor]
            if cursor is None:
                raise MulticastError(f"node {node} has a parent chain ending off-root")
        else:
            raise MulticastError(f"cycle detected in parent chain of node {node}")

    # Embedding: tree links must exist in the topology.
    for node, up in parent.items():
        if up is not None and not tree.topology.has_link(node, up):
            raise MulticastError(f"tree link {node}-{up} is not in the topology")

    # Membership.
    for member in members:
        if member not in parent:
            raise MulticastError(f"member {member} is not on the tree")

    # No dead branches.
    for node, kids in children.items():
        if not kids and node not in members and node != tree.source:
            raise MulticastError(f"leaf {node} is neither a member nor the source")

    # Maintained state, in one bottom-up pass (leaves before parents).
    counts = tree._count  # noqa: SLF001
    sizes = tree._size  # noqa: SLF001
    if set(counts) != set(parent):
        raise MulticastError("N_R map covers a different node set than the tree")
    if set(sizes) != set(parent):
        raise MulticastError("subtree-size map covers a different node set than the tree")
    order = [tree.source]
    for node in order:
        order.extend(children[node])
    fresh: dict = {}
    fresh_size: dict = {}
    for node in reversed(order):
        kids = children[node]
        if type(kids) is not tuple or kids != tuple(sorted(set(kids))):
            raise MulticastError(f"children of {node} are not a sorted tuple: {kids}")
        fresh[node] = (node in members) + sum(fresh[child] for child in kids)
        if counts[node] != fresh[node]:
            raise MulticastError(
                f"maintained N_R of {node} is {counts[node]}, a walk counts "
                f"{fresh[node]}"
            )
        fresh_size[node] = 1 + sum(fresh_size[child] for child in kids)
        if sizes[node] != fresh_size[node]:
            raise MulticastError(
                f"maintained subtree size of {node} is {sizes[node]}, a walk "
                f"counts {fresh_size[node]}"
            )

    flags = tree._flags  # noqa: SLF001
    if flags is not None:
        index_of = tree._flags_csr.index_of  # noqa: SLF001
        fresh_flags = bytearray(len(flags))
        for node in parent:
            fresh_flags[index_of[node]] = 1
        if flags != fresh_flags:
            raise MulticastError("maintained on-tree flags differ from the on-tree set")
