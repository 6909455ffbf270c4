"""Stateful property test: the maintained SMRP state equals the walk oracles.

A hypothesis state machine drives one SMRP session through joins,
leaves, Condition-II reshaping, and repairs of one failed tree link (each
followed by the state's ``rebind`` to the repaired tree), in both state
maintenance modes.  After every step it compares what the tree and the
:class:`~repro.core.state.StateManager` maintain incrementally — ``N_R``,
the sorted children, the SHR table, link utilisation, the adjusted SHR
of a drawn mover, and every node's Condition-I delta — with the
whole-tree walks of :mod:`tests.core.shr_reference`.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import (
    adjusted_shr_table,
    link_utilisation,
    shr_table,
    subtree_member_counts,
)
from repro.core.state import StateManager
from repro.errors import JoinRejectedError
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet
from tests.core.shr_reference import (
    ReferenceState,
    adjusted_shr_table_reference,
    children_reference,
    link_utilisation_reference,
    member_counts_reference,
    shr_table_reference,
)

N = 20
picks = st.integers(min_value=0, max_value=10**6)
joiners = st.lists(st.integers(1, N - 1), min_size=1, max_size=6)


class ShadowedState(StateManager):
    """A StateManager that also replays every notification into the
    rebuild-after-every-change reference."""

    def __init__(self, tree, mode):
        self.reference = ReferenceState(tree)
        super().__init__(tree, mode=mode)

    def rebind(self, tree):
        super().rebind(tree)
        self.reference.rebind(tree)

    def notify_graft(self, graft_path):
        super().notify_graft(graft_path)
        self.reference.rebuild()

    def notify_prune(self, pruned_from):
        super().notify_prune(pruned_from)
        self.reference.rebuild()

    def notify_move(self, mover):
        super().notify_move(mover)
        self.reference.rebuild()

    def record_reshape_baseline(self, node):
        super().record_reshape_baseline(node)
        self.reference.record(node)


class SmrpStateMachine(RuleBasedStateMachine):
    @initialize(
        mode=st.sampled_from(["eager", "deferred"]),
        seed=st.integers(0, 80),
        d_thresh=st.sampled_from([0.2, 0.4, 1.0]),
        nodes=joiners,
    )
    def open_session(self, mode, seed, d_thresh, nodes):
        topology = waxman_topology(
            WaxmanConfig(n=N, alpha=0.5, beta=0.4, seed=seed)
        ).topology
        self.proto = SMRPProtocol(
            topology, 0, config=SMRPConfig(d_thresh=d_thresh, state_mode=mode)
        )
        self.proto.state = ShadowedState(self.proto.tree, mode)
        self.join(nodes, 0)

    @rule(nodes=joiners, pick=picks)
    def join(self, nodes, pick):
        self.pick = pick
        for node in nodes:
            if not self.proto.tree.is_member(node):
                try:
                    self.proto.join(node)
                except JoinRejectedError:
                    pass

    @precondition(lambda self: self.proto.tree.members)
    @rule(index=picks, pick=picks)
    def leave(self, index, pick):
        self.pick = pick
        members = sorted(self.proto.tree.members)
        self.proto.leave(members[index % len(members)])

    @rule(pick=picks)
    def periodic_reshape(self, pick):
        self.pick = pick
        self.proto.periodic_reshape()

    @precondition(lambda self: len(self.proto.tree) > 1)
    @rule(index=picks, pick=picks)
    def repair(self, index, pick):
        self.pick = pick
        links = sorted(self.proto.tree.tree_links())
        self.proto.repair(FailureSet.links(links[index % len(links)]))

    @invariant()
    def maintained_state_matches_the_walks(self):
        tree = self.proto.tree
        state = self.proto.state
        assert state.tree is tree
        check_tree_invariants(tree)
        kids = children_reference(tree)
        for node in tree.on_tree_nodes():
            assert tree.children(node) == tuple(kids[node])
        counts = member_counts_reference(tree)
        assert subtree_member_counts(tree) == counts
        for node in tree.on_tree_nodes():
            assert tree.subtree_member_count(node) == counts[node]
            assert tree.subtree_size(node) == len(tree.subtree_nodes(node))
        shr = shr_table_reference(tree)
        assert shr_table(tree) == shr
        assert state.shr_snapshot() == shr
        assert link_utilisation(tree) == link_utilisation_reference(tree)
        movers = [node for node in tree.on_tree_nodes() if node != tree.source]
        if movers:
            mover = movers[self.pick % len(movers)]
            assert adjusted_shr_table(tree, mover) == adjusted_shr_table_reference(
                tree, mover
            )
        for node in tree.on_tree_nodes():
            assert state.condition_i_delta(node) == state.reference.condition_i_delta(
                node
            ), node


TestSmrpStateMachine = SmrpStateMachine.TestCase
TestSmrpStateMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
