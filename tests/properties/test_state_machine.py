"""Stateful property test: the maintained SMRP state equals the walk oracles.

A hypothesis state machine drives one SMRP session through joins,
leaves, Condition-II reshaping, and repairs of one failed tree link (each
followed by the state's ``rebind`` to the repaired tree), in both state
maintenance modes.  After every step it compares what the tree and the
:class:`~repro.core.state.StateManager` maintain incrementally — ``N_R``,
the sorted children, the on-tree flags, the SHR table, link utilisation,
the adjusted SHR of a drawn mover, and every node's Condition-I delta —
with the whole-tree walks of :mod:`tests.core.shr_reference`.

A twin session replays every step on
:class:`~tests.core.shr_reference.FullScanState`, which re-derives the
whole SHR table after each change and checks every member for
Condition I.  Both sessions must keep the same tree, the same protocol
statistics and the same message counters, and every leave must report
the outcome read off the pre-leave parent map.  The machine runs once more
with the reshape cascade capped at one round, so that cascades are cut
short and the full rescan after them runs.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import protocol as protocol_module
from repro.core.leave import LeaveOutcome
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
    FullScanState,
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


def leave_reference(tree, member) -> LeaveOutcome:
    """The outcome of ``member``'s leave, read off the pre-leave tree's
    parent map: release upward while a node serves nobody else."""
    parent_of = {node: tree.parent(node) for node in tree.on_tree_nodes()}
    kids = {node: set(tree.children(node)) for node in parent_of}
    others = set(tree.members) - {member}
    released = []
    cursor = member
    while cursor != tree.source and not kids[cursor] and cursor not in others:
        released.append(cursor)
        kids[parent_of[cursor]].discard(cursor)
        cursor = parent_of[cursor]
    return LeaveOutcome(
        member=member,
        released_nodes=tuple(released),
        stopped_at=parent_of[released[-1]] if released else member,
        hops_travelled=len(released),
    )


def join_each(proto, nodes) -> list:
    """Join every node not yet a member; the outcome of each attempt."""
    outcomes = []
    for node in nodes:
        if not proto.tree.is_member(node):
            try:
                proto.join(node)
                outcomes.append(node)
            except JoinRejectedError:
                outcomes.append(None)
    return outcomes


class SmrpStateMachine(RuleBasedStateMachine):
    @initialize(
        mode=st.sampled_from(["eager", "deferred"]),
        seed=st.integers(0, 80),
        d_thresh=st.sampled_from([0.2, 0.4, 1.0]),
        threshold=st.sampled_from([2, 2, 1, 0]),
        nodes=joiners,
    )
    def open_session(self, mode, seed, d_thresh, threshold, nodes):
        topology = waxman_topology(
            WaxmanConfig(n=N, alpha=0.5, beta=0.4, seed=seed)
        ).topology
        config = SMRPConfig(
            d_thresh=d_thresh, state_mode=mode, reshape_shr_threshold=threshold
        )
        self.proto = SMRPProtocol(topology, 0, config=config)
        self.proto.state = ShadowedState(self.proto.tree, mode)
        self.twin = SMRPProtocol(topology, 0, config=config)
        self.twin.state = FullScanState(self.twin.tree, mode)
        self.join(nodes, 0)

    @rule(nodes=joiners, pick=picks)
    def join(self, nodes, pick):
        self.pick = pick
        assert join_each(self.proto, nodes) == join_each(self.twin, nodes)

    @precondition(lambda self: self.proto.tree.members)
    @rule(index=picks, pick=picks)
    def leave(self, index, pick):
        self.pick = pick
        members = sorted(self.proto.tree.members)
        member = members[index % len(members)]
        expected = leave_reference(self.proto.tree, member)
        assert self.proto.leave(member) == expected
        assert self.twin.leave(member) == expected

    @rule(pick=picks)
    def periodic_reshape(self, pick):
        self.pick = pick
        assert self.proto.periodic_reshape() == self.twin.periodic_reshape()

    @precondition(lambda self: len(self.proto.tree) > 1)
    @rule(index=picks, pick=picks)
    def repair(self, index, pick):
        self.pick = pick
        links = sorted(self.proto.tree.tree_links())
        failure = FailureSet.links(links[index % len(links)])
        self.proto.repair(failure)
        self.twin.repair(failure)

    @invariant()
    def twin_session_agrees(self):
        tree, twin = self.proto.tree, self.twin.tree
        assert tree.tree_links() == twin.tree_links()
        assert tree.members == twin.members
        assert self.proto.stats == self.twin.stats
        assert self.proto.state.counters == self.twin.state.counters

    @invariant()
    def maintained_state_matches_the_walks(self):
        tree = self.proto.tree
        state = self.proto.state
        assert state.tree is tree
        tree.on_tree_flags(tree.topology.csr())  # checked from here on
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


def test_cascades_cut_at_one_round(monkeypatch):
    """With one reshape round per change, cascades stop while members may
    still be above the threshold; the next change's scan must find them."""
    rescans = []
    rescan_all = StateManager.rescan_all

    def counted(self):
        rescans.append(self)
        rescan_all(self)

    monkeypatch.setattr(protocol_module, "MAX_RESHAPE_ROUNDS", 1)
    monkeypatch.setattr(StateManager, "rescan_all", counted)
    run_state_machine_as_test(
        SmrpStateMachine,
        settings=settings(max_examples=40, stateful_step_count=25, deadline=None),
    )
    assert rescans
