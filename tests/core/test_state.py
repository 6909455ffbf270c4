"""Tests for distributed SMRP state maintenance and message accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotOnTreeError
from repro.graph.generators import node_id
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.tree import MulticastTree
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import shr_table, subtree_member_counts
from repro.core.state import StateManager


@pytest.fixture
def tree(fig4):
    t = MulticastTree(fig4, node_id("S"))
    t.graft([node_id("S"), node_id("A"), node_id("D"), node_id("E")])
    return t


class TestConsistency:
    def test_initial_state_matches_tree(self, tree):
        manager = StateManager(tree)
        counts = subtree_member_counts(tree)
        shr = shr_table(tree)
        for node in tree.on_tree_nodes():
            state = manager.state_of(node)
            assert state.n_r == counts[node]
            assert state.shr == shr[node]
            assert state.consistent()

    def test_interface_counts(self, tree):
        tree.graft([node_id("D"), node_id("F")])
        manager = StateManager(tree)
        state = manager.state_of(node_id("D"))
        assert state.n_per_interface == {node_id("E"): 1, node_id("F"): 1}

    def test_off_tree_query_rejected(self, tree):
        manager = StateManager(tree)
        with pytest.raises(NotOnTreeError):
            manager.shr(node_id("B"))

    def test_invalid_mode_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            StateManager(tree, mode="psychic")

    def test_state_follows_graft_and_prune(self, tree):
        manager = StateManager(tree)
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.shr(node_id("D")) == 4
        tree.prune(node_id("F"))
        manager.notify_prune(node_id("D"))
        assert manager.shr(node_id("D")) == 2


class TestConditionI:
    def test_delta_tracks_upstream_growth(self, tree):
        manager = StateManager(tree)
        assert manager.condition_i_delta(node_id("E")) == 0
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        # E's upstream D went from SHR 2 to 4.
        assert manager.condition_i_delta(node_id("E")) == 2

    def test_baseline_reset(self, tree):
        manager = StateManager(tree)
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        manager.record_reshape_baseline(node_id("E"))
        assert manager.condition_i_delta(node_id("E")) == 0

    def test_source_has_no_delta(self, tree):
        manager = StateManager(tree)
        assert manager.condition_i_delta(node_id("S")) == 0


class TestMessageAccounting:
    def test_eager_charges_pushes(self, tree):
        manager = StateManager(tree, mode="eager")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.counters.n_updates > 0
        assert manager.counters.shr_pushes > 0
        assert manager.counters.shr_pulls == 0

    def test_deferred_charges_pulls_on_demand(self, tree):
        manager = StateManager(tree, mode="deferred")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.counters.shr_pushes == 0
        pulls_before = manager.counters.shr_pulls
        _ = manager.shr(node_id("E"))
        assert manager.counters.shr_pulls > pulls_before

    def test_deferred_values_still_correct(self, tree):
        manager = StateManager(tree, mode="deferred")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.shr_snapshot() == shr_table(tree)

    def test_deferred_cheaper_under_rare_queries(self, tree):
        """§3.3.2's point: amortizing SHR maintenance into joins wins when
        queries are rarer than membership changes."""
        eager = StateManager(tree, mode="eager")
        deferred = StateManager(tree.copy(), mode="deferred")
        # Several membership changes, zero queries.
        for manager in (eager, deferred):
            t = manager.tree
            t.graft([node_id("D"), node_id("F")])
            manager.notify_graft([node_id("D"), node_id("F")])
            t.prune(node_id("F"))
            manager.notify_prune(node_id("D"))
        assert deferred.counters.total < eager.counters.total


class TestPinnedCounters:
    """The eager-vs-deferred overhead ablation's workload (N=100, 30
    members joined, every other one leaving again): its message counts
    are part of the paper's §3.3.2 comparison, so they are pinned."""

    @pytest.mark.parametrize(
        "mode, expected", [("eager", (121, 525, 0)), ("deferred", (121, 0, 154))]
    )
    def test_ablation_workload_counters(self, mode, expected):
        topology = waxman_topology(
            WaxmanConfig(n=100, alpha=0.2, beta=0.25, seed=0)
        ).topology
        rng = np.random.default_rng(1)
        members = [int(m) for m in rng.choice(range(1, 100), 30, replace=False)]
        proto = SMRPProtocol(
            topology, 0, config=SMRPConfig(state_mode=mode, self_check=False)
        )
        proto.build(members)
        for member in members[::2]:
            proto.leave(member)
        counters = proto.state.counters
        assert (
            counters.n_updates, counters.shr_pushes, counters.shr_pulls
        ) == expected


class TestModesAgree:
    """Eager and deferred maintenance differ only in message accounting."""

    @pytest.mark.parametrize("mode", ["eager", "deferred"])
    def test_new_branch_starts_from_its_upstream_shr(self, fig4, mode):
        tree = MulticastTree(fig4, node_id("S"))
        manager = StateManager(tree, mode=mode)
        path = [node_id(label) for label in "SADE"]
        tree.graft(path)
        manager.notify_graft(path)
        assert manager.condition_i_delta(node_id("E")) == 0

    @pytest.mark.parametrize("seed", [24])
    def test_same_trees_and_reshapes_in_both_modes(self, seed):
        topology = waxman_topology(
            WaxmanConfig(n=60, alpha=0.25, beta=0.25, seed=seed)
        ).topology
        rng = np.random.default_rng(seed + 1)
        members = [int(m) for m in rng.choice(range(1, 60), 15, replace=False)]
        outcome = {}
        for mode in ("eager", "deferred"):
            proto = SMRPProtocol(topology, 0, config=SMRPConfig(state_mode=mode))
            proto.build(members)
            for member in members[::3]:
                proto.leave(member)
            outcome[mode] = (
                sorted(proto.tree.tree_links()),
                proto.stats.reshape_evaluations,
                proto.stats.reshapes_performed,
                proto.state.counters.n_updates,
            )
        assert outcome["deferred"] == outcome["eager"]
