"""Tests for local/global detour recovery (paper §4.3.1 and Figure 1)."""

import pytest

from repro.errors import RecoveryError, UnrecoverableFailureError
from repro.graph.generators import node_id
from repro.multicast.tree import MulticastTree
from repro.multicast.validation import check_tree_invariants
from repro.core.recovery import (
    estimate_restoration_latency,
    global_detour_recovery,
    local_detour_recovery,
    repair_tree,
    worst_case_failure,
)
from repro.routing.failure_view import FailureSet
from repro.routing.link_state import ConvergenceModel


@pytest.fixture
def fig1_tree(fig1):
    """Figure 1(a): SPF tree S-A-{C,D}, members C and D."""
    tree = MulticastTree(fig1, node_id("S"))
    tree.graft([node_id("S"), node_id("A"), node_id("C")])
    tree.graft([node_id("A"), node_id("D")])
    return tree


class TestFigure1Economics:
    """The motivating example: RD_local = 2 beats RD_global = 3."""

    def test_local_detour_via_c(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("A"), node_id("D")))
        result = local_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        assert result.attach_node == node_id("C")
        assert result.restoration_path == (node_id("D"), node_id("C"))
        assert result.recovery_distance == 2.0  # the paper's RD_D = 2
        # End-to-end delay grows to 4 (S-A-C-D) — the accepted trade.
        assert result.new_end_to_end_delay == 4.0

    def test_global_detour_via_b(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("A"), node_id("D")))
        result = global_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        assert result.attach_node == node_id("S")
        assert result.restoration_path == (node_id("D"), node_id("B"), node_id("S"))
        assert result.recovery_distance == 3.0
        assert result.new_end_to_end_delay == 3.0

    def test_local_never_longer_than_global_same_tree(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("A"), node_id("D")))
        local = local_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        global_ = global_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        assert local.recovery_distance <= global_.recovery_distance


class TestWorstCaseFailure:
    def test_fails_source_incident_link(self, fig1_tree):
        failure = worst_case_failure(fig1_tree, node_id("D"))
        assert failure.link_failed(node_id("S"), node_id("A"))

    def test_source_member_rejected(self, fig1_tree):
        with pytest.raises(RecoveryError):
            worst_case_failure(fig1_tree, node_id("S"))


class TestEdgeCases:
    def test_member_still_connected(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("A"), node_id("D")))
        result = local_detour_recovery(fig1, fig1_tree, node_id("C"), failure)
        assert result.already_connected
        assert result.recovery_distance == 0.0

    def test_source_failure_unrecoverable(self, fig1, fig1_tree):
        with pytest.raises(UnrecoverableFailureError):
            local_detour_recovery(
                fig1, fig1_tree, node_id("D"), FailureSet.nodes(node_id("S"))
            )

    def test_isolated_member_unrecoverable(self, line4):
        tree = MulticastTree(line4, 0)
        tree.graft([0, 1, 2, 3])
        failure = FailureSet.links((1, 2))
        with pytest.raises(UnrecoverableFailureError):
            local_detour_recovery(line4, tree, 3, failure)
        with pytest.raises(UnrecoverableFailureError):
            global_detour_recovery(line4, tree, 3, failure)

    def test_restoration_avoids_failed_components(self, grid5):
        tree = MulticastTree(grid5, 0)
        tree.graft([0, 1, 2, 3])  # top row
        tree.graft([3, 4])
        failure = FailureSet.links((0, 1)).union(FailureSet.nodes(6))
        result = local_detour_recovery(grid5, tree, 4, failure)
        assert not failure.path_affected(result.restoration_path)


class TestLatencyModel:
    def test_local_beats_global_latency(self, fig1, fig1_tree):
        """The paper's core claim: no re-convergence wait for local detours."""
        failure = FailureSet.links((node_id("A"), node_id("D")))
        model = ConvergenceModel(detection_delay=30.0)
        local = local_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        global_ = global_detour_recovery(fig1, fig1_tree, node_id("D"), failure)
        t_local = estimate_restoration_latency(
            fig1, fig1_tree, local, failure, convergence=model
        )
        t_global = estimate_restoration_latency(
            fig1, fig1_tree, global_, failure, convergence=model
        )
        assert t_local < t_global


class TestRepairTree:
    def test_repairs_all_members(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("S"), node_id("A")))
        report = repair_tree(fig1, fig1_tree, failure, strategy="local")
        repaired = report.repaired_tree
        check_tree_invariants(repaired)
        assert repaired.members == fig1_tree.members
        assert not report.unrecoverable
        # Both members reconnected and no failed link is used.
        for u, v in repaired.tree_links():
            assert failure.link_usable(u, v)

    def test_local_repair_compounds(self, fig1, fig1_tree):
        """The first recovered member becomes an attachment for the next."""
        failure = FailureSet.links((node_id("S"), node_id("A")))
        report = repair_tree(fig1, fig1_tree, failure, strategy="local")
        # C reconnects via D after D (or vice versa) reaches the source:
        # total new-link distance is bounded by sequential detours.
        assert len(report.recoveries) == 2
        assert report.total_recovery_distance > 0

    def test_global_repair(self, fig1, fig1_tree):
        failure = FailureSet.links((node_id("S"), node_id("A")))
        report = repair_tree(fig1, fig1_tree, failure, strategy="global")
        check_tree_invariants(report.repaired_tree)
        assert report.repaired_tree.members == fig1_tree.members

    def test_unknown_strategy_rejected(self, fig1, fig1_tree):
        with pytest.raises(RecoveryError):
            repair_tree(fig1, fig1_tree, FailureSet.links((0, 1)), strategy="magic")

    def test_unrecoverable_member_reported(self, line4):
        tree = MulticastTree(line4, 0)
        tree.graft([0, 1, 2, 3])
        report = repair_tree(line4, tree, FailureSet.links((1, 2)))
        assert report.unrecoverable == [3]

    def test_failed_member_node_dropped(self, fig1, fig1_tree):
        failure = FailureSet.nodes(node_id("D"))
        report = repair_tree(fig1, fig1_tree, failure)
        assert node_id("D") in report.unrecoverable
        assert node_id("C") in report.repaired_tree.members


class TestRepairMemoization:
    """The O(k) search bound: one post-failure search per pending member.

    The old loop recomputed every pending member's SPF every round —
    O(k²) runs for k disconnected members.  ``repair_tree`` opens one
    resumable search per member for the whole repair (the
    ``(topology, member, failures)`` triple is invariant while the tree
    grows) and resumes it each round, so ``recovery.repair.spf_runs`` is
    bounded by k — with results identical to the naive per-round full
    SPF recomputation kept in ``recovery_reference``.
    """

    def _session(self, waxman50):
        """A multi-member SPF session whose worst-case failure strands
        several members at once (multiple nearest-first rounds)."""
        from repro.multicast.spf_protocol import SPFMulticastProtocol

        import numpy as np

        nodes = sorted(waxman50.nodes())
        source = nodes[0]
        rng = np.random.default_rng(7)
        members = [
            int(m) for m in rng.choice(nodes[1:], size=12, replace=False)
        ]
        tree = SPFMulticastProtocol(waxman50, source, self_check=False).build(
            members
        )
        failure = worst_case_failure(tree, members[0])
        return tree, failure

    @staticmethod
    def _digest(report):
        return (
            report.strategy,
            report.recoveries,
            sorted(report.unrecoverable),
            sorted(report.new_links),
            sorted(report.repaired_tree.tree_links()),
            report.repaired_tree.members,
        )

    @pytest.mark.parametrize("strategy", ["local", "global"])
    def test_report_identical_to_naive_per_round_recomputation(
        self, waxman50, strategy
    ):
        from tests.core import recovery_reference

        tree, failure = self._session(waxman50)
        memoized = repair_tree(waxman50, tree, failure, strategy=strategy)
        naive = recovery_reference.repair(waxman50, tree, failure, strategy=strategy)
        assert self._digest(memoized) == self._digest(naive)
        assert recovery_reference.report_digest(
            memoized
        ) == recovery_reference.report_digest(naive)

    def test_spf_runs_bounded_by_pending_members(self, waxman50):
        from repro.obs import Observability

        tree, failure = self._session(waxman50)
        pending = [
            m
            for m in tree.disconnected_members(failure)
            if not failure.node_failed(m)
        ]
        assert len(pending) >= 3  # multiple rounds, or the bound is trivial
        obs = Observability()
        report = repair_tree(waxman50, tree, failure, obs=obs)
        counters = obs.metrics.counters("recovery")
        assert counters["recovery.repair.spf_runs"] <= len(pending)
        assert len(report.recoveries) + len(report.unrecoverable) == len(pending)

    def test_attempt_counters_unchanged_by_memoization(self, waxman50):
        # The repair must not leak the caller's obs into the per-member
        # detours: recovery.*.attempts counts stay exactly as before the
        # optimisation (zero from inside repair_tree).
        from repro.obs import Observability

        tree, failure = self._session(waxman50)
        obs = Observability()
        repair_tree(waxman50, tree, failure, obs=obs)
        counters = obs.metrics.counters("recovery")
        assert "recovery.local.attempts" not in counters
        assert "recovery.global.attempts" not in counters

    def test_external_route_cache_composes_with_the_memo(self, waxman50):
        # A route cache under the repair: same report, one search opened
        # per pending member either way, and a second repair under the
        # same failure resumes the cached searches instead of opening new
        # ones (every lookup is a hit).
        from repro.obs import Observability
        from repro.routing.route_cache import RouteCache
        from repro.routing.spf import PathSearch

        tree, failure = self._session(waxman50)
        plain_obs = Observability()
        plain = repair_tree(waxman50, tree, failure, obs=plain_obs)
        runs = plain_obs.metrics.counters("recovery")["recovery.repair.spf_runs"]
        cache = RouteCache()
        route_obs = Observability()
        cached = repair_tree(
            waxman50, tree, failure, route_cache=cache, route_obs=route_obs
        )
        assert self._digest(plain) == self._digest(cached)
        first = route_obs.metrics.counters("cache.routes")
        assert first.get("cache.routes.misses", 0) == runs
        assert "cache.routes.hits" not in first
        searches = [
            cache.search(waxman50, member, failures=failure)
            for member in tree.disconnected_members(failure)
        ]
        assert all(isinstance(s, PathSearch) for s in searches)
        # A second repair with the same cache serves every search from it.
        obs2 = Observability()
        again = repair_tree(waxman50, tree, failure, obs=obs2, route_cache=cache)
        assert self._digest(plain) == self._digest(again)
        counters = obs2.metrics.counters("recovery")
        assert counters["recovery.repair.spf_runs"] == runs  # one per member...
        hits = obs2.metrics.counters("cache.routes")
        assert hits.get("cache.routes.hits", 0) == runs  # ...each one resumed
        assert "cache.routes.misses" not in hits

    def test_memo_rejects_reuse_across_repair_contexts(self, fig1):
        # Searches are keyed by the whole context — topology state, root,
        # weight and failures — so no search is shared across failure sets
        # or topology states, and each answers exactly as a fresh
        # failure-masked SPF does.
        from repro.routing.route_cache import RouteCache
        from repro.routing.spf import dijkstra

        cache = RouteCache()
        c, d, s, a = (node_id(x) for x in "CDSA")
        one = FailureSet.links((s, a))
        other = FailureSet.links((a, d))
        first = cache.search(fig1, c, failures=one)
        assert cache.search(fig1, c, failures=one) is first
        assert cache.search(fig1, d, failures=one) is not first
        assert cache.search(fig1, c, failures=other) is not first
        assert cache.search(fig1, c, weight="cost", failures=one) is not first
        for failures in (one, other):
            answer = cache.search(fig1, c, failures=failures)
            fresh = dijkstra(fig1, c, failures=failures)
            for node in fig1.nodes():
                assert answer.reachable(node) == (node in fresh.dist)
                if node in fresh.dist:
                    assert answer.path_to(node) == fresh.path_to(node)
                    assert answer.distance(node) == fresh.dist[node]
        fig1.remove_link(c, d)
        moved = cache.search(fig1, c, failures=one)
        assert moved is not first
        fresh = dijkstra(fig1, c, failures=one)
        assert [moved.reachable(n) for n in fig1.nodes()] == [
            n in fresh.dist for n in fig1.nodes()
        ]
