"""Tests for the link-state database and the convergence model."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.routing import link_state
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.link_state import (
    ConvergenceModel,
    LinkStateDatabase,
    flood_failure,
)


class TestLinkStateDatabase:
    def test_pristine_view_routes_through_future_failure(self, fig1):
        lsdb = LinkStateDatabase(4, fig1)
        assert lsdb.routing_table().next_hop(0) == 1

    def test_learning_failure_changes_route(self, fig1):
        lsdb = LinkStateDatabase(4, fig1)
        changed = lsdb.learn_failure(FailureSet.links((1, 4)))
        assert changed
        assert lsdb.routing_table().next_hop(0) == 2

    def test_learning_is_idempotent(self, fig1):
        lsdb = LinkStateDatabase(4, fig1)
        failure = FailureSet.links((1, 4))
        assert lsdb.learn_failure(failure)
        assert not lsdb.learn_failure(failure)

    def test_synchronization_check(self, fig1):
        lsdb = LinkStateDatabase(0, fig1)
        failure = FailureSet.links((0, 1)).union(FailureSet.nodes(3))
        assert lsdb.is_synchronized_with(NO_FAILURES)
        assert not lsdb.is_synchronized_with(failure)
        lsdb.learn_failure(failure)
        assert lsdb.is_synchronized_with(failure)

    def test_forget_all(self, fig1):
        lsdb = LinkStateDatabase(0, fig1)
        lsdb.learn_failure(FailureSet.nodes(1))
        lsdb.forget_all()
        assert lsdb.known_failures.is_empty

    def test_unknown_owner_rejected(self, fig1):
        with pytest.raises(TopologyError):
            LinkStateDatabase(99, fig1)


class TestConvergenceModel:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ConfigurationError):
            ConvergenceModel(detection_delay=-1.0)

    def test_no_failure_converges_instantly(self, fig1):
        model = ConvergenceModel()
        times = model.convergence_times(fig1, NO_FAILURES)
        assert all(t == 0.0 for t in times.values())

    def test_convergence_after_detection_plus_spf(self, fig1):
        model = ConvergenceModel(detection_delay=30.0, spf_compute_time=1.0)
        times = model.convergence_times(fig1, FailureSet.links((0, 1)))
        # Every router needs the LSAs of *both* failure-adjacent routers
        # (max over origins), so nobody converges before detection + SPF.
        assert min(times.values()) >= 31.0
        # And flooding distance matters: the spread is non-trivial.
        assert max(times.values()) > min(times.values())

    def test_detection_dominates(self, fig1):
        model = ConvergenceModel(detection_delay=100.0)
        times = model.convergence_times(fig1, FailureSet.links((0, 1)))
        assert all(t >= 100.0 for t in times.values())

    def test_failed_node_not_reported(self, fig1):
        model = ConvergenceModel()
        times = model.convergence_times(fig1, FailureSet.nodes(1))
        assert 1 not in times

    def test_single_node_query(self, fig1):
        model = ConvergenceModel()
        t = model.convergence_time(fig1, FailureSet.links((0, 1)), 4)
        assert t > 0
        with pytest.raises(TopologyError):
            model.convergence_time(fig1, FailureSet.nodes(1), 1)

    def test_convergence_slower_than_local_detection(self, waxman50):
        """The paper's premise: far routers converge much later than the
        failure-adjacent ones detect — the window local recovery exploits."""
        model = ConvergenceModel(detection_delay=30.0)
        failure = FailureSet.links(tuple(waxman50.links()[0].key))
        times = model.convergence_times(waxman50, failure)
        assert max(times.values()) > 30.0


class TestConvergenceMemo:
    """The flood searches of the last ``(model, topology state, failures)``
    are resumed only for the same model, the same topology state and the
    same failures; every answer equals a fresh whole-flood computation
    (full SPF per origin, ``recovery_reference``)."""

    @pytest.fixture
    def spf_runs(self, monkeypatch):
        """Roots of the flood searches opened."""
        runs = []
        original = link_state.PathSearch

        def counting(topology, root, *args, **kwargs):
            runs.append(root)
            return original(topology, root, *args, **kwargs)

        monkeypatch.setattr(link_state, "PathSearch", counting)
        return runs

    @staticmethod
    def _fresh(model, topology, failures):
        from tests.core import recovery_reference

        return recovery_reference.convergence_times(model, topology, failures)

    def test_memo_equals_a_fresh_computation(self, waxman50, spf_runs):
        model = ConvergenceModel()
        failure = FailureSet.links(tuple(waxman50.links()[0].key))
        fresh = self._fresh(model, waxman50, failure)
        # One router at a time: each origin's search opens once and is
        # resumed for every later router.
        for node in sorted(fresh, reverse=True):
            assert model.convergence_time(waxman50, failure, node) == fresh[node]
        runs = len(spf_runs)
        assert runs == 2  # the failed link's two endpoints
        first = model.convergence_times(waxman50, failure)
        assert list(first.items()) == list(fresh.items())
        # An equal model asking the same question reuses the flood.
        again = ConvergenceModel().convergence_times(waxman50, failure)
        assert again is first
        assert len(spf_runs) == runs

    def test_other_failures_or_model_recompute(self, waxman50, spf_runs):
        model = ConvergenceModel()
        links = waxman50.links()
        one = FailureSet.links(tuple(links[0].key))
        other = FailureSet.links(tuple(links[1].key))
        first = model.convergence_times(waxman50, one)
        runs = len(spf_runs)
        second = model.convergence_times(waxman50, other)
        assert len(spf_runs) > runs
        assert second == self._fresh(model, waxman50, other)
        slower = ConvergenceModel(detection_delay=60.0)
        runs = len(spf_runs)
        assert slower.convergence_times(waxman50, other) != second
        assert len(spf_runs) > runs
        assert model.convergence_times(waxman50, one) == first

    def test_mutated_topology_recomputes(self, fig1, spf_runs):
        model = ConvergenceModel()
        failure = FailureSet.links((0, 1))
        before = model.convergence_times(fig1, failure)
        runs = len(spf_runs)
        fig1.remove_link(2, 4)
        after = model.convergence_time(fig1, failure, 4)
        assert len(spf_runs) > runs
        assert after == self._fresh(model, fig1, failure)[4]
        assert model.convergence_times(fig1, failure) != before


class TestFlooding:
    def test_flood_reaches_every_router(self, fig1):
        databases = {n: LinkStateDatabase(n, fig1) for n in fig1.nodes()}
        failure = FailureSet.links((0, 1))
        stats = flood_failure(fig1, databases, failure)
        for node, lsdb in databases.items():
            assert lsdb.is_synchronized_with(failure), f"node {node} stale"
        assert stats.lsa_messages > 0
        assert stats.touched_routers == set(fig1.nodes())

    def test_flood_does_not_cross_failures(self, line4):
        databases = {n: LinkStateDatabase(n, line4) for n in line4.nodes()}
        failure = FailureSet.links((1, 2))
        flood_failure(line4, databases, failure)
        # Both sides learn (each has an adjacent router), in this topology.
        assert databases[0].is_synchronized_with(failure)
        assert databases[3].is_synchronized_with(failure)

    def test_partitioned_router_stays_stale(self, line4):
        databases = {n: LinkStateDatabase(n, line4) for n in line4.nodes()}
        # Node 3's only link fails together with 1-2: node 3 is isolated
        # and hears nothing beyond its own adjacency.
        failure = FailureSet.links((1, 2))
        isolated = FailureSet.links((2, 3))
        flood = failure.union(isolated)
        flood_failure(line4, databases, flood)
        assert databases[0].is_synchronized_with(flood)
        # Node 3 is adjacent to (2,3) so it knows that one, and cannot know
        # more than its own adjacency tells it.
        assert databases[3].known_failures.link_failed(2, 3)
