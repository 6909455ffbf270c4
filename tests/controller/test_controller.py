"""Tests for the multi-group MulticastController registry + dispatch."""

import pytest

from repro.controller.controller import MulticastController
from repro.errors import ConfigurationError
from repro.multicast.group import GroupEvent, GroupAction, GroupWorkload
from repro.obs import Observability
from repro.routing.failure_view import FailureSet


class RecordingHub:
    """Telemetry stand-in: keeps published records in order."""

    def __init__(self):
        self.records = []

    def publish(self, kind, **fields):
        record = {"kind": kind, **fields}
        self.records.append(record)
        return record


@pytest.fixture
def controller(waxman50):
    return MulticastController(waxman50)


def open_spread(controller, count=6):
    """Host ``count`` small groups on distinct sources."""
    gids = []
    for i in range(count):
        gid = controller.open_group(i, members=[(i + 7) % 50, (i + 19) % 50])
        gids.append(gid)
    return gids


class TestRegistry:
    def test_group_numbers_auto_increment(self, controller):
        assert controller.open_group(0) == (0, 0)
        assert controller.open_group(1) == (1, 1)
        assert controller.open_group(2, 10) == (2, 10)
        assert controller.open_group(3) == (3, 11)
        assert len(controller) == 4
        assert controller.group_ids() == [(0, 0), (1, 1), (2, 10), (3, 11)]

    def test_duplicate_group_rejected(self, controller):
        controller.open_group(0, 5)
        with pytest.raises(ConfigurationError, match="already hosted"):
            controller.open_group(0, 5)

    def test_unknown_source_rejected(self, controller):
        with pytest.raises(ConfigurationError, match="not in the topology"):
            controller.open_group(999)

    def test_unknown_protocol_rejected(self, waxman50):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            MulticastController(waxman50, protocol="pim")
        controller = MulticastController(waxman50)
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            controller.open_group(0, protocol="pim")

    def test_per_group_protocol_override(self, controller):
        smrp = controller.open_group(0, members=[5])
        spf = controller.open_group(1, protocol="spf", members=[6])
        assert controller._groups[smrp].protocol == "smrp"
        assert controller._groups[spf].protocol == "spf"

    def test_join_leave_and_close(self, controller):
        gid = controller.open_group(0, members=[5, 9])
        controller.join(gid, 14)
        assert controller.tree(gid).members == frozenset({5, 9, 14})
        controller.leave(gid, 9)
        assert controller.tree(gid).members == frozenset({5, 14})
        controller.close_group(gid)
        with pytest.raises(ConfigurationError, match="no hosted group"):
            controller.tree(gid)

    def test_apply_workload_is_defensive(self, controller):
        gid = controller.open_group(0, members=[5])
        workload = GroupWorkload([
            GroupEvent(0.0, 5, GroupAction.JOIN),   # already a member
            GroupEvent(0.5, 0, GroupAction.JOIN),   # the source
            GroupEvent(1.0, 8, GroupAction.JOIN),
            GroupEvent(2.0, 9, GroupAction.LEAVE),  # never joined
            GroupEvent(3.0, 8, GroupAction.LEAVE),
        ])
        assert controller.apply_workload(gid, workload) == 2
        assert controller.tree(gid).members == frozenset({5})


class TestFailureDispatch:
    def on_tree_failure(self, controller, gid):
        link = min(controller.tree(gid).tree_links())
        return FailureSet.links(link)

    def test_fail_returns_only_affected_groups(self, controller):
        gids = open_spread(controller)
        target = gids[0]
        failures = self.on_tree_failure(controller, target)
        affected = controller.fail(failures)
        assert target in affected
        assert affected == sorted(affected)
        for gid in affected:
            assert controller.tree(gid).affected_by(failures)
        for gid in set(gids) - set(affected):
            assert not controller.tree(gid).affected_by(failures)

    def test_empty_failure_is_a_noop_dispatch(self, controller):
        open_spread(controller)
        assert controller.fail(FailureSet()) == []
        dispatch = controller.restore()
        assert dispatch.rows == ()
        assert dispatch.affected == 0

    def test_empty_dispatch_resets_groups_checked(self, controller):
        # Regression: an empty fail() used to leave the previous
        # dispatch's candidate count armed for restore() to report.
        gids = open_spread(controller)
        first = controller.restore(self.on_tree_failure(controller, gids[0]))
        assert first.groups_checked >= 1
        controller.fail(FailureSet())
        dispatch = controller.restore()
        assert dispatch.groups_checked == 0
        assert dispatch.describe().startswith(
            "no failures: 0/6 groups affected (0 indexed candidates)"
        )

    def test_restore_without_fail_raises(self, controller):
        open_spread(controller)
        with pytest.raises(ConfigurationError, match="nothing to restore"):
            controller.restore()

    def test_restore_consumes_the_pending_failure(self, controller):
        gids = open_spread(controller)
        controller.fail(self.on_tree_failure(controller, gids[0]))
        controller.restore()
        with pytest.raises(ConfigurationError, match="nothing to restore"):
            controller.restore()

    def test_one_pass_restores_every_affected_group(self, controller):
        gids = open_spread(controller)
        failures = self.on_tree_failure(controller, gids[0])
        affected = controller.fail(failures)
        dispatch = controller.restore()
        assert [((r.source, r.group)) for r in dispatch.rows] == affected
        for row in dispatch.rows:
            # some cut members ride home on another member's detour
            # (already_connected) — they count as affected, not restored
            assert row.affected >= row.restored + row.unrecoverable
            tree = controller.tree((row.source, row.group))
            # repaired trees no longer traverse the failed link
            assert not tree.affected_by(failures)
        assert failures.describe() in dispatch.describe()

    def test_restore_accepts_inline_failures(self, controller):
        gids = open_spread(controller)
        failures = self.on_tree_failure(controller, gids[0])
        dispatch = controller.restore(failures)
        assert dispatch.affected >= 1

    def test_closed_groups_leave_the_index(self, controller):
        gids = open_spread(controller)
        failures = self.on_tree_failure(controller, gids[0])
        assert gids[0] in controller.fail(failures)
        controller.restore()
        controller.close_group(gids[0])
        assert gids[0] not in controller.fail(failures)

    def test_node_failure_dispatch(self, controller):
        gid = controller.open_group(0, members=[5, 9, 14])
        relay = next(
            node
            for node in controller.tree(gid).on_tree_nodes()
            if node != 0
        )
        affected = controller.fail(FailureSet.nodes(relay))
        assert gid in affected

    def test_telemetry_record_per_restored_group(self, waxman50):
        hub = RecordingHub()
        controller = MulticastController(waxman50, telemetry=hub)
        gids = open_spread(controller)
        dispatch = controller.restore(
            self.on_tree_failure(controller, gids[0])
        )
        restores = [r for r in hub.records if r["kind"] == "group.restore"]
        assert len(restores) == dispatch.affected
        assert restores[0]["group"] == (
            f"{dispatch.rows[0].source}:{dispatch.rows[0].group}"
        )

    def test_counters_and_metrics_snapshot(self, waxman50):
        obs = Observability()
        controller = MulticastController(waxman50, obs=obs)
        gids = open_spread(controller, count=4)
        failures = self.on_tree_failure(controller, gids[0])
        dispatch = controller.restore(failures)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["controller.groups_opened"] == 4
        assert counters["controller.failures_dispatched"] == 1
        assert counters["controller.groups_affected"] == dispatch.affected
        assert counters["controller.members_restored"] == dispatch.restored
        metrics = controller.metrics()
        assert metrics["groups"] == 4
        assert metrics["restorations"] == dispatch.affected
        assert metrics["members"] == sum(
            len(controller.tree(gid).members) for gid in gids
        )


class TestProtectionEngines:
    """The protection family slots in wherever smrp/spf do."""

    def test_protection_modes_hostable(self, waxman50):
        controller = MulticastController(waxman50)
        for protocol in ("protection", "hybrid", "alternate"):
            gid = controller.open_group(
                0, protocol=protocol, members=[9, 17, 28]
            )
            assert controller._groups[gid].protocol == protocol
            assert controller._groups[gid].engine.name == protocol

    def test_negative_protect_budget_rejected(self, waxman50):
        with pytest.raises(ConfigurationError, match="protect_budget"):
            MulticastController(waxman50, protect_budget=-1)

    def test_protected_failure_restores_by_switchover(self, waxman50):
        controller = MulticastController(
            waxman50, protocol="protection", protect_budget=4
        )
        gid = controller.open_group(0, members=[9, 17, 28, 35, 42])
        engine = controller._groups[gid].engine
        link = engine.backups.links(engine.tree)[0]
        controller.fail(FailureSet.links(link))
        dispatch = controller.restore()
        assert dispatch.rows
        row = dispatch.rows[0]
        assert row.strategy == "backup"
        assert row.recovery_distance == 0.0

    def test_hybrid_falls_back_to_local(self, waxman50):
        controller = MulticastController(
            waxman50, protocol="hybrid", protect_budget=0
        )
        gid = controller.open_group(0, members=[9, 17, 28, 35])
        engine = controller._groups[gid].engine
        link = sorted(engine.tree.tree_links())[0]
        controller.fail(FailureSet.links(link))
        dispatch = controller.restore()
        if dispatch.rows:
            assert dispatch.rows[0].strategy == "local"

    def test_alternate_strategy_provenance(self, waxman50):
        controller = MulticastController(waxman50, protocol="alternate")
        gid = controller.open_group(0, members=[9, 17, 28, 35])
        engine = controller._groups[gid].engine
        link = sorted(engine.tree.tree_links())[0]
        controller.fail(FailureSet.links(link))
        dispatch = controller.restore()
        if dispatch.rows:
            assert dispatch.rows[0].strategy == "alternate"


class TestIncrementalDispatch:
    """The reverse index re-indexes a group by the difference between its
    old and new footprint, and ``affected_by`` looks only at the failed
    components.  Random join, leave, fail and restore on every engine;
    after each step the index equals one rebuilt afresh and
    ``affected_by`` equals the whole-tree walk kept in
    ``tests/core/recovery_reference.py``."""

    @staticmethod
    def _rebuilt_index(controller):
        by_link, by_node = {}, {}
        for gid in controller.group_ids():
            tree = controller.tree(gid)
            for link in tree.tree_links():
                by_link.setdefault(link, set()).add(gid)
            for node in tree.on_tree_nodes():
                by_node.setdefault(node, set()).add(gid)
        return by_link, by_node

    @classmethod
    def _check_index(cls, controller):
        controller._refresh_index()  # the index is refreshed lazily
        by_link, by_node = cls._rebuilt_index(controller)
        live = lambda index: {k: v for k, v in index.items() if v}  # noqa: E731
        assert live(controller._by_link) == by_link
        assert live(controller._by_node) == by_node

    @pytest.mark.parametrize(
        "engine", ["smrp", "spf", "protection", "hybrid", "alternate"]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_churn_and_failures(self, waxman50, engine, seed):
        import numpy as np

        from tests.core.recovery_reference import affected_by

        rng = np.random.default_rng([seed, 17])
        nodes = sorted(waxman50.nodes())
        links = sorted(link.key for link in waxman50.links())
        controller = MulticastController(waxman50, protocol=engine)
        sources = [int(s) for s in rng.choice(nodes, size=3, replace=False)]
        for source in sources:
            members = [
                int(m)
                for m in rng.choice(nodes, size=6, replace=False)
                if m != source
            ]
            controller.open_group(source, members=members)
        self._check_index(controller)
        for _ in range(40):
            gid = controller.group_ids()[int(rng.integers(len(sources)))]
            tree = controller.tree(gid)
            action = rng.random()
            if action < 0.35:
                node = int(rng.choice(nodes))
                if node != gid[0] and not tree.is_member(node):
                    controller.join(gid, node)
            elif action < 0.6:
                if tree.members:
                    controller.leave(gid, int(rng.choice(sorted(tree.members))))
            else:
                if rng.random() < 0.7:
                    picks = rng.choice(len(links), size=int(rng.integers(1, 3)))
                    failures = FailureSet.links(*(links[i] for i in picks))
                else:
                    node = int(rng.choice(nodes))
                    if node in sources:
                        continue
                    failures = FailureSet.nodes(node)
                for other in controller.group_ids():
                    other_tree = controller.tree(other)
                    assert other_tree.affected_by(failures) == affected_by(
                        other_tree, failures
                    )
                affected = controller.fail(failures)
                assert affected == sorted(
                    g
                    for g in controller.group_ids()
                    if affected_by(controller.tree(g), failures)
                )
                controller.restore()
            self._check_index(controller)
