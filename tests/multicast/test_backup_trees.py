"""Per-link backup trees: property suite and protection-engine tests.

The tentpole guarantees asserted here:

* every backup tree covers the full member set minus the members its
  protected link bridges (``unprotectable``);
* backups are valid trees (loop-free, mirrored parent/children maps);
* a backup never uses the link it protects;
* switchover is *equivalent* to a fresh post-failure rebuild with the
  engine's fallback strategy — same links, same members, same parents;
* every switchover recovery lands at recovery distance zero;
* protection state built on demand plans exactly what state built
  eagerly before the failure would, through any churn and repairs.
"""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.errors import ConfigurationError
from repro.core.recovery import repair_tree
from repro.graph.topology import edge_key
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.backup_trees import (
    AlternatePathProtocol,
    BackupTreeProtocol,
    PerLinkBackupTrees,
    protected_links,
)
from repro.multicast.group import random_member_set
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.multicast.validation import check_tree_invariants
from repro.obs import NULL_OBS, Observability
from repro.routing.failure_view import FailureSet
from repro.routing.spf import dijkstra


def make_topology(seed: int, n: int = 30):
    return waxman_topology(
        WaxmanConfig(n=n, alpha=0.4, beta=0.35, seed=seed)
    ).topology


def build_session(seed: int, group_size: int = 8):
    topology = make_topology(seed)
    rng = np.random.default_rng(seed + 1000)
    source = int(rng.integers(len(topology.nodes())))
    members = random_member_set(topology, source, group_size, rng)
    protocol = SPFMulticastProtocol(topology, source, self_check=False)
    protocol.build(members)
    return topology, protocol.tree


def tree_shape(tree):
    """Comparable structural identity of a tree."""
    return (
        tree.source,
        tree.members,
        tree.tree_links(),
        {node: tree.parent(node) for node in tree.on_tree_nodes()},
    )


def link_load(tree, edge):
    """Members carried by ``edge``: a subtree walk per link."""
    u, v = edge
    downstream = v if tree.parent(v) == u else u
    return tree.subtree_member_count(downstream)


def eager_ranking(tree, budget):
    return sorted(
        tree.tree_links(), key=lambda edge: (-link_load(tree, edge), edge)
    )[:budget]


def eager_backup_plan(topology, tree, failures, budget, strategy):
    """``(strategy, tree)`` of a repair with every backup built up front:
    a fresh ``repair_tree`` per protected link, scanned in rank order."""
    for link in eager_ranking(tree, budget):
        if link not in failures.failed_links:
            continue
        backup = repair_tree(
            topology, tree, FailureSet.links(link), strategy=strategy,
            obs=NULL_OBS,
        ).repaired_tree
        if not backup.affected_by(failures):
            return "backup", backup
    fresh = repair_tree(topology, tree, failures, strategy=strategy, obs=NULL_OBS)
    return fresh.strategy, fresh.repaired_tree


def eager_alternates(topology, member, source):
    """A full alternate table: the primary and every link's replacement."""
    primary = tuple(dijkstra(topology, member).path_to(source))
    alternates = {}
    for u, v in zip(primary, primary[1:]):
        masked = dijkstra(topology, member, failures=FailureSet.links((u, v)))
        alternates[edge_key(u, v)] = (
            tuple(masked.path_to(source)) if source in masked.dist else None
        )
    return primary, alternates


def eager_route_under(primary, alternates, failures):
    """The single-failure rule, read off a full table."""
    if not failures.path_affected(primary):
        return primary
    hit = [edge for edge in alternates if edge in failures.failed_links]
    if len(hit) != 1 or any(n in failures.failed_nodes for n in primary):
        return None
    path = alternates[hit[0]]
    if path is None or failures.path_affected(path):
        return None
    return path


class TestProtectedLinks:
    def test_negative_budget_rejected(self):
        _, tree = build_session(0)
        with pytest.raises(ConfigurationError):
            protected_links(tree, -1)

    def test_budget_caps_the_set(self):
        _, tree = build_session(0)
        assert protected_links(tree, 0) == []
        assert len(protected_links(tree, 3)) == 3
        everything = protected_links(tree, 10**6)
        assert len(everything) == len(tree.tree_links())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_ranked_by_subtree_load_then_edge(self, seed):
        _, tree = build_session(seed)
        for budget in (0, 1, 4, 10**6):
            assert protected_links(tree, budget) == eager_ranking(tree, budget)
        ranked = protected_links(tree, 10**6)
        loads = [link_load(tree, edge) for edge in ranked]
        assert loads == sorted(loads, reverse=True)


class TestBackupTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_backups_are_valid_and_disjoint_from_their_link(self, seed):
        topology, tree = build_session(seed)
        backups = PerLinkBackupTrees(topology, budget=4, strategy="global")
        for link in backups.links(tree):
            backup = backups.lookup(tree, FailureSet.links(link))
            assert backup is not None and backup.link == link
            check_tree_invariants(backup.tree)
            # The protected link is exactly what failed when this tree
            # was computed; it must not appear in the replacement.
            assert link not in backup.tree.tree_links()
            # Full member coverage, minus the bridged members.
            covered = {
                m for m in tree.members if backup.tree.is_member(m)
            }
            assert covered == tree.members - set(backup.unprotectable)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=200),
        strategy=st.sampled_from(["local", "global"]),
    )
    def test_switchover_equals_fresh_rebuild(self, seed, strategy):
        topology, tree = build_session(seed)
        backups = PerLinkBackupTrees(topology, budget=4, strategy=strategy)
        for link in backups.links(tree):
            failures = FailureSet.links(link)
            backup = backups.lookup(tree, failures)
            if backup is None:
                # The stored tree itself crosses the failed link set
                # only in multi-failure scenarios; a single protected
                # failure must always be covered.
                pytest.fail(f"protected link {link} not covered")
            fresh = repair_tree(
                topology, tree, failures, strategy=strategy, obs=NULL_OBS
            )
            assert tree_shape(backup.tree) == tree_shape(fresh.repaired_tree)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=120))
    def test_switchover_recoveries_have_zero_distance(self, seed):
        topology, tree = build_session(seed)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="protection", budget=4
        )
        engine.build(sorted(tree.members))
        for link in engine.backups.links(engine.tree):
            report = engine.plan_repair(FailureSet.links(link))
            assert report.strategy == "backup"
            for recovery in report.recoveries:
                assert recovery.recovery_distance == 0.0
                assert recovery.recovery_hops == 0


def make_engine(kind, topology, source, budget):
    if kind == "alternate":
        return AlternatePathProtocol(topology, source)
    return BackupTreeProtocol(topology, source, mode=kind, budget=budget)


def check_plans_match_eager(kind, topology, engine, budget):
    """Every single-link failure of the tree, plus one two-link failure
    of its two most-loaded links, plans as eagerly built state would."""
    tree = engine.tree
    scenarios = [FailureSet.links(link) for link in sorted(tree.tree_links())]
    heaviest = eager_ranking(tree, 2)
    if len(heaviest) == 2:
        scenarios.append(FailureSet.links(*heaviest))
    fallback = "local" if kind == "hybrid" else "global"
    tables = {}
    for failures in scenarios:
        report = engine.plan_repair(failures)
        check_tree_invariants(report.repaired_tree)
        assert not report.repaired_tree.affected_by(failures)
        if kind != "alternate":
            strategy, expected = eager_backup_plan(
                topology, tree, failures, budget, fallback
            )
            assert report.strategy == strategy
            assert tree_shape(report.repaired_tree) == tree_shape(expected)
            continue
        for recovery in report.recoveries:
            if recovery.already_connected:
                continue
            member = recovery.member
            if member not in tables:
                tables[member] = eager_alternates(topology, member, tree.source)
            route = eager_route_under(*tables[member], failures)
            if recovery.strategy == "alternate":
                path = recovery.restoration_path
                assert route is not None and route[: len(path)] == path
            else:
                assert recovery.strategy == "global" and route is None


class TestOnDemandEqualsEager:
    """Backups and alternates built at first need plan exactly what an
    engine holding every backup and every full table before the failure
    would, after any mix of joins, leaves and single-link repairs."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["protection", "hybrid", "alternate"]),
        seed=st.integers(min_value=0, max_value=200),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["join", "leave", "repair"]),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_plans_match_eager_oracle(self, kind, seed, steps):
        budget = 3
        topology = make_topology(seed, n=25)
        rng = np.random.default_rng(seed + 1000)
        source = int(rng.integers(len(topology.nodes())))
        engine = make_engine(kind, topology, source, budget)
        engine.build(random_member_set(topology, source, 6, rng))
        check_plans_match_eager(kind, topology, engine, budget)
        for action, pick in steps:
            tree = engine.tree
            if action == "join":
                joinable = sorted(
                    set(topology.nodes()) - tree.members - {source}
                )
                engine.join(joinable[pick % len(joinable)])
            elif action == "leave":
                members = sorted(tree.members)
                if len(members) < 2:
                    continue
                engine.leave(members[pick % len(members)])
            else:
                links = sorted(tree.tree_links())
                if not links:
                    continue  # every member was cut off by a bridge
                engine.repair(FailureSet.links(links[pick % len(links)]))
            check_plans_match_eager(kind, topology, engine, budget)


class TestBackupTreeProtocol:
    def test_unknown_mode_rejected(self):
        topology = make_topology(0)
        with pytest.raises(ConfigurationError):
            BackupTreeProtocol(topology, 0, mode="bogus")

    def test_unprotected_failure_falls_back(self):
        topology, tree = build_session(3)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="protection", budget=1
        )
        engine.build(sorted(tree.members))
        unprotected = sorted(
            tree.tree_links() - set(engine.backups.links(engine.tree))
        )
        assert unprotected, "budget 1 must leave unprotected links"
        report = engine.plan_repair(FailureSet.links(unprotected[0]))
        assert report.strategy == "global"

    def test_hybrid_falls_back_to_local_detour(self):
        topology, tree = build_session(3)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="hybrid", budget=1
        )
        engine.build(sorted(tree.members))
        unprotected = sorted(
            engine.tree.tree_links() - set(engine.backups.links(engine.tree))
        )
        report = engine.plan_repair(FailureSet.links(unprotected[0]))
        assert report.strategy == "local"

    def test_repair_adopts_the_backup_and_rebinds_state(self):
        topology, tree = build_session(5)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="hybrid", budget=4
        )
        engine.build(sorted(tree.members))
        link = engine.backups.links(engine.tree)[0]
        report = engine.repair(FailureSet.links(link))
        assert report.strategy == "backup"
        assert engine.tree is report.repaired_tree
        # The hybrid's SMRP state must follow the adopted tree.
        assert engine._inner.state.tree is report.repaired_tree
        # A later failure on the new tree still repairs cleanly.
        check_tree_invariants(engine.tree)

    def test_standing_state_is_beyond_the_working_tree(self):
        topology, tree = build_session(7)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="protection", budget=4
        )
        engine.build(sorted(tree.members))
        standing = engine.standing_links()
        assert standing.isdisjoint(engine.tree.tree_links())
        assert engine.standing_cost() == pytest.approx(
            sum(topology.cost(u, v) for u, v in standing)
        )

    def test_membership_churn_invalidates_backups(self):
        topology, tree = build_session(9)
        engine = BackupTreeProtocol(
            topology, tree.source, mode="protection", budget=4
        )
        members = sorted(tree.members)
        engine.build(members)
        for link in engine.backups.links(engine.tree):
            engine.plan_repair(FailureSet.links(link))
        engine.leave(members[-1])
        assert engine.backups.links(engine.tree) == eager_ranking(
            engine.tree, 4
        )
        for link in engine.backups.links(engine.tree):
            failures = FailureSet.links(link)
            report = engine.plan_repair(failures)
            fresh = repair_tree(
                topology, engine.tree, failures, strategy="global",
                obs=NULL_OBS,
            )
            assert report.strategy == "backup"
            assert tree_shape(report.repaired_tree) == tree_shape(
                fresh.repaired_tree
            )
            assert not report.repaired_tree.is_member(members[-1])

    def test_backups_are_built_at_first_need(self):
        topology, tree = build_session(5)
        obs = Observability()
        engine = BackupTreeProtocol(
            topology, tree.source, mode="protection", budget=4, obs=obs
        )
        engine.build(sorted(tree.members))

        def built():
            counters = obs.metrics.snapshot()["counters"]
            return counters.get("protection.backups_built", 0)

        assert built() == 0
        links = engine.backups.links(engine.tree)
        engine.plan_repair(FailureSet.links(links[0]))
        engine.plan_repair(FailureSet.links(links[0]))
        assert built() == 1
        unprotected = sorted(engine.tree.tree_links() - set(links))
        if unprotected:
            engine.plan_repair(FailureSet.links(unprotected[0]))
            assert built() == 1
        engine.standing_links()
        assert built() == len(links)


class TestAlternatePathProtocol:
    def test_alternate_recovery_without_convergence(self):
        topology, tree = build_session(11)
        engine = AlternatePathProtocol(topology, tree.source)
        engine.build(sorted(tree.members))
        links = sorted(tree.tree_links())
        report = engine.plan_repair(FailureSet.links(links[0]))
        assert report.strategy == "alternate"
        for recovery in report.recoveries:
            assert recovery.strategy in ("alternate", "global")
        check_tree_invariants(report.repaired_tree)
        assert not report.repaired_tree.disconnected_members(
            FailureSet.links(links[0])
        )

    def test_tables_are_built_for_cut_members_only(self):
        topology, tree = build_session(11)
        obs = Observability()
        engine = AlternatePathProtocol(topology, tree.source, obs=obs)
        engine.build(sorted(tree.members))

        def counters():
            return obs.metrics.snapshot()["counters"]

        assert "protection.alternate.tables" not in counters()
        link = eager_ranking(engine.tree, 1)[0]
        failures = FailureSet.links(link)
        cut = engine.tree.disconnected_members(failures)
        report = engine.plan_repair(failures)
        assert counters()["protection.alternate.tables"] == len(cut)
        hits = sum(
            1
            for r in report.recoveries
            if r.strategy == "alternate" and not r.already_connected
        )
        assert counters().get("protection.alternate.hits", 0) == hits
        # One alternate per cut member at most: the one for ``link``.
        assert counters().get("protection.alternate.routes", 0) <= len(cut)

    def test_tables_garbage_collected_on_leave(self):
        """A member that left reserves nothing: after a repair and a
        leave, the standing state is exactly what full tables of the
        remaining members reserve."""
        topology, tree = build_session(13)
        engine = AlternatePathProtocol(topology, tree.source)
        members = sorted(tree.members)
        engine.build(members)
        engine.plan_repair(FailureSet.links(sorted(engine.tree.tree_links())[0]))
        engine.leave(members[0])

        expected = set()
        for member in sorted(engine.tree.members):
            primary, alternates = eager_alternates(
                topology, member, engine.source
            )
            for path in alternates.values():
                if path is not None:
                    expected |= {
                        edge_key(u, v) for u, v in zip(path, path[1:])
                    }
            expected -= {
                edge_key(u, v) for u, v in zip(primary, primary[1:])
            }
        standing = engine.standing_links()
        assert standing == expected - engine.tree.tree_links()

    def test_standing_state_excludes_working_tree(self):
        topology, tree = build_session(13)
        engine = AlternatePathProtocol(topology, tree.source)
        engine.build(sorted(tree.members))
        standing = engine.standing_links()
        assert standing.isdisjoint(engine.tree.tree_links())
